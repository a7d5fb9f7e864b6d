//! What a portfolio solve returns: winner, per-algorithm statistics, and
//! why the race stopped.

use obm_core::Mapping;

/// Why the portfolio stopped racing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every task ran to completion (fully deterministic).
    Completed,
    /// The evaluation cap clamped or dropped at least one task. Still
    /// deterministic: the clamp happens before any task runs, in
    /// task-rank order.
    BudgetExhausted,
    /// The wall-clock deadline fired; in-flight tasks were cancelled and
    /// contribute nothing (best-effort, timing-dependent).
    Deadline,
    /// The external cancel token fired.
    Cancelled,
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Termination::Completed => "completed",
            Termination::BudgetExhausted => "budget_exhausted",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
        })
    }
}

/// Per-(algorithm × seed) task statistics.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Deterministic task rank (merge tie-break order).
    pub task: u64,
    /// Display name of the algorithm ("SSS", "SA", …).
    pub algo: &'static str,
    /// Seed the task ran with.
    pub seed: u64,
    /// Objective (max per-application APL) the task achieved; `None` if
    /// the task was cancelled, dropped by the evaluation cap, or pruned
    /// before it could finish.
    pub objective: Option<f64>,
    /// Evaluations budgeted to the task after deterministic clamping.
    pub evaluations: u64,
    /// Whether the task's result came from a resume checkpoint instead
    /// of a fresh run.
    pub resumed: bool,
}

impl SolveStats {
    /// Whether the task finished a fresh run in this solve: not resumed,
    /// dropped or cancelled. Exactly these tasks' spans
    /// ([`span_path`](Self::span_path)) time a whole run.
    pub fn ran(&self) -> bool {
        self.objective.is_some() && !self.resumed
    }

    /// Path of the span that times this task in the request's metrics
    /// registry (DESIGN.md §17): `portfolio/task/<algo>-s<seed>`.
    pub fn span_path(&self) -> String {
        task_span_path(self.algo, self.seed)
    }
}

/// The span path of the task running `algo` under `seed`.
pub(crate) fn task_span_path(algo: &str, seed: u64) -> String {
    format!("portfolio/task/{algo}-s{seed}")
}

/// The result of racing a portfolio.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The winning mapping. When no task completed (deadline or
    /// cancellation before anything finished) this is the deterministic
    /// fallback: `BalancedGreedy` at seed 0.
    pub mapping: Mapping,
    /// Objective of [`mapping`](Self::mapping) (max per-application APL).
    pub objective: f64,
    /// Display name of the winning algorithm (`"Greedy"` for the
    /// fallback).
    pub winner: &'static str,
    /// Seed of the winning task.
    pub winner_seed: u64,
    /// Why the race stopped.
    pub termination: Termination,
    /// One entry per task, in task-rank order.
    pub stats: Vec<SolveStats>,
    /// Whether the fallback path produced the winner (no task finished).
    pub fallback: bool,
    /// Whether a resume checkpoint was offered but rejected (fingerprint
    /// mismatch); everything was re-run from scratch.
    pub resume_rejected: bool,
    /// Snapshot of every completed task, resumable via
    /// [`SolveRequestBuilder::resume`](crate::request::SolveRequestBuilder::resume).
    pub checkpoint: crate::checkpoint::Checkpoint,
}

impl SolveOutcome {
    /// Number of tasks that finished with a result.
    pub fn completed_tasks(&self) -> usize {
        self.stats.iter().filter(|s| s.objective.is_some()).count()
    }
}
