//! The solver-facing request API: which algorithms to race, with which
//! seeds, under which budget.

use std::time::Duration;

use noc_metrics::MetricsHandle;
use noc_telemetry::{NoopSink, Probe};
use obm_core::algorithms::{
    BalancedGreedy, BranchAndBound, HybridSssSa, Mapper, MonteCarlo, SimulatedAnnealing,
    SortSelectSwap,
};
use obm_core::{BudgetError, CancelToken, Mapping, ObjectiveSpec, ObmInstance};

use crate::checkpoint::Checkpoint;
use crate::engine;
use crate::outcome::SolveOutcome;

/// One algorithm configuration the portfolio can race.
///
/// Wraps the `obm-core` mapper configurations so a request can carry a
/// heterogeneous line-up by value (every config is `Copy`).
#[derive(Debug, Clone, Copy)]
pub enum Algorithm {
    /// The paper's sort-select-swap heuristic (deterministic).
    SortSelectSwap(SortSelectSwap),
    /// Simulated annealing (seed-sensitive).
    SimulatedAnnealing(SimulatedAnnealing),
    /// SSS seed + cold annealing refinement (seed-sensitive).
    HybridSssSa(HybridSssSa),
    /// The balanced-greedy constructor (deterministic).
    BalancedGreedy,
    /// Monte-Carlo best-of-N random draws (seed-sensitive).
    MonteCarlo(MonteCarlo),
    /// Branch-and-bound exact solver (deterministic; can consume the
    /// shared incumbent bound under aggressive pruning).
    Exact(BranchAndBound),
}

impl Algorithm {
    /// Display name, matching [`Mapper::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SortSelectSwap(_) => "SSS",
            Algorithm::SimulatedAnnealing(_) => "SA",
            Algorithm::HybridSssSa(_) => "SSS+SA",
            Algorithm::BalancedGreedy => "Greedy",
            Algorithm::MonteCarlo(_) => "MC",
            Algorithm::Exact(_) => "BnB",
        }
    }

    /// Whether different seeds can produce different results. Unseeded
    /// algorithms get exactly one task regardless of the request's seed
    /// list (racing identical copies wastes budget).
    pub fn seeded(&self) -> bool {
        matches!(
            self,
            Algorithm::SimulatedAnnealing(_) | Algorithm::HybridSssSa(_) | Algorithm::MonteCarlo(_)
        )
    }

    /// Validate the wrapped configuration (zero iteration/sample budgets
    /// are rejected here instead of panicking mid-solve).
    pub fn validate(&self) -> Result<(), BudgetError> {
        match self {
            Algorithm::SimulatedAnnealing(sa) => sa.validate(),
            Algorithm::MonteCarlo(mc) => mc.validate(),
            _ => Ok(()),
        }
    }

    /// Deterministic estimate of the evaluation count one task costs,
    /// used to apportion [`SolveBudget::max_evaluations`]. Exact for the
    /// iteration-driven algorithms (SA, MC); a calibrated `O(N²)` proxy
    /// for the pass-structured ones (SSS, greedy); the node budget for
    /// branch-and-bound (its worst case). Annealing counts nothing on a
    /// chip with fewer than two tiles, where it has no swap to try and
    /// returns its start mapping at once.
    pub fn nominal_evals(&self, inst: &ObmInstance) -> u64 {
        let n = inst.num_tiles() as u64;
        let anneal = |iterations: u64| if n < 2 { 0 } else { iterations };
        match self {
            Algorithm::SortSelectSwap(_) => n * n,
            Algorithm::SimulatedAnnealing(sa) => {
                anneal((sa.iterations as u64) * (sa.restarts as u64))
            }
            Algorithm::HybridSssSa(h) => n * n + anneal(h.sa_iterations as u64),
            Algorithm::BalancedGreedy => n,
            Algorithm::MonteCarlo(mc) => mc.samples as u64,
            Algorithm::Exact(b) => b.node_budget,
        }
    }

    /// Clamp the configuration to at most `evals` evaluations, keeping
    /// determinism (the clamp happens before the run, in task-rank order,
    /// so it does not depend on scheduling). Iteration-driven algorithms
    /// shrink; pass-structured ones are all-or-nothing and return `None`
    /// when their full nominal cost does not fit.
    pub(crate) fn clamped_to(&self, evals: u64, inst: &ObmInstance) -> Option<Algorithm> {
        if self.nominal_evals(inst) <= evals {
            return Some(*self);
        }
        match self {
            Algorithm::SimulatedAnnealing(sa) => {
                let per_restart = (evals / sa.restarts as u64) as usize;
                (per_restart > 0).then_some(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                    iterations: per_restart,
                    ..*sa
                }))
            }
            Algorithm::MonteCarlo(mc) => (evals > 0).then_some(Algorithm::MonteCarlo(MonteCarlo {
                samples: evals as usize,
                ..*mc
            })),
            _ => None,
        }
    }

    /// Run one task: cancellable, probed, optionally pruning against an
    /// external incumbent bound (consumed by [`Algorithm::Exact`] only —
    /// see DESIGN.md §10.2 for why the others ignore it).
    pub(crate) fn run(
        &self,
        inst: &ObmInstance,
        seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
        incumbent_bound: Option<f64>,
    ) -> Option<Mapping> {
        match self {
            Algorithm::SortSelectSwap(sss) => sss.map_cancellable(inst, seed, token, probe),
            Algorithm::SimulatedAnnealing(sa) => sa.map_cancellable(inst, seed, token, probe),
            Algorithm::HybridSssSa(h) => h.map_cancellable(inst, seed, token, probe),
            Algorithm::BalancedGreedy => BalancedGreedy.map_cancellable(inst, seed, token, probe),
            Algorithm::MonteCarlo(mc) => mc.map_cancellable(inst, seed, token, probe),
            Algorithm::Exact(b) => {
                let r = b.solve_budgeted(inst, token, incumbent_bound);
                if r.cancelled {
                    None
                } else {
                    Some(r.mapping)
                }
            }
        }
    }

    /// The default line-up for the paper's min-max APL objective: SSS,
    /// hybrid, SA, greedy. Same as
    /// `default_portfolio_for(ObjectiveSpec::MinMaxApl)`.
    pub fn default_portfolio() -> Vec<Algorithm> {
        Algorithm::default_portfolio_for(ObjectiveSpec::MinMaxApl)
    }

    /// The recommended line-up for `objective` (DESIGN.md §10.5): SSS,
    /// hybrid, SA and greedy, in that rank order, plus Monte Carlo ranked
    /// last for `max-min-balance` and `energy`. MC won none of the
    /// measured min-max races but often wins the other two. MC runs
    /// single-worker (the portfolio already owns the parallelism, and
    /// `MonteCarlo::default()`'s machine-sized worker count would make
    /// results machine-dependent).
    pub fn default_portfolio_for(objective: ObjectiveSpec) -> Vec<Algorithm> {
        let mut line_up = vec![
            Algorithm::SortSelectSwap(SortSelectSwap::default()),
            Algorithm::HybridSssSa(HybridSssSa::default()),
            Algorithm::SimulatedAnnealing(SimulatedAnnealing::default()),
            Algorithm::BalancedGreedy,
        ];
        if !objective.is_min_max_apl() {
            line_up.push(Algorithm::MonteCarlo(MonteCarlo {
                workers: 1,
                ..MonteCarlo::default()
            }));
        }
        line_up
    }
}

/// Wall-clock and work limits for one solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveBudget {
    /// Stop racing after this much wall-clock time (best-effort: tasks in
    /// flight are cancelled cooperatively and contribute nothing).
    pub deadline: Option<Duration>,
    /// Deterministic cap on total evaluations across all tasks,
    /// apportioned in task-rank order before any task runs.
    pub max_evaluations: Option<u64>,
}

impl SolveBudget {
    /// No limits: every task runs to completion.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Limit wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limit total evaluations (deterministic).
    pub fn with_max_evaluations(mut self, evals: u64) -> Self {
        self.max_evaluations = Some(evals);
        self
    }
}

/// A rejected [`SolveRequest`] configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request has no algorithms to race.
    NoAlgorithms,
    /// The request has no seeds.
    NoSeeds,
    /// Zero worker threads were requested.
    ZeroWorkers,
    /// An algorithm configuration failed validation.
    Algorithm {
        /// Display name of the offending algorithm.
        algo: &'static str,
        /// The underlying budget violation.
        source: BudgetError,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::NoAlgorithms => write!(f, "portfolio has no algorithms to race"),
            RequestError::NoSeeds => write!(f, "portfolio has no seeds (need at least one)"),
            RequestError::ZeroWorkers => write!(f, "worker count must be at least 1 (got 0)"),
            RequestError::Algorithm { algo, source } => {
                write!(f, "invalid {algo} configuration: {source}")
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Algorithm { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A validated portfolio solve: instance + line-up + seeds + budget.
///
/// Build with [`SolveRequest::builder`], run with [`SolveRequest::solve`]
/// (or [`solve_probed`](SolveRequest::solve_probed) to stream
/// [`SolverEvent`](noc_telemetry::SolverEvent)s).
#[derive(Debug, Clone)]
pub struct SolveRequest<'a> {
    pub(crate) inst: &'a ObmInstance,
    pub(crate) algorithms: Vec<Algorithm>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) budget: SolveBudget,
    pub(crate) workers: usize,
    pub(crate) aggressive_pruning: bool,
    pub(crate) objective: ObjectiveSpec,
    pub(crate) cancel: CancelToken,
    pub(crate) resume: Option<Checkpoint>,
    pub(crate) metrics: MetricsHandle,
}

impl<'a> SolveRequest<'a> {
    /// Start building a request for `inst`.
    pub fn builder(inst: &'a ObmInstance) -> SolveRequestBuilder<'a> {
        SolveRequestBuilder {
            inst,
            algorithms: Vec::new(),
            seeds: Vec::new(),
            budget: SolveBudget::unlimited(),
            workers: obm_core::pool::default_workers(),
            aggressive_pruning: false,
            objective: ObjectiveSpec::default(),
            cancel: CancelToken::never(),
            resume: None,
            metrics: MetricsHandle::disabled(),
        }
    }

    /// Run the portfolio without telemetry.
    pub fn solve(&self) -> SolveOutcome {
        engine::run(self, &mut NoopSink)
    }

    /// Run the portfolio, streaming buffered portfolio/solver events to
    /// `probe` in deterministic task-rank order after the race settles.
    pub fn solve_probed(&self, probe: &mut dyn Probe) -> SolveOutcome {
        engine::run(self, probe)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured budget.
    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// The cancellation token observed by every task (cancel it from
    /// another thread to stop the whole race).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The objective every task is scored (and, for non-default
    /// objectives, polished) under.
    pub fn objective(&self) -> ObjectiveSpec {
        self.objective
    }
}

/// Builder for [`SolveRequest`] (the PR 2 builder-validation convention:
/// all invariants checked in [`build`](SolveRequestBuilder::build), which
/// returns a typed [`RequestError`] instead of panicking later).
#[derive(Debug, Clone)]
pub struct SolveRequestBuilder<'a> {
    inst: &'a ObmInstance,
    algorithms: Vec<Algorithm>,
    seeds: Vec<u64>,
    budget: SolveBudget,
    workers: usize,
    aggressive_pruning: bool,
    objective: ObjectiveSpec,
    cancel: CancelToken,
    resume: Option<Checkpoint>,
    metrics: MetricsHandle,
}

impl<'a> SolveRequestBuilder<'a> {
    /// Add one algorithm to the line-up.
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.algorithms.push(algo);
        self
    }

    /// Add several algorithms.
    pub fn algorithms(mut self, algos: impl IntoIterator<Item = Algorithm>) -> Self {
        self.algorithms.extend(algos);
        self
    }

    /// Add one seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Add several seeds. Seed-sensitive algorithms get one task per
    /// seed; deterministic algorithms get a single task.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Set the whole budget at once.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Set a wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Set the deterministic evaluation cap.
    pub fn max_evaluations(mut self, evals: u64) -> Self {
        self.budget.max_evaluations = Some(evals);
        self
    }

    /// Set the worker-thread count (default: available parallelism,
    /// capped at 8). The result is bit-identical for any worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Observe an external cancellation token (share it with another
    /// thread and call `cancel()` there to stop the race).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Score (and polish) every task under `objective` instead of the
    /// default min-max APL. With [`ObjectiveSpec::MinMaxApl`] the race is
    /// bit-identical to the pre-objective engine; any other objective
    /// re-ranks the merge by its scalar, polishes each task's mapping
    /// with a deterministic exchange refinement, and disables the shared
    /// incumbent bound for exact tasks (branch-and-bound prunes on
    /// max-APL internally, which is no longer the racing objective).
    pub fn objective(mut self, objective: ObjectiveSpec) -> Self {
        self.objective = objective;
        self
    }

    /// Let exact (branch-and-bound) tasks prune against the live shared
    /// incumbent. Off by default: the live bound depends on scheduling,
    /// so switching this on trades bit-for-bit reproducibility of the
    /// *proof path* for speed (the winning objective value is unaffected;
    /// see DESIGN.md §10.2).
    pub fn aggressive_pruning(mut self, on: bool) -> Self {
        self.aggressive_pruning = on;
        self
    }

    /// Resume from a previous run's checkpoint: completed tasks recorded
    /// there are injected instead of re-run. The checkpoint's fingerprint
    /// must match this request (instance + task list), or `solve` falls
    /// back to running everything (the mismatch is surfaced in the
    /// outcome's stats).
    pub fn resume(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Report runtime metrics (task counts, evaluation totals, per-task
    /// spans — DESIGN.md §17) into `handle`'s registry. Metrics are
    /// write-only observers: the winner, stats and checkpoint are
    /// bit-identical with metrics enabled or disabled (the default).
    pub fn metrics(mut self, handle: MetricsHandle) -> Self {
        self.metrics = handle;
        self
    }

    /// Validate and freeze the request.
    pub fn build(self) -> Result<SolveRequest<'a>, RequestError> {
        if self.algorithms.is_empty() {
            return Err(RequestError::NoAlgorithms);
        }
        if self.seeds.is_empty() {
            return Err(RequestError::NoSeeds);
        }
        if self.workers == 0 {
            return Err(RequestError::ZeroWorkers);
        }
        for algo in &self.algorithms {
            if let Err(source) = algo.validate() {
                return Err(RequestError::Algorithm {
                    algo: algo.name(),
                    source,
                });
            }
        }
        Ok(SolveRequest {
            inst: self.inst,
            algorithms: self.algorithms,
            seeds: self.seeds,
            budget: self.budget,
            workers: self.workers,
            aggressive_pruning: self.aggressive_pruning,
            objective: self.objective,
            cancel: self.cancel,
            resume: self.resume,
            metrics: self.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn tiny_instance() -> ObmInstance {
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        ObmInstance::new(tiles, vec![0, 2, 4], vec![0.1, 0.2, 0.3, 0.4], vec![0.0; 4])
    }

    #[test]
    fn builder_rejects_empty_and_zero_configurations() {
        let inst = tiny_instance();
        assert_eq!(
            SolveRequest::builder(&inst).seed(1).build().err(),
            Some(RequestError::NoAlgorithms)
        );
        assert_eq!(
            SolveRequest::builder(&inst)
                .algorithm(Algorithm::BalancedGreedy)
                .build()
                .err(),
            Some(RequestError::NoSeeds)
        );
        assert_eq!(
            SolveRequest::builder(&inst)
                .algorithm(Algorithm::BalancedGreedy)
                .seed(1)
                .workers(0)
                .build()
                .err(),
            Some(RequestError::ZeroWorkers)
        );
    }

    #[test]
    fn builder_surfaces_algorithm_budget_violations() {
        let inst = tiny_instance();
        let err = SolveRequest::builder(&inst)
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: 0,
                ..SimulatedAnnealing::default()
            }))
            .seed(1)
            .build()
            .err();
        match err {
            Some(RequestError::Algorithm { algo, source }) => {
                assert_eq!(algo, "SA");
                assert_eq!(source, BudgetError::ZeroIterations);
            }
            other => panic!("expected Algorithm error, got {other:?}"),
        }
        let msg = SolveRequest::builder(&inst)
            .algorithm(Algorithm::MonteCarlo(MonteCarlo {
                samples: 0,
                workers: 1,
            }))
            .seed(1)
            .build()
            .expect_err("zero samples must be rejected")
            .to_string();
        assert!(msg.contains("MC"), "unhelpful message: {msg}");
        assert!(msg.contains("sample budget"), "unhelpful message: {msg}");
    }

    #[test]
    fn seeded_classification_matches_algorithm_semantics() {
        assert!(!Algorithm::SortSelectSwap(SortSelectSwap::default()).seeded());
        assert!(!Algorithm::BalancedGreedy.seeded());
        assert!(!Algorithm::Exact(BranchAndBound::default()).seeded());
        assert!(Algorithm::SimulatedAnnealing(SimulatedAnnealing::default()).seeded());
        assert!(Algorithm::HybridSssSa(HybridSssSa::default()).seeded());
        assert!(Algorithm::MonteCarlo(MonteCarlo::default()).seeded());
    }

    #[test]
    fn clamping_shrinks_iteration_driven_algorithms_only() {
        let inst = tiny_instance();
        let sa = Algorithm::SimulatedAnnealing(SimulatedAnnealing {
            iterations: 10_000,
            restarts: 2,
            ..SimulatedAnnealing::default()
        });
        match sa.clamped_to(5_000, &inst) {
            Some(Algorithm::SimulatedAnnealing(c)) => {
                assert_eq!(c.iterations, 2_500);
                assert_eq!(c.restarts, 2);
            }
            other => panic!("expected clamped SA, got {other:?}"),
        }
        // Too small to give every restart one iteration: dropped.
        assert!(sa.clamped_to(1, &inst).is_none());
        let sss = Algorithm::SortSelectSwap(SortSelectSwap::default());
        // All-or-nothing: fits whole or not at all.
        assert!(sss.clamped_to(sss.nominal_evals(&inst), &inst).is_some());
        assert!(sss
            .clamped_to(sss.nominal_evals(&inst) - 1, &inst)
            .is_none());
    }
}
