//! The deterministic parallel race.
//!
//! # Determinism model
//!
//! The engine's contract (pinned by `tests/portfolio.rs` at the facade):
//! for a fixed request, the winning mapping, its objective, the stats
//! table, and the replayed event stream are **bit-identical for any
//! worker count** — 1, 2 or 8 threads, with or without work stealing
//! jitter. Three rules make that hold:
//!
//! 1. **Task list and budgets are fixed before anything runs.** The
//!    (algorithm × seed) expansion and the `max_evaluations` clamp both
//!    happen sequentially in task-rank order, so no task's budget depends
//!    on scheduling.
//! 2. **Merge by (value, task-rank), never arrival order.** Workers of
//!    `obm_core::pool` claim tasks from a shared counter and finish in
//!    any order; results come back in task order and are merged by a
//!    sequential scan that prefers strictly-smaller objectives
//!    (`f64::total_cmp`), so ties break toward the lowest rank
//!    regardless of who finished first.
//! 3. **Cancelled work contributes nothing.** A task interrupted by the
//!    deadline or the caller's token returns `None` and is excluded
//!    entirely — partial work is never merged, so the only
//!    non-determinism a deadline can introduce is *which* tasks finished,
//!    surfaced honestly as `Termination::Deadline`.
//!
//! The shared incumbent (an atomic `f64`-bits min) is telemetry by
//! default; only `Algorithm::Exact` consumes it, and only under
//! `aggressive_pruning` (see DESIGN.md §10.2). Events are buffered
//! per-task and replayed in rank order after the race, with incumbent
//! values recomputed during the replay — the emitted stream matches what
//! a sequential run would have produced.
//!
//! SSS ignores its seed, so one race runs each distinct SSS configuration
//! once: the SSS task and every SSS+SA hybrid with that configuration
//! share the pass's mapping and buffered events ([`SharedSss`], DESIGN.md
//! §10.6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use noc_telemetry::{Probe, SolverEvent};
use obm_core::algorithms::{BalancedGreedy, Mapper, SortSelectSwap, OBJECTIVE_REFINE_PASSES};
use obm_core::{
    evaluate, refine_for_objective, BatchEvaluator, CancelToken, Mapping, ObjectiveSpec,
    ObmInstance,
};

use crate::checkpoint::{mapping_from_tiles, Checkpoint, CompletedTask, Fingerprint};
use crate::outcome::{task_span_path, SolveOutcome, SolveStats, Termination};
use crate::request::{Algorithm, SolveRequest};

/// One (algorithm × seed) unit of work, identified by its rank.
struct Task {
    rank: u64,
    algo: Algorithm,
    name: &'static str,
    seed: u64,
    /// Evaluations budgeted after deterministic clamping.
    evals: u64,
    /// The evaluation cap left no room for this task at all.
    dropped: bool,
    /// Injected from a resume checkpoint instead of being run.
    resumed: Option<(f64, Mapping)>,
}

/// What a finished task hands to the merge.
struct TaskResult {
    value: f64,
    mapping: Mapping,
    events: Vec<SolverEvent>,
}

/// Atomic minimum over `f64` bit patterns (the shared incumbent bound).
struct SharedBound(AtomicU64);

impl SharedBound {
    fn new() -> Self {
        SharedBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update_min(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v.total_cmp(&f64::from_bits(cur)) == std::cmp::Ordering::Less {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Per-task event buffer: records inner solver events for rank-ordered
/// replay after the race (never forwarded live — live forwarding would
/// interleave tasks in arrival order).
struct BufferProbe {
    enabled: bool,
    events: Vec<SolverEvent>,
}

impl Probe for BufferProbe {
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn on_solver_event(&mut self, event: &SolverEvent) {
        if self.enabled {
            self.events.push(event.clone());
        }
    }
}

/// One SSS pass per distinct [`SortSelectSwap`] configuration in a race.
/// SSS ignores its seed, so the SSS task and every hybrid with this
/// configuration would compute the same mapping and events; the first
/// task to need them runs the pass and the others block on the
/// `OnceLock` until it is done.
struct SharedSss {
    cfg: SortSelectSwap,
    /// The pass's mapping (`None`: the token fired during the pass) and
    /// its buffered solver events.
    pass: OnceLock<(Option<Mapping>, Vec<SolverEvent>)>,
}

/// The SSS configuration a task starts from, if it runs an SSS pass.
fn sss_config(algo: &Algorithm) -> Option<SortSelectSwap> {
    match algo {
        Algorithm::SortSelectSwap(cfg) => Some(*cfg),
        Algorithm::HybridSssSa(h) => Some(h.sss),
        _ => None,
    }
}

/// Run one task into `buf`. SSS and hybrid tasks take their SSS pass from
/// `shared` (running it if no task has yet) and copy its events; the
/// hybrid then anneals from the pass's mapping. The result equals
/// `t.algo.run`'s, which the other algorithms go through.
fn run_task(
    t: &Task,
    inst: &ObmInstance,
    token: &CancelToken,
    buf: &mut BufferProbe,
    incumbent: Option<f64>,
    shared: &[SharedSss],
) -> Option<Mapping> {
    let entry = sss_config(&t.algo).and_then(|cfg| shared.iter().find(|s| s.cfg == cfg));
    let Some(entry) = entry else {
        return t.algo.run(inst, t.seed, token, buf, incumbent);
    };
    let (mapping, events) = entry.pass.get_or_init(|| {
        let mut pass = BufferProbe {
            enabled: buf.enabled,
            events: Vec::new(),
        };
        let m = entry.cfg.map_cancellable(inst, t.seed, token, &mut pass);
        (m, pass.events)
    });
    buf.events.extend_from_slice(events);
    let init = mapping.clone()?;
    match &t.algo {
        Algorithm::HybridSssSa(h) => h.refine(inst, init, t.seed, token),
        _ => Some(init),
    }
}

/// Expand algorithms × seeds into ranked tasks and apply the
/// deterministic evaluation-budget clamp. Returns the task list and
/// whether the clamp modified or dropped anything.
fn plan(req: &SolveRequest<'_>) -> (Vec<Task>, bool) {
    let inst = req.inst;
    let mut tasks = Vec::new();
    let mut rank = 0u64;
    for algo in &req.algorithms {
        // Unseeded algorithms produce the same mapping for every seed;
        // racing copies would burn budget on identical work.
        let seeds: &[u64] = if algo.seeded() {
            &req.seeds
        } else {
            &req.seeds[..1]
        };
        for &seed in seeds {
            tasks.push(Task {
                rank,
                algo: *algo,
                name: algo.name(),
                seed,
                evals: algo.nominal_evals(inst),
                dropped: false,
                resumed: None,
            });
            rank += 1;
        }
    }
    let mut clamped = false;
    if let Some(cap) = req.budget.max_evaluations {
        let mut remaining = cap;
        for t in &mut tasks {
            match t.algo.clamped_to(remaining, inst) {
                Some(a) => {
                    let evals = a.nominal_evals(inst);
                    clamped |= evals < t.evals;
                    t.algo = a;
                    t.evals = evals;
                    remaining -= evals;
                }
                None => {
                    t.dropped = true;
                    t.evals = 0;
                    clamped = true;
                }
            }
        }
    }
    (tasks, clamped)
}

/// Fingerprint of (instance, task list): what a checkpoint must match to
/// be resumable. Hashes the full algorithm configuration (via its `Debug`
/// form — derived, covers every field) so e.g. two SA line-ups differing
/// only in cooling schedule do not share checkpoints. A non-default
/// objective is hashed in too (a checkpoint scored under one objective
/// must not resume a race under another); the default is deliberately
/// *not* hashed, so checkpoints written before objectives existed keep
/// resuming min-max requests.
fn fingerprint(inst: &ObmInstance, tasks: &[Task], objective: ObjectiveSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.instance(inst);
    for t in tasks {
        let cfg = format!("{:?}", t.algo);
        fp.str(&cfg);
        fp.u64(t.seed);
        fp.u64(t.evals);
        fp.u64(t.dropped as u64);
    }
    if !objective.is_min_max_apl() {
        fp.str(&format!("objective:{objective:?}"));
    }
    fp.finish()
}

/// Score `mapping` under the request's objective. The default
/// [`ObjectiveSpec::MinMaxApl`] keeps the engine's historical scoring
/// path (the batched evaluator's `max_apl`, bit-identical to
/// `evaluate`); anything else dispatches through the spec.
fn score(inst: &ObmInstance, objective: ObjectiveSpec, mapping: &Mapping) -> f64 {
    if objective.is_min_max_apl() {
        BatchEvaluator::new(inst).eval_one(mapping).max_apl
    } else {
        objective.score(inst, mapping)
    }
}

pub(crate) fn run(req: &SolveRequest<'_>, probe: &mut dyn Probe) -> SolveOutcome {
    let inst = req.inst;
    let objective = req.objective;
    let min_max = objective.is_min_max_apl();
    let (mut tasks, clamped) = plan(req);
    let fp = fingerprint(inst, &tasks, objective);

    // Inject completed tasks from a matching checkpoint. The stored
    // mappings are re-scored in one `eval_many` batch — re-evaluating
    // instead of trusting the stored objectives keeps a tampered/stale
    // value from steering the merge (bit-identical to per-mapping
    // `evaluate`, so resumed outcomes match the original run).
    let mut resume_rejected = false;
    if let Some(cp) = &req.resume {
        if cp.fingerprint == fp {
            let mut injected: Vec<(usize, Mapping)> = Vec::new();
            for (i, t) in tasks.iter().enumerate() {
                if t.dropped {
                    continue;
                }
                if let Some(entry) = cp.entry(t.rank, t.name, t.seed, inst.num_threads()) {
                    if let Some(m) = mapping_from_tiles(&entry.mapping, inst.num_tiles()) {
                        injected.push((i, m));
                    }
                }
            }
            if !injected.is_empty() {
                if min_max {
                    let batch: Vec<Mapping> = injected.iter().map(|(_, m)| m.clone()).collect();
                    let reports = BatchEvaluator::new(inst).eval_many(&batch);
                    for ((i, m), r) in injected.into_iter().zip(reports) {
                        tasks[i].resumed = Some((r.max_apl, m));
                    }
                } else {
                    // Checkpointed mappings are post-polish; re-scoring
                    // under the (fingerprint-matched) objective suffices.
                    for (i, m) in injected {
                        let v = score(inst, objective, &m);
                        tasks[i].resumed = Some((v, m));
                    }
                }
            }
        } else {
            resume_rejected = true;
        }
    }

    let token = match req.budget.deadline {
        Some(d) => req.cancel.with_deadline_in(d),
        None => req.cancel.clone(),
    };

    let bound = SharedBound::new();
    for t in &tasks {
        if let Some((v, _)) = &t.resumed {
            bound.update_min(*v);
        }
    }

    // Race the tasks that still need running.
    let runnable: Vec<usize> = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.dropped && t.resumed.is_none())
        .map(|(i, _)| i)
        .collect();
    let mut shared: Vec<SharedSss> = Vec::new();
    for &i in &runnable {
        if let Some(cfg) = sss_config(&tasks[i].algo) {
            if shared.iter().all(|s| s.cfg != cfg) {
                shared.push(SharedSss {
                    cfg,
                    pass: OnceLock::new(),
                });
            }
        }
    }
    if !runnable.is_empty() {
        // Build the instance's eval tables once before the race so no
        // worker pays (or double-pays) the one-off build inside its
        // timed region.
        let _ = inst.eval_tables();
    }
    let capture = probe.is_enabled();
    let metrics = &req.metrics;
    let aggressive = req.aggressive_pruning;
    let fresh = obm_core::pool::run_indexed(req.workers, runnable.len(), |i| {
        let t = &tasks[runnable[i]];
        // One aggregated span per task identity: the task's wall time,
        // recorded on drop and read back only by reports.
        let _task_span = metrics
            .enabled()
            .then(|| metrics.span(&task_span_path(t.name, t.seed)));
        let mut buf = BufferProbe {
            enabled: capture,
            events: Vec::new(),
        };
        // The shared bound and branch-and-bound both prune on max-APL, so
        // the incumbent is only sound when that is the racing objective.
        let incumbent = (aggressive && min_max)
            .then(|| bound.load())
            .filter(|b| b.is_finite());
        let m = run_task(t, inst, &token, &mut buf, incumbent, &shared)?;
        // Every algorithm searches the min-max landscape natively; under
        // another objective each result is polished by the same
        // deterministic exchange refinement `Mapper::map_objective` uses,
        // then scored by the objective's scalar.
        let m = if min_max {
            m
        } else {
            let obj = objective.build();
            refine_for_objective(inst, m, obj.as_ref(), OBJECTIVE_REFINE_PASSES)
        };
        let value = score(inst, objective, &m);
        bound.update_min(value);
        Some(TaskResult {
            value,
            mapping: m,
            events: buf.events,
        })
    });

    // Collect per-task results: fresh runs from the race, resumed tasks
    // from the checkpoint.
    let mut results: Vec<Option<TaskResult>> = tasks.iter().map(|_| None).collect();
    for (r, &task_idx) in fresh.into_iter().zip(&runnable) {
        results[task_idx] = r;
    }
    for (i, t) in tasks.iter().enumerate() {
        if let Some((value, m)) = &t.resumed {
            results[i] = Some(TaskResult {
                value: *value,
                mapping: m.clone(),
                events: Vec::new(),
            });
        }
    }

    // Merge by (value, task-rank): sequential scan in rank order,
    // replaced only on a strictly smaller objective.
    let mut best: Option<(f64, usize)> = None;
    for (i, r) in results.iter().enumerate() {
        if let Some(r) = r {
            let better = match best {
                None => true,
                Some((bv, _)) => r.value.total_cmp(&bv) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some((r.value, i));
            }
        }
    }

    // Replay events in rank order with recomputed incumbents (the stream
    // a sequential run would have emitted).
    if probe.is_enabled() {
        let mut replay_incumbent = f64::INFINITY;
        for (i, t) in tasks.iter().enumerate() {
            let Some(r) = &results[i] else { continue };
            probe.on_solver_event(&SolverEvent::WorkerStarted {
                task: t.rank,
                algo: t.name.to_string(),
                seed: t.seed,
                incumbent: replay_incumbent,
            });
            for e in &r.events {
                probe.on_solver_event(e);
            }
            if r.value.total_cmp(&replay_incumbent) == std::cmp::Ordering::Less {
                replay_incumbent = r.value;
                probe.on_solver_event(&SolverEvent::IncumbentImproved {
                    task: t.rank,
                    objective: r.value,
                });
            } else {
                probe.on_solver_event(&SolverEvent::WorkerPruned {
                    task: t.rank,
                    objective: r.value,
                    incumbent: replay_incumbent,
                });
            }
        }
    }

    let stats: Vec<SolveStats> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| SolveStats {
            task: t.rank,
            algo: t.name,
            seed: t.seed,
            objective: results[i].as_ref().map(|r| r.value),
            evaluations: t.evals,
            resumed: t.resumed.is_some(),
        })
        .collect();

    // Publish run-level metrics (DESIGN.md §17). This happens after the
    // merge and is write-only, so it can never feed back into the
    // winner, the stats, or the checkpoint.
    let metrics = &req.metrics;
    if metrics.enabled() {
        metrics.inc("portfolio_solves_total");
        metrics.add("portfolio_tasks_total", tasks.len() as u64);
        let completed_evals: u64 = stats
            .iter()
            .filter(|s| s.objective.is_some())
            .map(|s| s.evaluations)
            .sum();
        metrics.add("portfolio_evals_total", completed_evals);
        let sss_passes = shared.iter().filter(|s| s.pass.get().is_some()).count();
        metrics.add("portfolio_sss_passes_total", sss_passes as u64);
        // Incumbent improvements as a sequential rank-order scan — the
        // same stream the probe replay emits, counted unconditionally.
        let mut incumbent = f64::INFINITY;
        let mut improvements = 0u64;
        for r in results.iter().flatten() {
            if r.value.total_cmp(&incumbent) == std::cmp::Ordering::Less {
                incumbent = r.value;
                improvements += 1;
            }
        }
        metrics.add("portfolio_incumbent_improvements_total", improvements);
        metrics.gauge_set("portfolio_workers", req.workers as f64);
    }

    let checkpoint = Checkpoint {
        fingerprint: fp,
        completed: tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                results[i].as_ref().map(|r| CompletedTask {
                    task: t.rank,
                    algo: t.name.to_string(),
                    seed: t.seed,
                    objective: r.value,
                    evaluations: t.evals,
                    mapping: r.mapping.as_slice().iter().map(|k| k.0).collect(),
                })
            })
            .collect(),
    };

    let any_interrupted = runnable.iter().any(|&task_idx| results[task_idx].is_none());
    let termination = if req.cancel.cancelled_by_flag() {
        Termination::Cancelled
    } else if any_interrupted && req.budget.deadline.is_some() {
        Termination::Deadline
    } else if clamped {
        Termination::BudgetExhausted
    } else {
        Termination::Completed
    };

    match best {
        Some((value, i)) => {
            let Some(r) = results[i].take() else {
                // Unreachable by construction (best indexes a Some);
                // degrade to the fallback rather than panic.
                return fallback_outcome(
                    inst,
                    objective,
                    termination,
                    stats,
                    checkpoint,
                    resume_rejected,
                );
            };
            SolveOutcome {
                mapping: r.mapping,
                objective: value,
                winner: tasks[i].name,
                winner_seed: tasks[i].seed,
                termination,
                stats,
                fallback: false,
                resume_rejected,
                checkpoint,
            }
        }
        None => fallback_outcome(
            inst,
            objective,
            termination,
            stats,
            checkpoint,
            resume_rejected,
        ),
    }
}

/// Nothing finished (deadline or cancellation beat every task): return
/// the deterministic fallback, `BalancedGreedy` at seed 0, so callers
/// always get a valid mapping (scored under the request's objective).
fn fallback_outcome(
    inst: &ObmInstance,
    spec: ObjectiveSpec,
    termination: Termination,
    stats: Vec<SolveStats>,
    checkpoint: Checkpoint,
    resume_rejected: bool,
) -> SolveOutcome {
    let mapping = BalancedGreedy.map(inst, 0);
    let objective = if spec.is_min_max_apl() {
        evaluate(inst, &mapping).max_apl
    } else {
        spec.score(inst, &mapping)
    };
    SolveOutcome {
        mapping,
        objective,
        winner: "Greedy",
        winner_seed: 0,
        termination,
        stats,
        fallback: true,
        resume_rejected,
        checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SolveBudget;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
    use noc_telemetry::{Record, RingSink};
    use obm_core::algorithms::{HybridSssSa, MonteCarlo, SimulatedAnnealing, SortSelectSwap};

    fn fig5_instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    fn quick_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::SortSelectSwap(SortSelectSwap::default()),
            Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: 2_000,
                ..SimulatedAnnealing::default()
            }),
            Algorithm::MonteCarlo(MonteCarlo {
                samples: 500,
                workers: 1,
            }),
        ]
    }

    #[test]
    fn plan_dedups_unseeded_algorithms() {
        let inst = fig5_instance();
        let req = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .algorithm(Algorithm::BalancedGreedy)
            .seeds([1, 2, 3])
            .build()
            .expect("valid");
        let (tasks, clamped) = plan(&req);
        // SSS and Greedy are unseeded (1 task each); SA and MC get 3 each.
        assert_eq!(tasks.len(), 1 + 3 + 3 + 1);
        assert!(!clamped);
        assert_eq!(tasks.iter().filter(|t| t.name == "SSS").count(), 1);
        assert_eq!(tasks.iter().filter(|t| t.name == "Greedy").count(), 1);
        assert_eq!(tasks.iter().filter(|t| t.name == "SA").count(), 3);
        // Ranks are dense and ordered.
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.rank, i as u64);
        }
    }

    #[test]
    fn one_tile_chip_counts_no_annealing_evaluations() {
        let mesh = Mesh::square(1);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 1], vec![0.4], vec![0.0]);
        let out = SolveRequest::builder(&inst)
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing::default()))
            .algorithm(Algorithm::HybridSssSa(HybridSssSa::default()))
            .seed(1)
            .build()
            .expect("valid")
            .solve();
        assert_eq!(out.termination, Termination::Completed);
        let [sa, hybrid] = &out.stats[..] else {
            panic!("expected two tasks, got {:?}", out.stats);
        };
        assert_eq!((sa.algo, sa.evaluations), ("SA", 0));
        assert_eq!((hybrid.algo, hybrid.evaluations), ("SSS+SA", 1));
    }

    #[test]
    fn plan_clamps_in_rank_order_and_drops_what_does_not_fit() {
        let inst = fig5_instance();
        let req = SolveRequest::builder(&inst)
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: 2_000,
                ..SimulatedAnnealing::default()
            }))
            .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
            .seeds([1, 2])
            .max_evaluations(2_500)
            .build()
            .expect("valid");
        let (tasks, clamped) = plan(&req);
        assert!(clamped);
        // SA seed 1 fits whole (2000), SA seed 2 is clamped to 500, and
        // SSS (nominal 256) is all-or-nothing with nothing left.
        assert_eq!(tasks[0].evals, 2_000);
        assert!(!tasks[0].dropped);
        assert_eq!(tasks[1].evals, 500);
        assert!(!tasks[1].dropped);
        assert!(tasks[2].dropped);
        assert_eq!(tasks[2].evals, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let inst = fig5_instance();
        let base = |workers: usize| {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seeds([7, 11, 13])
                .workers(workers)
                .build()
                .expect("valid")
                .solve()
        };
        let one = base(1);
        let two = base(2);
        let four = base(4);
        assert_eq!(one.termination, Termination::Completed);
        for other in [&two, &four] {
            assert_eq!(other.mapping.as_slice(), one.mapping.as_slice());
            assert_eq!(other.objective.to_bits(), one.objective.to_bits());
            assert_eq!(other.winner, one.winner);
            assert_eq!(other.winner_seed, one.winner_seed);
            assert_eq!(other.checkpoint, one.checkpoint);
            assert_eq!(other.stats.len(), one.stats.len());
            for (a, b) in one.stats.iter().zip(other.stats.iter()) {
                assert_eq!(a.objective.map(f64::to_bits), b.objective.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn event_replay_is_rank_ordered_and_worker_count_invariant() {
        let inst = fig5_instance();
        let events = |workers: usize| {
            let mut sink = RingSink::new(1 << 20);
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seeds([7, 11])
                .workers(workers)
                .build()
                .expect("valid")
                .solve_probed(&mut sink);
            sink.records().cloned().collect::<Vec<_>>()
        };
        let one = events(1);
        let four = events(4);
        assert_eq!(one, four);
        // The stream opens with task 0's WorkerStarted at an infinite
        // incumbent and contains one terminal event per task.
        let solver: Vec<&SolverEvent> = one
            .iter()
            .filter_map(|r| match r {
                Record::Solver(e) => Some(e),
                _ => None,
            })
            .collect();
        match solver.first() {
            Some(SolverEvent::WorkerStarted {
                task, incumbent, ..
            }) => {
                assert_eq!(*task, 0);
                assert!(incumbent.is_infinite());
            }
            other => panic!("stream must open with WorkerStarted, got {other:?}"),
        }
        let terminals = solver
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SolverEvent::IncumbentImproved { .. } | SolverEvent::WorkerPruned { .. }
                )
            })
            .count();
        assert_eq!(terminals, 5); // SSS + SA×{7,11} + MC×{7,11}
    }

    #[test]
    fn pre_cancelled_token_yields_deterministic_fallback() {
        let inst = fig5_instance();
        let token = CancelToken::new();
        token.cancel();
        let outcome = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seed(1)
            .cancel_token(token)
            .build()
            .expect("valid")
            .solve();
        assert_eq!(outcome.termination, Termination::Cancelled);
        assert!(outcome.fallback);
        assert_eq!(outcome.winner, "Greedy");
        let greedy = BalancedGreedy.map(&inst, 0);
        assert_eq!(outcome.mapping.as_slice(), greedy.as_slice());
        assert!(outcome.stats.iter().all(|s| s.objective.is_none()));
        assert!(outcome.checkpoint.completed.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_reported_and_deterministic() {
        let inst = fig5_instance();
        let solve = |workers: usize| {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seeds([3, 5])
                .workers(workers)
                .budget(SolveBudget::unlimited().with_max_evaluations(2_600))
                .build()
                .expect("valid")
                .solve()
        };
        let one = solve(1);
        let four = solve(4);
        assert_eq!(one.termination, Termination::BudgetExhausted);
        assert_eq!(one.mapping.as_slice(), four.mapping.as_slice());
        assert_eq!(one.objective.to_bits(), four.objective.to_bits());
        // Dropped tasks surface as evaluations == 0 with no objective.
        assert!(one
            .stats
            .iter()
            .any(|s| s.evaluations == 0 && s.objective.is_none()));
    }

    #[test]
    fn resume_injects_completed_tasks_without_rerunning() {
        let inst = fig5_instance();
        let build = || {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seeds([7, 11])
        };
        let first = build().build().expect("valid").solve();
        assert_eq!(first.termination, Termination::Completed);
        let resumed = build()
            .resume(first.checkpoint.clone())
            .build()
            .expect("valid")
            .solve();
        assert!(!resumed.resume_rejected);
        assert!(resumed.stats.iter().all(|s| s.resumed));
        assert_eq!(resumed.mapping.as_slice(), first.mapping.as_slice());
        assert_eq!(resumed.objective.to_bits(), first.objective.to_bits());
        assert_eq!(resumed.winner, first.winner);
        // Round-tripping the checkpoint through JSON changes nothing.
        let text = first.checkpoint.to_json();
        let parsed = Checkpoint::from_json(&text).expect("parse");
        let rejson = build().resume(parsed).build().expect("valid").solve();
        assert_eq!(rejson.objective.to_bits(), first.objective.to_bits());
    }

    #[test]
    fn malformed_checkpoint_entries_are_rerun() {
        let inst = fig5_instance();
        let build = || {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seed(7)
        };
        let first = build().build().expect("valid").solve();
        let mut cp = first.checkpoint.clone();
        // Entry 0 repeats a tile, entry 1 names a tile off the chip; the
        // rest stay intact.
        cp.completed[0].mapping[1] = cp.completed[0].mapping[0];
        cp.completed[1].mapping[0] = inst.num_tiles();
        let bad = [cp.completed[0].task, cp.completed[1].task];
        let resumed = build().resume(cp).build().expect("valid").solve();
        assert!(!resumed.resume_rejected);
        assert_eq!(resumed.termination, Termination::Completed);
        for s in &resumed.stats {
            assert_eq!(s.resumed, !bad.contains(&s.task), "task {}", s.task);
        }
        assert_eq!(resumed.mapping.as_slice(), first.mapping.as_slice());
        assert_eq!(resumed.objective.to_bits(), first.objective.to_bits());
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_and_rerun() {
        let inst = fig5_instance();
        let first = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seed(7)
            .build()
            .expect("valid")
            .solve();
        // Different seed list ⇒ different fingerprint.
        let outcome = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seed(8)
            .resume(first.checkpoint)
            .build()
            .expect("valid")
            .solve();
        assert!(outcome.resume_rejected);
        assert!(outcome.stats.iter().all(|s| !s.resumed));
        assert_eq!(outcome.termination, Termination::Completed);
    }

    #[test]
    fn objective_spec_rescores_the_race_deterministically() {
        let inst = fig5_instance();
        let solve = |spec: ObjectiveSpec, workers: usize| {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .seeds([7])
                .workers(workers)
                .objective(spec)
                .build()
                .expect("valid")
                .solve()
        };
        // Non-default objective: still worker-count invariant, and the
        // reported objective is the spec's scalar on the winner.
        let bal1 = solve(ObjectiveSpec::MaxMinBalance, 1);
        let bal4 = solve(ObjectiveSpec::MaxMinBalance, 4);
        assert_eq!(bal1.mapping.as_slice(), bal4.mapping.as_slice());
        assert_eq!(bal1.objective.to_bits(), bal4.objective.to_bits());
        assert_eq!(
            bal1.objective.to_bits(),
            ObjectiveSpec::MaxMinBalance
                .score(&inst, &bal1.mapping)
                .to_bits()
        );
        // Default-objective checkpoints keep their pre-objective
        // fingerprints (resume works without naming an objective)…
        let plain = solve(ObjectiveSpec::MinMaxApl, 2);
        let resumed = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seeds([7])
            .resume(plain.checkpoint.clone())
            .build()
            .expect("valid")
            .solve();
        assert!(!resumed.resume_rejected);
        assert_eq!(resumed.objective.to_bits(), plain.objective.to_bits());
        // …while a balance-scored checkpoint must not resume a min-max
        // race (different fingerprint ⇒ rejected and re-run).
        let cross = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seeds([7])
            .resume(bal1.checkpoint.clone())
            .build()
            .expect("valid")
            .solve();
        assert!(cross.resume_rejected);
        // And a balance-objective request resumes its own checkpoint.
        let bal_resume = SolveRequest::builder(&inst)
            .algorithms(quick_lineup())
            .seeds([7])
            .objective(ObjectiveSpec::MaxMinBalance)
            .resume(bal1.checkpoint.clone())
            .build()
            .expect("valid")
            .solve();
        assert!(!bal_resume.resume_rejected);
        assert_eq!(bal_resume.objective.to_bits(), bal1.objective.to_bits());
    }

    #[test]
    fn shared_bound_is_a_total_order_min() {
        let b = SharedBound::new();
        assert!(b.load().is_infinite());
        b.update_min(5.0);
        assert_eq!(b.load(), 5.0);
        b.update_min(7.0);
        assert_eq!(b.load(), 5.0);
        b.update_min(4.5);
        assert_eq!(b.load(), 4.5);
        b.update_min(f64::NAN);
        assert_eq!(b.load(), 4.5); // NaN sorts above numbers in total_cmp
    }

    #[test]
    fn aggressive_pruning_keeps_the_winning_objective() {
        let inst = fig5_instance();
        let solve = |aggressive: bool| {
            SolveRequest::builder(&inst)
                .algorithms(quick_lineup())
                .algorithm(Algorithm::Exact(obm_core::algorithms::BranchAndBound {
                    node_budget: 200_000,
                }))
                .seed(7)
                .workers(2)
                .aggressive_pruning(aggressive)
                .build()
                .expect("valid")
                .solve()
        };
        let plain = solve(false);
        let pruned = solve(true);
        assert_eq!(plain.objective.to_bits(), pruned.objective.to_bits());
    }
}
