//! Facade-level integration tests for the portfolio engine: the
//! determinism contract (worker count never changes the answer, and a
//! 1-worker race is bit-identical to the sequential best-of loop it
//! replaces), budget/deadline/cancellation semantics, checkpoint
//! resume, and the race's shared SSS pass (identical to running every
//! task alone) — all through the public `obm::prelude` API.

use std::time::Duration;

use obm::mapping::algorithms::{
    BalancedGreedy, HybridSssSa, Mapper, SimulatedAnnealing, SortSelectSwap,
};
use obm::mapping::{evaluate, CancelToken, Mapping, ObjectiveSpec, ObmInstance};
use obm::metrics::MetricsRegistry;
use obm::model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
use obm::portfolio::CompletedTask;
use obm::prelude::{Algorithm, Checkpoint, SolveOutcome, SolveRequest, Termination};
use obm::telemetry::{Probe, RingSink, SolverEvent};
use obm::workload::{PaperConfig, WorkloadBuilder};
use proptest::prelude::*;

/// The paper's C1 instance: 8×8 mesh, four 16-thread applications.
fn c1_instance() -> ObmInstance {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = workload.rate_vectors();
    ObmInstance::new(tiles, workload.boundaries(), c, m)
}

/// Strategy: a random OBM instance on an n×n mesh (n ∈ 2..=4) with 2–3
/// contiguous applications and positive rates.
fn arb_instance() -> impl Strategy<Value = ObmInstance> {
    (2usize..=4, 2usize..=3)
        .prop_flat_map(|(n, apps)| {
            let threads = n * n;
            (
                Just(n),
                Just(apps),
                proptest::collection::vec(0.01f64..10.0, threads),
                proptest::collection::vec(0.0f64..2.0, threads),
            )
        })
        .prop_map(|(n, apps, c, m)| {
            let mesh = Mesh::square(n);
            let mcs = MemoryControllers::corners(&mesh);
            let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
            let threads = n * n;
            let mut bounds = vec![0];
            for a in 1..=apps {
                bounds.push(a * threads / apps);
            }
            bounds.dedup();
            if bounds.len() < 2 {
                bounds.push(threads);
            }
            *bounds.last_mut().unwrap() = threads;
            ObmInstance::new(tl, bounds, c, m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A 1-worker portfolio over multi-seed SA is bit-identical to the
    /// sequential best-of loop it replaces: same objective, same mapping,
    /// same winning seed (ties break toward the earlier seed in both).
    #[test]
    fn one_worker_matches_sequential_best_of(inst in arb_instance(), s0 in any::<u64>()) {
        let sa = SimulatedAnnealing { iterations: 400, ..SimulatedAnnealing::default() };
        let seeds = [s0, s0.wrapping_add(1), s0.wrapping_add(2)];

        let mut best: Option<(f64, u64, Mapping)> = None;
        for seed in seeds {
            let m = sa.map(&inst, seed);
            let v = evaluate(&inst, &m).max_apl;
            let better = match &best {
                Some((bv, _, _)) => v.total_cmp(bv) == std::cmp::Ordering::Less,
                None => true,
            };
            if better {
                best = Some((v, seed, m));
            }
        }
        let (seq_value, seq_seed, seq_mapping) = best.expect("non-empty seed list");

        let outcome = SolveRequest::builder(&inst)
            .algorithm(Algorithm::SimulatedAnnealing(sa))
            .seeds(seeds)
            .workers(1)
            .build()
            .expect("valid request")
            .solve();

        prop_assert_eq!(outcome.termination, Termination::Completed);
        prop_assert_eq!(outcome.objective.to_bits(), seq_value.to_bits());
        prop_assert_eq!(outcome.winner_seed, seq_seed);
        prop_assert_eq!(outcome.mapping.as_slice(), seq_mapping.as_slice());
    }
}

/// Pinned determinism on the 8×8 paper instance: 1, 2 and 4 workers all
/// return the same winner, objective bits, and stats table, under the
/// paper's objective and under the two that polish every task with the
/// exchange search.
#[test]
fn worker_count_never_changes_the_answer_on_8x8() {
    let inst = c1_instance();
    let solve = |workers: usize, objective: ObjectiveSpec| {
        SolveRequest::builder(&inst)
            .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: 3_000,
                ..SimulatedAnnealing::default()
            }))
            .seeds([1, 2])
            .objective(objective)
            .workers(workers)
            .build()
            .expect("valid request")
            .solve()
    };
    for objective in [
        ObjectiveSpec::MinMaxApl,
        ObjectiveSpec::MaxMinBalance,
        ObjectiveSpec::Energy,
    ] {
        let one = solve(1, objective);
        assert_eq!(one.termination, Termination::Completed);
        for workers in [2usize, 4] {
            let multi = solve(workers, objective);
            assert_eq!(multi.objective.to_bits(), one.objective.to_bits());
            assert_eq!(multi.winner, one.winner);
            assert_eq!(multi.winner_seed, one.winner_seed);
            assert_eq!(multi.mapping.as_slice(), one.mapping.as_slice());
            assert_eq!(multi.stats.len(), one.stats.len());
            for (a, b) in multi.stats.iter().zip(&one.stats) {
                assert_eq!(a.task, b.task);
                assert_eq!(a.algo, b.algo);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.evaluations, b.evaluations);
                assert_eq!(a.objective.map(f64::to_bits), b.objective.map(f64::to_bits));
            }
        }
    }
}

/// An already-expired deadline interrupts the long SA tasks mid-run: the
/// outcome reports `Deadline`, still returns a valid fallback or partial
/// winner, and every unfinished task shows `objective: None`.
#[test]
fn deadline_expiry_interrupts_simulated_annealing() {
    let inst = c1_instance();
    let outcome = SolveRequest::builder(&inst)
        .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
            iterations: 50_000_000,
            ..SimulatedAnnealing::default()
        }))
        .seeds([1, 2])
        .workers(2)
        .deadline(Duration::from_millis(1))
        .build()
        .expect("valid request")
        .solve();
    assert_eq!(outcome.termination, Termination::Deadline);
    // The mapping is always usable, even when every racer was cut off.
    assert_eq!(outcome.mapping.as_slice().len(), inst.num_threads());
    assert!(outcome.objective.is_finite());
    if outcome.fallback {
        assert!(outcome.stats.iter().all(|s| s.objective.is_none()));
    }
}

/// Cancelling before the race starts: no task runs, the outcome is
/// `Cancelled`, and the deterministic greedy fallback supplies a valid
/// mapping so callers never receive garbage.
#[test]
fn cancellation_before_start_yields_fallback() {
    let inst = c1_instance();
    let token = CancelToken::new();
    token.cancel();
    let outcome = SolveRequest::builder(&inst)
        .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing::default()))
        .seeds([1, 2, 3])
        .workers(4)
        .cancel_token(token)
        .build()
        .expect("valid request")
        .solve();
    assert_eq!(outcome.termination, Termination::Cancelled);
    assert!(outcome.fallback);
    assert_eq!(outcome.winner, "Greedy");
    assert_eq!(outcome.mapping.as_slice().len(), inst.num_threads());
    assert!(outcome.stats.iter().all(|s| s.objective.is_none()));
    assert_eq!(outcome.completed_tasks(), 0);
}

/// Checkpoint round-trip through the facade: a completed run's checkpoint
/// resumes into a bit-identical outcome with every task marked resumed.
#[test]
fn checkpoint_resume_reproduces_the_outcome() {
    let inst = c1_instance();
    let build = || {
        SolveRequest::builder(&inst)
            .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: 2_000,
                ..SimulatedAnnealing::default()
            }))
            .seeds([5, 6])
            .workers(2)
    };
    let first = build().build().expect("valid request").solve();
    assert_eq!(first.termination, Termination::Completed);

    let json = first.checkpoint.to_json();
    let restored = obm::prelude::Checkpoint::from_json(&json).expect("round-trips");
    let resumed = build()
        .resume(restored)
        .build()
        .expect("valid request")
        .solve();

    assert!(!resumed.resume_rejected);
    assert_eq!(resumed.objective.to_bits(), first.objective.to_bits());
    assert_eq!(resumed.winner, first.winner);
    assert_eq!(resumed.winner_seed, first.winner_seed);
    assert_eq!(resumed.mapping.as_slice(), first.mapping.as_slice());
    assert!(resumed.stats.iter().all(|s| s.resumed));
}

/// `obm solve`'s default seed list.
const DEFAULT_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// Run one task alone through its public mapper, streaming its events.
fn run_alone(algo: &Algorithm, inst: &ObmInstance, seed: u64, probe: &mut dyn Probe) -> Mapping {
    match algo {
        Algorithm::SortSelectSwap(m) => m.map_probed(inst, seed, probe),
        Algorithm::HybridSssSa(m) => m.map_probed(inst, seed, probe),
        Algorithm::SimulatedAnnealing(m) => m.map_probed(inst, seed, probe),
        Algorithm::BalancedGreedy => BalancedGreedy.map_probed(inst, seed, probe),
        Algorithm::MonteCarlo(m) => m.map_probed(inst, seed, probe),
        Algorithm::Exact(m) => m.map_probed(inst, seed, probe),
    }
}

/// A stats row without its wall-clock fields: (task, algo, seed,
/// objective bits, evaluations, resumed).
type StatsRow = (u64, &'static str, u64, Option<u64>, u64, bool);

/// What a race must report, rebuilt by running every (algorithm × seed)
/// task alone in rank order and merging the sequential way.
struct Reference {
    winner: (u64, &'static str, u64, Vec<usize>),
    stats: Vec<StatsRow>,
    completed: Vec<CompletedTask>,
    events: Vec<SolverEvent>,
}

fn reference(inst: &ObmInstance, line_up: &[Algorithm], seeds: &[u64]) -> Reference {
    let mut stats = Vec::new();
    let mut completed = Vec::new();
    let mut events = Vec::new();
    let mut best: Option<(f64, usize, Mapping)> = None;
    let mut rank = 0u64;
    for algo in line_up {
        let task_seeds = if algo.seeded() { seeds } else { &seeds[..1] };
        for &seed in task_seeds {
            let mut sink = RingSink::new(1 << 20);
            let m = run_alone(algo, inst, seed, &mut sink);
            let v = evaluate(inst, &m).max_apl;
            let incumbent = best.as_ref().map_or(f64::INFINITY, |b| b.0);
            events.push(SolverEvent::WorkerStarted {
                task: rank,
                algo: algo.name().to_string(),
                seed,
                incumbent,
            });
            events.extend(sink.solver_events().cloned());
            if v.total_cmp(&incumbent) == std::cmp::Ordering::Less {
                events.push(SolverEvent::IncumbentImproved {
                    task: rank,
                    objective: v,
                });
                best = Some((v, stats.len(), m.clone()));
            } else {
                events.push(SolverEvent::WorkerPruned {
                    task: rank,
                    objective: v,
                    incumbent,
                });
            }
            let evaluations = algo.nominal_evals(inst);
            stats.push((
                rank,
                algo.name(),
                seed,
                Some(v.to_bits()),
                evaluations,
                false,
            ));
            completed.push(CompletedTask {
                task: rank,
                algo: algo.name().to_string(),
                seed,
                objective: v,
                evaluations,
                mapping: m.as_slice().iter().map(|k| k.0).collect(),
            });
            rank += 1;
        }
    }
    let (v, i, m) = best.expect("a non-empty line-up");
    let (_, name, seed, ..) = stats[i];
    Reference {
        winner: (
            v.to_bits(),
            name,
            seed,
            m.as_slice().iter().map(|k| k.0).collect(),
        ),
        stats,
        completed,
        events,
    }
}

/// Race `line_up` on every combination of worker count and probe, and
/// check each race against running its tasks alone. Returns the number
/// of SSS passes each race ran.
fn check_against_tasks_alone(inst: &ObmInstance, line_up: &[Algorithm]) -> Vec<u64> {
    let want = reference(inst, line_up, &DEFAULT_SEEDS);
    let mut passes = Vec::new();
    for workers in [1usize, 2] {
        for probed in [false, true] {
            let registry = MetricsRegistry::new();
            let req = SolveRequest::builder(inst)
                .algorithms(line_up.iter().copied())
                .seeds(DEFAULT_SEEDS)
                .workers(workers)
                .metrics(registry.handle())
                .build()
                .expect("valid request");
            let mut sink = RingSink::new(1 << 20);
            let out: SolveOutcome = if probed {
                req.solve_probed(&mut sink)
            } else {
                req.solve()
            };
            let label = format!("{workers} worker(s), probe {probed}");
            assert_eq!(out.termination, Termination::Completed, "{label}");
            let winner = (
                out.objective.to_bits(),
                out.winner,
                out.winner_seed,
                out.mapping
                    .as_slice()
                    .iter()
                    .map(|k| k.0)
                    .collect::<Vec<_>>(),
            );
            assert_eq!(winner, want.winner, "{label}: winner");
            let stats: Vec<StatsRow> = out
                .stats
                .iter()
                .map(|s| {
                    let objective = s.objective.map(f64::to_bits);
                    (s.task, s.algo, s.seed, objective, s.evaluations, s.resumed)
                })
                .collect();
            assert_eq!(stats, want.stats, "{label}: stats");
            let expected = Checkpoint {
                fingerprint: out.checkpoint.fingerprint,
                completed: want.completed.clone(),
            };
            assert_eq!(
                out.checkpoint.to_json(),
                expected.to_json(),
                "{label}: checkpoint"
            );
            let events: Vec<SolverEvent> = sink.solver_events().cloned().collect();
            if probed {
                assert_eq!(events, want.events, "{label}: replayed events");
            } else {
                assert!(events.is_empty(), "{label}: unprobed race emitted events");
            }
            passes.push(
                registry
                    .handle()
                    .counter_value("portfolio_sss_passes_total")
                    .expect("the race publishes its SSS pass count"),
            );
        }
    }
    passes
}

/// The default line-up over four seeds runs one SSS pass, shared by the
/// SSS task and the four hybrids, and still reports exactly what running
/// each task alone gives: winner, stats, checkpoint and event stream, on
/// one and two workers, probed or not.
#[test]
fn shared_sss_pass_matches_every_task_run_alone() {
    let inst = c1_instance();
    let passes = check_against_tasks_alone(&inst, &Algorithm::default_portfolio());
    assert_eq!(passes, [1, 1, 1, 1]);
}

/// A hybrid whose SSS configuration differs from the SSS task's (here the
/// window) cannot share its pass: the race runs two, and each task still
/// matches its run alone.
#[test]
fn distinct_sss_configs_run_separate_passes() {
    let inst = c1_instance();
    let narrow = SortSelectSwap {
        window: 3,
        ..SortSelectSwap::default()
    };
    let line_up = [
        Algorithm::SortSelectSwap(SortSelectSwap::default()),
        Algorithm::HybridSssSa(HybridSssSa {
            sss: narrow,
            sa_iterations: 2_000,
            ..HybridSssSa::default()
        }),
        Algorithm::BalancedGreedy,
    ];
    let passes = check_against_tasks_alone(&inst, &line_up);
    assert_eq!(passes, [2, 2, 2, 2]);
}
