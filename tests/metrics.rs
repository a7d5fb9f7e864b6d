//! Metrics purity and snapshot round-trip tests (DESIGN.md §17).
//!
//! The `noc-metrics` registry is a write-only observer riding along with
//! the simulator, the solver portfolio and the placement search. These
//! tests pin the PR 2 purity contract for it:
//!
//! 1. a seeded simulation produces a bit-identical `SimReport` with
//!    metrics enabled or disabled, across random loads and shard counts,
//!    and the exported counters reconcile exactly with `NetworkStats`;
//! 2. a solver-portfolio race returns the identical mapping/objective
//!    with metrics on or off, and the exported counters reconcile with
//!    the returned `SolveStats`;
//! 3. snapshots round-trip losslessly through both export formats
//!    (Prometheus text and JSON lines), and under the logical clock two
//!    identical seeded runs export byte-identical snapshots.

use obm::metrics::{ClockMode, MetricsHandle, MetricsRegistry, MetricsSnapshot};
use obm::prelude::*;
use obm::sim::InjectionProcess;
use proptest::prelude::*;

/// A 4×4 scenario parameterized on load, injection process and shard
/// count — the randomized surface for the purity properties.
fn network(seed: u64, cache_rate: f64, mem_rate: f64, shards: usize, geometric: bool) -> Network {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.shards = shards;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 1_500;
    cfg.max_drain_cycles = 200_000;
    cfg.seed = seed;
    if geometric {
        cfg.injection = InjectionProcess::Geometric;
    }
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: Schedule::Constant(cache_rate),
            mem: Schedule::Constant(mem_rate),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

/// A small OBM instance over random per-thread rates: 4 apps × 4 threads
/// on the 4×4 paper-default chip.
fn instance(cache_rates: &[f64]) -> ObmInstance {
    let mesh = Mesh::square(4);
    let tiles = TileLatencies::paper_default(&mesh);
    let mem_rates: Vec<f64> = cache_rates.iter().map(|r| r * 0.15).collect();
    ObmInstance::new(
        tiles,
        vec![0, 4, 8, 12, 16],
        cache_rates.to_vec(),
        mem_rates,
    )
}

fn solve(inst: &ObmInstance, metrics: Option<MetricsHandle>) -> SolveOutcome {
    let mut builder = SolveRequest::builder(inst)
        .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
        .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
            iterations: 2_000,
            ..SimulatedAnnealing::default()
        }))
        .algorithm(Algorithm::BalancedGreedy)
        .seeds([0, 1])
        .workers(2);
    if let Some(handle) = metrics {
        builder = builder.metrics(handle);
    }
    builder.build().expect("valid request").solve()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Purity, simulator side: metrics-on and metrics-off runs of the
    /// same seeded scenario are bit-identical (wall clock excluded), for
    /// random loads, both injection processes and serial/sharded
    /// engines — and the registry's counters reconcile exactly with the
    /// `NetworkStats` the run returned.
    #[test]
    fn sim_report_is_bit_identical_with_metrics_on(
        cache_rate in 0.001f64..0.04,
        mem_rate in 0.0f64..0.01,
        seed in any::<u64>(),
        shards in 1usize..=2,
        geometric in any::<bool>(),
    ) {
        let off = network(seed, cache_rate, mem_rate, shards, geometric).run();
        let registry = MetricsRegistry::new();
        let on = network(seed, cache_rate, mem_rate, shards, geometric)
            .with_metrics(registry.handle())
            .run();
        prop_assert!(off.semantic_eq(&on), "metrics perturbed the simulation");
        // semantic_eq is bit-for-bit on the accumulators; spot-check the
        // per-class/per-source breakdowns too.
        prop_assert_eq!(&off.cache, &on.cache);
        prop_assert_eq!(&off.memory, &on.memory);
        prop_assert_eq!(&off.groups, &on.groups);
        prop_assert_eq!(&off.per_source, &on.per_source);

        // The registry saw exactly what the report counted.
        let h = registry.handle();
        let counter = |name: &str| h.counter_value(name).unwrap_or(0);
        prop_assert_eq!(counter("sim_runs_total"), 1);
        prop_assert_eq!(counter("sim_cycles_total"), on.network.cycles_run);
        prop_assert_eq!(counter("sim_injected_packets_total"), on.injected);
        prop_assert_eq!(counter("sim_delivered_packets_total"), on.delivered);
        prop_assert_eq!(
            counter("sim_link_flit_traversals_total"),
            on.network.link_flit_traversals
        );
        prop_assert_eq!(counter("sim_skipped_cycles_total"), on.network.skipped_cycles);
        prop_assert_eq!(counter("sim_router_steps_total"), on.network.router_steps);
        prop_assert_eq!(off.network.router_steps, on.network.router_steps);
        prop_assert_eq!(
            h.gauge_value("sim_shards").map(|v| v as usize),
            Some(shards)
        );
    }
}

/// The router-step count is one number per configuration: the same for
/// a plain, a probed and a 2-shard run, and exported unchanged as
/// `sim_router_steps_total`. A router whose front flits are all still
/// in the router pipeline is asleep and not stepped; the sharded engine
/// must skip exactly the steps the serial one skips.
#[test]
fn router_steps_agree_across_plain_probed_and_sharded_runs() {
    for (seed, geometric) in [(3, false), (4, true)] {
        let plain = network(seed, 0.02, 0.004, 1, geometric).run();
        let mut ring = RingSink::new(64);
        let probed = network(seed, 0.02, 0.004, 1, geometric).run_probed(&mut ring);
        let sharded = network(seed, 0.02, 0.004, 2, geometric).run();
        let registry = MetricsRegistry::new();
        let metered = network(seed, 0.02, 0.004, 2, geometric)
            .with_metrics(registry.handle())
            .run();
        let steps = plain.network.router_steps;
        assert!(steps > 0);
        for r in [&probed, &sharded, &metered] {
            assert!(r.semantic_eq(&plain));
            assert_eq!(r.network.router_steps, steps, "seed {seed}");
        }
        assert_eq!(
            registry.handle().counter_value("sim_router_steps_total"),
            Some(steps)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Purity, solver side: the portfolio race returns the identical
    /// winner, objective and mapping with metrics on or off, for random
    /// instances — and the exported counters reconcile with the returned
    /// `SolveStats`.
    #[test]
    fn solve_outcome_is_bit_identical_with_metrics_on(
        rates in proptest::collection::vec(0.05f64..10.0, 16),
    ) {
        let inst = instance(&rates);
        let off = solve(&inst, None);
        let registry = MetricsRegistry::new();
        let on = solve(&inst, Some(registry.handle()));

        prop_assert_eq!(&off.winner, &on.winner);
        prop_assert_eq!(off.winner_seed, on.winner_seed);
        prop_assert_eq!(off.objective.to_bits(), on.objective.to_bits());
        prop_assert_eq!(off.mapping.as_slice(), on.mapping.as_slice());
        prop_assert_eq!(off.stats.len(), on.stats.len());

        let h = registry.handle();
        let counter = |name: &str| h.counter_value(name).unwrap_or(0);
        prop_assert_eq!(counter("portfolio_solves_total"), 1);
        prop_assert_eq!(counter("portfolio_tasks_total"), on.stats.len() as u64);
        let completed_evals: u64 = on
            .stats
            .iter()
            .filter(|s| s.objective.is_some())
            .map(|s| s.evaluations)
            .sum();
        prop_assert_eq!(counter("portfolio_evals_total"), completed_evals);
        prop_assert_eq!(
            h.gauge_value("portfolio_workers").map(|v| v as usize),
            Some(2)
        );
    }
}

/// One deterministic "everything" registry: a seeded simulation plus a
/// portfolio solve reporting into the same logical-clock registry. Used
/// by the round-trip and byte-determinism tests below.
fn full_snapshot() -> MetricsSnapshot {
    let registry = MetricsRegistry::with_clock(ClockMode::Logical);
    network(42, 0.02, 0.004, 2, false)
        .with_metrics(registry.handle())
        .run();
    let rates: Vec<f64> = (1..=16).map(|i| i as f64 * 0.5).collect();
    solve(&instance(&rates), Some(registry.handle()));
    registry.snapshot()
}

/// Both export formats parse back to the exact snapshot that was
/// exported: counters, gauges, exact histograms and spans survive, so
/// `obm status` renders from lossless inputs.
#[test]
fn snapshots_round_trip_through_both_formats() {
    let snap = full_snapshot();
    assert!(!snap.is_empty());

    let prom = snap.to_prometheus();
    let from_prom = MetricsSnapshot::parse(&prom).expect("prometheus parses");
    assert_eq!(snap, from_prom, "prometheus round-trip lost data");

    let json = snap.to_json_lines();
    let from_json = MetricsSnapshot::parse(&json).expect("json lines parse");
    assert_eq!(snap, from_json, "json-lines round-trip lost data");

    // The families every instrumented subsystem contributes are present.
    for name in [
        "sim_runs_total",
        "sim_cycles_total",
        "portfolio_solves_total",
        "portfolio_evals_total",
    ] {
        assert!(
            snap.counters.contains_key(name),
            "missing counter {name} in snapshot"
        );
        assert!(prom.contains(name), "missing {name} in prometheus text");
        assert!(json.contains(name), "missing {name} in json lines");
    }
    assert!(
        snap.spans.keys().any(|k| k.starts_with("sim/shard/")),
        "shard-pool spans missing"
    );
    assert!(
        snap.spans.keys().any(|k| k.starts_with("portfolio/task/")),
        "portfolio task spans missing"
    );
}

/// Under the logical clock, two identical seeded runs export
/// byte-identical snapshots in both formats — the property `check.sh`
/// smoke-tests end-to-end through the CLI.
#[test]
fn logical_clock_snapshots_are_byte_deterministic() {
    let a = full_snapshot();
    let b = full_snapshot();
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    assert_eq!(a.to_json_lines(), b.to_json_lines());
}

/// Merging is the dashboard's aggregation primitive: counters and span
/// counts add, so merging a snapshot with itself exactly doubles them.
#[test]
fn merged_snapshot_doubles_counters() {
    let snap = full_snapshot();
    let mut merged = snap.clone();
    merged.merge(&snap);
    for (name, value) in &snap.counters {
        assert_eq!(merged.counters[name], value * 2, "counter {name}");
    }
    for (path, span) in &snap.spans {
        assert_eq!(merged.spans[path].count, span.count * 2, "span {path}");
    }
    // The dashboard renders without panicking on the merged snapshot.
    let dash = merged.render_dashboard(2);
    assert!(dash.contains("2 snapshots merged"), "{dash}");
}
