//! Runtime metrics & span tracing (DESIGN.md §17) — one registry
//! observing all four instrumented subsystems, then exported and
//! rendered the way `obm --metrics` / `obm status` do it:
//!
//! 1. **simulator** — a seeded 4×4 run reports packet/cycle counters
//!    and the sampled `sim/{generate,inject,route,traverse,telemetry}`
//!    phase spans with their sum `sim/serial/cycle`;
//! 2. **portfolio** — a solver race reports task spans, evaluation
//!    counters and the workers gauge;
//! 3. **placement** — `co_optimize` reports candidate/memo/inner-solve
//!    counters and the inner-solve span;
//! 4. **remap** — a closed-loop `RemapController` run reports window,
//!    solve and migration counters.
//!
//! Metrics are write-only observers: every result below is bit-identical
//! to the same run without the registry attached (pinned by
//! `tests/metrics.rs`). Set `OBM_METRICS_CLOCK=logical` to zero all
//! wall-derived values — the printed snapshot then becomes
//! byte-deterministic.
//!
//! ```text
//! cargo run --release --example runtime_metrics
//! ```

use obm::mapping::RemapConfig;
use obm::prelude::*;

fn scenario(mesh: Mesh, mapping: &Mapping, inst: &ObmInstance, seed: u64) -> Network {
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 6_000;
    cfg.seed = seed;
    let traffic = traffic_spec(inst, mapping);
    Network::new(cfg, traffic).expect("valid scenario")
}

fn main() {
    // Honor the same clock switch the CLI exposes, so
    // `OBM_METRICS_CLOCK=logical cargo run --example runtime_metrics`
    // prints a byte-deterministic snapshot.
    let clock = match std::env::var("OBM_METRICS_CLOCK").as_deref() {
        Ok("logical") => ClockMode::Logical,
        _ => ClockMode::Wall,
    };
    let registry = MetricsRegistry::with_clock(clock);
    let metrics = registry.handle();

    // A 4-app instance on the paper-default 4×4 chip.
    let mesh = Mesh::square(4);
    let tiles = TileLatencies::paper_default(&mesh);
    let cache_rates: Vec<f64> = (0..16).map(|i| 0.5 + 0.6 * (i % 5) as f64).collect();
    let mem_rates: Vec<f64> = cache_rates.iter().map(|r| r * 0.15).collect();
    let inst = ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], cache_rates, mem_rates);

    // -- portfolio: the solver race reports into the registry ------------
    let outcome = SolveRequest::builder(&inst)
        .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
        .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
            iterations: 20_000,
            ..SimulatedAnnealing::default()
        }))
        .algorithm(Algorithm::BalancedGreedy)
        .seeds([0, 1])
        .workers(2)
        .metrics(metrics.clone())
        .build()
        .expect("valid request")
        .solve();
    println!(
        "portfolio: winner {} (seed {}) max-APL {:.3}",
        outcome.winner, outcome.winner_seed, outcome.objective
    );

    // -- simulator: seeded run with the registry attached ----------------
    let report = scenario(mesh, &outcome.mapping, &inst, 42)
        .with_metrics(metrics.clone())
        .run();
    println!(
        "simulator: {} cycles, {}/{} packets, simulated g-APL {:.3}",
        report.network.cycles_run,
        report.delivered,
        report.injected,
        report.g_apl()
    );

    // -- placement: co-optimize controller placement + mapping -----------
    let mut opts = PlacementOptions::new(2);
    opts.metrics = metrics.clone();
    let placed = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search succeeds");
    println!(
        "placement: {} layout(s) scored, best max-APL {:.3} (gain {:.2}%)",
        placed.evaluated,
        placed.objective,
        placed.gain_pct()
    );

    // -- remap: a closed-loop controller watching windowed telemetry -----
    let mut ctrl = RemapController::with_config(
        inst.clone(),
        outcome.mapping.clone(),
        mesh,
        RemapConfig::default(),
    )
    .expect("valid controller")
    .with_metrics(metrics.clone());
    scenario(mesh, &outcome.mapping, &inst, 7)
        .run_controlled(&mut NoopSink, &mut ctrl)
        .expect("controlled run succeeds");
    println!(
        "remap: {} window(s) observed, {} re-solve(s), {} remap(s)",
        metrics.counter_value("remap_windows_total").unwrap_or(0),
        ctrl.solves(),
        ctrl.remap_count()
    );

    // -- export: what `--metrics FILE` writes and `obm status` renders ---
    let snapshot = registry.snapshot();
    println!("\n{}", snapshot.render_dashboard(1));
    let prom = snapshot.to_prometheus();
    println!(
        "Prometheus export: {} lines, {} bytes (obm solve --metrics FILE)",
        prom.lines().count(),
        prom.len()
    );
    let reparsed = MetricsSnapshot::parse(&prom).expect("own export parses");
    assert_eq!(reparsed, snapshot, "export round-trips losslessly");
}
