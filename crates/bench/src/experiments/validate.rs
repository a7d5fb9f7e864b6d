//! **Validation** (§V methodology) — cross-check the analytic latency model
//! that the mapping algorithms optimize against the cycle-level wormhole
//! simulator: per-application APLs must track Eq. (5), and the measured
//! per-hop queueing latency `td_q` must sit in the paper's observed 0–1
//! cycle band.

use crate::harness::{all_paper_instances, paper_instance};
use crate::pool;
use crate::sim_bridge::paper_network;
use crate::table::{f, MarkdownTable};
use noc_metrics::{per_sec, MetricsHandle};
use noc_sim::telemetry::{Phase, RingSink};
use noc_sim::InjectionProcess;
use obm_core::algorithms::{Mapper, MonteCarlo, SimulatedAnnealing, SortSelectSwap};
use obm_core::evaluate;
use obm_portfolio::{Algorithm, SolveRequest};
use workload::PaperConfig;

/// `injection` is free (the CLI defaults to geometric): the validation
/// compares latency *statistics* against the analytic model, not a seeded
/// replay.
///
/// Reports into `metrics` (DESIGN.md §17), which must be an enabled
/// handle: each configuration's simulation runs inside a
/// `validate/sim/<cfg>` span, and every printed rate is work ÷ span time
/// read back from the registry, as are the parallelism gauges, so the
/// report and an exported snapshot can never disagree.
pub fn run(fast: bool, injection: InjectionProcess, metrics: &MetricsHandle) -> String {
    let cycles = if fast { 40_000 } else { 200_000 };
    let instances = if fast {
        vec![
            paper_instance(PaperConfig::C1),
            paper_instance(PaperConfig::C2),
        ]
    } else {
        all_paper_instances()
    };
    let mut t = MarkdownTable::new(vec![
        "cfg",
        "analytic g-APL",
        "simulated g-APL",
        "analytic max-APL",
        "simulated max-APL",
        "portfolio max-APL",
        "portfolio winner",
        "td_q (cycles)",
        "drained",
        "Msim-cycles/s",
        "skipped cycles",
        "peak win inj (flits/cyc)",
        "peak win buffered",
        "exact p99",
        "NI-q cyc/pkt",
    ]);
    let sa_iterations = if fast { 20_000 } else { 100_000 };
    // One grid item per configuration (mapping + analytic model + seeded
    // simulation are all per-instance), work-stolen across the shared
    // pool; results come back in item order, keeping the table rows in
    // the serial order.
    let results = pool::run_indexed(instances.len(), |i| {
        let pi = &instances[i];
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let analytic = evaluate(&pi.instance, &mapping);
        // Race the solver portfolio on the same instance: its
        // winner bounds what any single heuristic achieved.
        let portfolio = SolveRequest::builder(&pi.instance)
            .algorithm(Algorithm::SortSelectSwap(SortSelectSwap::default()))
            .algorithm(Algorithm::SimulatedAnnealing(SimulatedAnnealing {
                iterations: sa_iterations,
                ..SimulatedAnnealing::default()
            }))
            .algorithm(Algorithm::MonteCarlo(MonteCarlo {
                samples: 2_000,
                workers: 1,
            }))
            .algorithm(Algorithm::BalancedGreedy)
            .seeds([0, 1])
            .workers(2)
            .metrics(metrics.clone())
            .build()
            .expect("valid portfolio request")
            .solve();
        // Probed run: windowed telemetry rides along with the
        // validation sweep at no semantic cost (bit-identical).
        let mut sink = RingSink::new(4096);
        let network = paper_network(pi, &mapping, cycles, 7, injection);
        let sim = {
            let _span = metrics.span(&sim_span(pi.config));
            network.run_probed(&mut sink)
        };
        let measure = || sink.windows().filter(|w| w.phase == Phase::Measure);
        let peak_inj = measure().map(|w| w.injection_rate()).fold(0.0f64, f64::max);
        let peak_buf = measure().map(|w| w.buffered_flits).max().unwrap_or(0);
        // The end-of-run flow summary arrives after every
        // window, so it survives the bounded ring: exact
        // (nearest-rank) p99 and the per-packet NI source-
        // queuing cost ride along for free.
        let all = sink
            .flow_summaries()
            .next()
            .map(|flow| flow.merged())
            .unwrap_or_default();
        let p99 = all.histogram.quantile(0.99).unwrap_or(0);
        let ni_q = all.mean_source_queue();
        (analytic, sim, peak_inj, peak_buf, portfolio, p99, ni_q)
    });
    let mut max_err: f64 = 0.0;
    let mut max_tdq: f64 = 0.0;
    let mut max_gain: f64 = 0.0;
    let mut total_cycles = 0u64;
    let mut total_flit_hops = 0u64;
    let mut total_evals = 0u64;
    let snap = metrics.snapshot().unwrap_or_default();
    for (pi, (analytic, sim, peak_inj, peak_buf, portfolio, p99, ni_q)) in
        instances.iter().zip(&results)
    {
        let err = (sim.g_apl() - analytic.g_apl).abs() / analytic.g_apl;
        max_err = max_err.max(err);
        max_tdq = max_tdq.max(sim.mean_td_q());
        // SSS is in the line-up, so the winner can only match or improve.
        max_gain = max_gain.max((analytic.max_apl - portfolio.objective) / analytic.max_apl);
        total_cycles += sim.network.cycles_run;
        total_flit_hops += sim.network.link_flit_traversals;
        total_evals += portfolio
            .stats
            .iter()
            .filter(|s| s.ran())
            .map(|s| s.evaluations)
            .sum::<u64>();
        let run_nanos = snap.span(&sim_span(pi.config)).total_nanos;
        t.row(vec![
            pi.config.name().to_string(),
            f(analytic.g_apl),
            f(sim.g_apl()),
            f(analytic.max_apl),
            f(sim.max_apl()),
            f(portfolio.objective),
            format!("{} s{}", portfolio.winner, portfolio.winner_seed),
            f(sim.mean_td_q()),
            if sim.fully_drained { "yes" } else { "NO" }.to_string(),
            format!("{:.2}", per_sec(sim.network.cycles_run, run_nanos) / 1e6),
            format!("{}", sim.network.skipped_cycles),
            format!("{peak_inj:.3}"),
            format!("{peak_buf}"),
            format!("{p99}"),
            format!("{ni_q:.3}"),
        ]);
    }
    // Span totals sum per-run times, so the aggregates are per-thread
    // throughput, not wall-clock of the parallel sweep (the logical clock
    // zeroes every span, and the footer honestly prints that zero).
    let sim_nanos = snap.span_sum("validate/sim/").total_nanos;
    let eval_nanos = snap.span_sum("portfolio/task/").total_nanos;
    metrics.gauge_set("pool_effective_workers", pool::effective_workers() as f64);
    metrics.gauge_set(
        "pool_detected_cores",
        obm_core::pool::detected_cores() as f64,
    );
    let gauge = |name: &str| metrics.gauge_value(name).unwrap_or(0.0);
    format!(
        "## Validation — analytic model vs cycle-level simulation ({injection:?} injection)\n\n{}\n\
         Worst g-APL discrepancy {:.1}%; worst td_q {:.3} cycles \
         (paper: td_q observed 0–1 cycles at evaluated loads).\n\
         Portfolio winner improves on plain SSS by up to {:.2}% max-APL.\n\
         Simulator throughput: {:.2} Mcycles/s, {:.2} Mflit-hops/s per worker thread.\n\
         Portfolio evaluation throughput: {:.2} Mevals/s aggregate over timed tasks.\n\
         Sweep pool: {} effective worker(s) on {} detected core(s).\n",
        t.render(),
        max_err * 100.0,
        max_tdq,
        max_gain * 100.0,
        per_sec(total_cycles, sim_nanos) / 1e6,
        per_sec(total_flit_hops, sim_nanos) / 1e6,
        per_sec(total_evals, eval_nanos) / 1e6,
        gauge("pool_effective_workers") as usize,
        gauge("pool_detected_cores") as usize,
    )
}

/// The span that times `cfg`'s validation simulation.
fn sim_span(cfg: PaperConfig) -> String {
    format!("validate/sim/{}", cfg.name())
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `experiments validate`"]
    fn validate_runs() {
        let metrics = noc_metrics::MetricsRegistry::new().handle();
        let out = super::run(true, noc_sim::InjectionProcess::Geometric, &metrics);
        assert!(out.contains("Validation"));
    }
}
