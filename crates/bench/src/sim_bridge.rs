//! Bridge between the mapping layer and the cycle-level simulator:
//! turn (instance, mapping) into a [`TrafficSpec`] and run the
//! network.
//!
//! The mean-rate glue lives in [`obm_core::traffic_spec`]; this module
//! adds the seeded run helpers the experiments share.

use crate::harness::PaperInstance;
use noc_model::Mesh;
use noc_sim::telemetry::{FlowSummary, HeatmapRecord, Probe, RingSink};
use noc_sim::{InjectionProcess, Network, SimConfig, SimReport, TrafficSpec};
use obm_core::Mapping;

/// The traffic a mapping induces at mean rates: thread `j` of application
/// `i` injects from tile `π(j)` at its average rates.
pub fn traffic_from_mapping(pi: &PaperInstance, mapping: &Mapping) -> TrafficSpec {
    obm_core::traffic_spec(&pi.instance, mapping)
}

/// The paper's Table 2 simulation config for a mapped instance, measuring
/// `measure_cycles` cycles after a proportional warm-up.
fn paper_sim_config(measure_cycles: u64, seed: u64, injection: InjectionProcess) -> SimConfig {
    let mesh = Mesh::square(8);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = (measure_cycles / 10).max(1_000);
    cfg.measure_cycles = measure_cycles;
    cfg.seed = seed;
    cfg.injection = injection;
    cfg
}

/// Run the cycle-level simulation of a mapping with the paper's Table 2
/// network, measuring `measure_cycles` cycles after a proportional warm-up.
///
/// Uses the default Bernoulli-per-cycle injection so seeded runs stay
/// bit-identical with the PR 1 goldens; sweeps that only need the arrival
/// *distribution* pick the geometric fast path via
/// [`simulate_mapping_with`].
pub fn simulate_mapping(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
) -> SimReport {
    simulate_mapping_with(
        pi,
        mapping,
        measure_cycles,
        seed,
        InjectionProcess::BernoulliPerCycle,
    )
}

/// [`simulate_mapping`] with a metrics registry attached (DESIGN.md
/// §17). The report is bit-identical to the plain run — the registry is
/// a write-only observer; the criterion twin of this helper prices the
/// enabled-path overhead (`metrics_delta_pct/enabled`).
pub fn simulate_mapping_metered(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
    metrics: noc_metrics::MetricsHandle,
) -> SimReport {
    let cfg = paper_sim_config(measure_cycles, seed, InjectionProcess::BernoulliPerCycle);
    Network::new(cfg, traffic_from_mapping(pi, mapping))
        .expect("paper scenario is valid")
        .with_metrics(metrics)
        .run()
}

/// [`simulate_mapping`] with an explicit injection process.
pub fn simulate_mapping_with(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
    injection: InjectionProcess,
) -> SimReport {
    let cfg = paper_sim_config(measure_cycles, seed, injection);
    Network::new(cfg, traffic_from_mapping(pi, mapping))
        .expect("paper scenario is valid")
        .run()
}

/// [`simulate_mapping`], additionally streaming windowed telemetry to
/// `probe`. Bit-identical to the unprobed run for any probe.
pub fn simulate_mapping_probed(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
    probe: &mut dyn Probe,
) -> SimReport {
    simulate_mapping_probed_with(
        pi,
        mapping,
        measure_cycles,
        seed,
        InjectionProcess::BernoulliPerCycle,
        probe,
    )
}

/// [`simulate_mapping_probed`] with an explicit injection process.
pub fn simulate_mapping_probed_with(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
    injection: InjectionProcess,
    probe: &mut dyn Probe,
) -> SimReport {
    let cfg = paper_sim_config(measure_cycles, seed, injection);
    Network::new(cfg, traffic_from_mapping(pi, mapping))
        .expect("paper scenario is valid")
        .run_probed(probe)
}

/// A probed run bundled with its end-of-run observability records: the
/// exact latency histograms with the DESIGN.md §12 decomposition
/// ([`FlowSummary`]) and the spatial link/VC/stall heatmap
/// ([`HeatmapRecord`]). Semantically identical to the unprobed
/// [`SimReport`] for the same seed.
pub struct ObservedRun {
    pub report: SimReport,
    pub flow: FlowSummary,
    pub heatmap: HeatmapRecord,
}

/// [`simulate_mapping_with`], additionally capturing the flow summary and
/// heatmap the probed run emits at end of run.
pub fn simulate_mapping_observed(
    pi: &PaperInstance,
    mapping: &Mapping,
    measure_cycles: u64,
    seed: u64,
    injection: InjectionProcess,
) -> ObservedRun {
    let mut sink = RingSink::new(2);
    let report = simulate_mapping_probed_with(pi, mapping, measure_cycles, seed, injection, {
        // Windows are streamed but evicted by the tiny ring; the flow and
        // heatmap records arrive last, so both survive.
        &mut sink
    });
    let flow = sink
        .flow_summaries()
        .next()
        .cloned()
        .expect("probed run emits a flow summary");
    let heatmap = sink
        .heatmaps()
        .next()
        .cloned()
        .expect("probed run emits a heatmap");
    ObservedRun {
        report,
        flow,
        heatmap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_instance;
    use noc_sim::telemetry::RingSink;
    use obm_core::algorithms::{Mapper, SortSelectSwap};
    use workload::PaperConfig;

    #[test]
    fn sources_cover_all_threads_once() {
        let pi = paper_instance(PaperConfig::C2);
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let traffic = traffic_from_mapping(&pi, &mapping);
        assert_eq!(traffic.sources().len(), 64);
        assert_eq!(traffic.num_groups(), 4);
        let mut tiles: Vec<usize> = traffic.sources().iter().map(|s| s.tile.index()).collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), 64);
    }

    #[test]
    fn short_simulation_roundtrip() {
        let pi = paper_instance(PaperConfig::C2);
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let report = simulate_mapping(&pi, &mapping, 20_000, 1);
        assert!(report.fully_drained, "{}", report.summary());
        assert!(report.delivered > 0);
        // Measured g-APL must be in the ballpark of the analytic model.
        let analytic = obm_core::evaluate(&pi.instance, &mapping).g_apl;
        let measured = report.g_apl();
        assert!(
            (measured - analytic).abs() / analytic < 0.25,
            "analytic {analytic} vs simulated {measured}"
        );
    }

    /// Mode equivalence on the paper's C1 8×8 workload: geometric
    /// inter-arrival sampling must reproduce the Bernoulli process's
    /// arrival *distribution*, so mean latency and injected volume agree
    /// within statistical tolerance (the RNG streams differ, so the runs
    /// are not bit-identical — only distributionally equivalent).
    #[test]
    fn geometric_matches_bernoulli_on_c1() {
        let pi = paper_instance(PaperConfig::C1);
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let cycles = 40_000;
        let bern = simulate_mapping(&pi, &mapping, cycles, 9);
        let geom = simulate_mapping_with(&pi, &mapping, cycles, 9, InjectionProcess::Geometric);
        assert!(bern.fully_drained && geom.fully_drained);
        // Same offered load ⇒ injected volumes within 5% of each other.
        let inj_ratio = geom.injected as f64 / bern.injected as f64;
        assert!(
            (inj_ratio - 1.0).abs() < 0.05,
            "injected: bernoulli {} vs geometric {}",
            bern.injected,
            geom.injected
        );
        // Same network, same distribution ⇒ mean latencies statistically
        // indistinguishable (hop-count dominated at C1 loads).
        let apl_err = (geom.g_apl() - bern.g_apl()).abs() / bern.g_apl();
        assert!(
            apl_err < 0.02,
            "g-APL: bernoulli {} vs geometric {}",
            bern.g_apl(),
            geom.g_apl()
        );
        // The two modes consume the RNG differently: Bernoulli never draws
        // arrivals from the heap sampler, geometric draws one per packet.
        assert_eq!(bern.network.arrival_draws, 0);
        assert!(geom.network.arrival_draws >= geom.injected);
    }

    #[test]
    fn observed_run_reconciles_with_report() {
        let pi = paper_instance(PaperConfig::C1);
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let obs =
            simulate_mapping_observed(&pi, &mapping, 5_000, 3, InjectionProcess::BernoulliPerCycle);
        // Flow summary covers exactly the measured packets...
        assert_eq!(obs.flow.total_packets(), obs.report.delivered);
        // ...and the heatmap's link counts conserve all flit traversals.
        assert_eq!(
            obs.heatmap.total_link_flits(),
            obs.report.network.flit_hops()
        );
        // Exact quantiles are monotone and bounded by the histogram max.
        let h = &obs.flow.merged().histogram;
        let (p50, p99, max) = (
            h.quantile(0.5).unwrap(),
            h.quantile(0.99).unwrap(),
            h.max().unwrap(),
        );
        assert!(p50 <= p99 && p99 <= max);
    }

    #[test]
    fn probed_simulation_is_bit_identical() {
        let pi = paper_instance(PaperConfig::C1);
        let mapping = SortSelectSwap::default().map(&pi.instance, 0);
        let plain = simulate_mapping(&pi, &mapping, 5_000, 3);
        let mut sink = RingSink::new(1024);
        let probed = simulate_mapping_probed(&pi, &mapping, 5_000, 3, &mut sink);
        assert!(plain.semantic_eq(&probed), "probe perturbed the run");
        assert!(sink.windows().count() > 0);
    }
}
