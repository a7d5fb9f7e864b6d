//! End-to-end pipeline tests: synthetic traces → rate collection → OBM
//! instance → mapping → cycle-level simulation, with conservation and
//! model-fidelity checks spanning every crate.

use obm::mapping::algorithms::{Mapper, SortSelectSwap};
use obm::mapping::{evaluate, traffic_spec, ObmInstance};
use obm::model::{Mesh, TileLatencies};
use obm::sim::{Network, Schedule, SimConfig, SourceSpec, TrafficSpec};
use obm::workload::{BurstSeries, PaperConfig, WorkloadBuilder};

fn build_pipeline(cfg: PaperConfig) -> (ObmInstance, obm::mapping::Mapping) {
    let (w, _) = WorkloadBuilder::paper(cfg).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = w.rate_vectors();
    let inst = ObmInstance::new(tiles, w.boundaries(), c, m);
    let mapping = SortSelectSwap::default().map(&inst, 0);
    (inst, mapping)
}

fn simulate(
    inst: &ObmInstance,
    mapping: &obm::mapping::Mapping,
    cycles: u64,
) -> obm::sim::SimReport {
    let mesh = Mesh::square(8);
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: cycles,
        seed: 11,
        ..SimConfig::paper_defaults(mesh)
    };
    Network::new(cfg, traffic_spec(inst, mapping))
        .expect("valid scenario")
        .run()
}

/// Every measured packet injected is eventually delivered (flit
/// conservation through the wormhole network).
#[test]
fn packet_conservation_through_the_network() {
    let (inst, mapping) = build_pipeline(PaperConfig::C2);
    let report = simulate(&inst, &mapping, 20_000);
    assert!(report.fully_drained, "{}", report.summary());
    assert_eq!(report.injected, report.delivered);
    assert!(report.injected > 500, "too few packets to be meaningful");
}

/// The simulated g-APL tracks the analytic Eq. (5) value the mapping was
/// optimized against (within the queueing + sampling tolerance).
#[test]
fn simulated_apl_tracks_analytic_model() {
    let (inst, mapping) = build_pipeline(PaperConfig::C1);
    let analytic = evaluate(&inst, &mapping);
    let report = simulate(&inst, &mapping, 60_000);
    let rel = (report.g_apl() - analytic.g_apl).abs() / analytic.g_apl;
    assert!(
        rel < 0.10,
        "simulated g-APL {} vs analytic {} ({:.1}% off)",
        report.g_apl(),
        analytic.g_apl,
        rel * 100.0
    );
    // Per-application ordering must largely carry over: the per-app APLs
    // are near-equal analytically, so simulated ones must stay in a
    // narrow band too.
    let apls = report.group_apls();
    let spread = apls.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - apls.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 1.5,
        "simulated per-app spread {spread} too wide: {apls:?}"
    );
}

/// The measured per-hop queueing latency stays in the paper's observed
/// 0–1 cycle band at Table 3 loads.
#[test]
fn queueing_latency_in_paper_band() {
    let (inst, mapping) = build_pipeline(PaperConfig::C4); // heaviest traffic
    let report = simulate(&inst, &mapping, 30_000);
    let tdq = report.mean_td_q();
    assert!(
        (0.0..1.0).contains(&tdq),
        "td_q {tdq} outside the paper's 0–1 cycle observation"
    );
}

/// Trace replay: piecewise schedules built from the bursty epoch traces
/// drive the simulator and conserve packets.
#[test]
fn trace_replay_conserves_packets() {
    let (w, traces) = WorkloadBuilder::paper(PaperConfig::C7).epochs(200).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = w.rate_vectors();
    let inst = ObmInstance::new(tiles, w.boundaries(), c, m);
    let mapping = SortSelectSwap::default().map(&inst, 0);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 20_000;
    // Piecewise schedules take per-epoch rates, so materialise each
    // compact series.
    let schedule = |series: &BurstSeries| {
        Schedule::trace_per_kilocycle(traces.epoch_cycles, &series.iter().collect::<Vec<_>>())
    };
    let sources: Vec<SourceSpec> = (0..inst.num_threads())
        .map(|j| SourceSpec {
            tile: mapping.tile_of(j),
            group: inst.app_of_thread(j),
            cache: schedule(&traces.traces[j].cache),
            mem: schedule(&traces.traces[j].mem),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, inst.num_apps()).expect("valid traffic");
    let report = Network::new(cfg, traffic).expect("valid config").run();
    assert!(report.fully_drained, "{}", report.summary());
    assert_eq!(report.injected, report.delivered);
}

/// The workload statistics that feed the instance match what the traces
/// report (the "runtime statistics collection" contract of §IV.B).
#[test]
fn workload_rates_are_trace_means() {
    let (w, traces) = WorkloadBuilder::paper(PaperConfig::C6).build();
    let (c, m) = w.rate_vectors();
    // Workload::new sorts apps ascending by rate; rebuild the same order.
    let w2 = traces.to_workload();
    let (c2, m2) = w2.rate_vectors();
    assert_eq!(c, c2);
    assert_eq!(m, m2);
}

/// Power estimates respond to mapping quality: the analytic dynamic power
/// of SSS stays within a few percent of Global's (Figure 11's claim).
#[test]
fn power_overhead_small() {
    use obm::mapping::algorithms::Global;
    use obm::power::{analytic_power, PlacedLoad, PowerParams};
    let (inst, sss_mapping) = build_pipeline(PaperConfig::C3);
    let glob_mapping = Global.map(&inst, 0);
    let mesh = Mesh::square(8);
    let params = PowerParams::dsent_45nm();
    let power_of = |mapping: &obm::mapping::Mapping| {
        let loads: Vec<PlacedLoad> = (0..inst.num_threads())
            .map(|j| PlacedLoad {
                tile: mapping.tile_of(j),
                cache_rate: inst.cache_rate(j) / 1000.0,
                mem_rate: inst.mem_rate(j) / 1000.0,
            })
            .collect();
        analytic_power(&params, &mesh, inst.tiles(), &loads, 3.0).dynamic_mw
    };
    let p_sss = power_of(&sss_mapping);
    let p_glob = power_of(&glob_mapping);
    assert!(
        p_sss / p_glob < 1.06,
        "SSS power {p_sss} mW vs Global {p_glob} mW exceeds +6%"
    );
}
