//! Simulator determinism and conservation tests.
//!
//! The cycle-level simulator is only useful as an experimental instrument
//! if a fixed seed reproduces a run exactly — across repeated runs in one
//! process and across the performance work done on the hot loop (activity
//! worklists, scratch buffers, packet-slab recycling must all be invisible
//! to the simulated semantics). These tests pin that contract:
//!
//! 1. two runs of the same seeded scenario compare equal under
//!    [`SimReport::semantic_eq`] (bit-for-bit, wall-clock excluded);
//! 2. a small seeded scenario reproduces golden values captured from the
//!    pre-optimization simulator — any drift means simulated semantics
//!    changed, which is a bug even if the new numbers look plausible;
//! 3. packet and flit conservation hold under randomized loads, buffer
//!    depths and VC counts (property-based);
//! 4. the probed run's per-router stall counters and occupancy integrals
//!    reproduce goldens captured from the full-scan switch allocator, and
//!    probed runs match plain ones across the router's configuration
//!    corners (property-based).
//!
//! [`SimReport::semantic_eq`]: obm::sim::SimReport::semantic_eq

mod common;

use common::fnv1a;
use obm::metrics::{ClockMode, MetricsRegistry};
use obm::model::{MemoryControllers, Mesh, TileId, Topology};
use obm::sim::{
    InjectionProcess, Network, RoutingKind, Schedule, SimConfig, SimReport, SourceSpec, TrafficSpec,
};
use obm::telemetry::json::{self, Value};
use obm::telemetry::{HeatmapRecord, JsonLinesSink, NoopSink, PacketRecord, Phase, RingSink};
use proptest::prelude::*;

/// The pinned scenario's network: 4×4 mesh, one far memory controller,
/// mixed classes, moderate contention, seed 42. Identical to
/// `scenario_small` in `crates/noc-sim/examples/report_dump.rs`, which
/// regenerates the golden values below.
fn small_scenario_network() -> Network {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 3_000;
    cfg.max_drain_cycles = 20_000;
    cfg.seed = 42;
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: Schedule::per_kilocycle(20.0),
            mem: Schedule::per_kilocycle(4.0),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

fn small_scenario() -> SimReport {
    small_scenario_network().run()
}

#[test]
fn identical_seeded_runs_produce_identical_reports() {
    let a = small_scenario();
    let b = small_scenario();
    assert!(a.semantic_eq(&b), "seeded runs diverged");
    // Spot-check that semantic_eq actually saw identical accumulators
    // (PartialEq on LatencyAccum is bit-for-bit, f64 sums included).
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.memory, b.memory);
    assert_eq!(a.groups, b.groups);
    assert_eq!(a.per_source, b.per_source);
    // wall_nanos is the one legitimately nondeterministic field; both runs
    // must still have measured it.
    assert!(a.network.wall_nanos > 0 && b.network.wall_nanos > 0);
}

/// Golden regression: values captured from the simulator *before* the
/// hot-loop optimization work (activity worklists, occupancy-mask switch
/// allocation, scratch buffers, packet-slab recycling). The optimized
/// simulator must reproduce them bit-for-bit.
#[test]
fn pinned_golden_small_scenario() {
    let r = small_scenario();
    assert_eq!(r.injected, 1092);
    assert_eq!(r.delivered, 1092);
    assert!(r.fully_drained);
    assert_eq!(r.measured_cycles, 3_000);
    assert_eq!(r.network.link_flit_traversals, 9_592);
    assert_eq!(r.network.peak_buffered_flits, 39);
    assert_eq!(r.network.cycles_run, 3_520);
    assert_eq!(r.network.num_links, 48);
    assert_eq!(r.cache.packets, 896);
    assert_eq!(r.cache.total_hops, 2_198);
    assert_eq!(r.cache.total_flits, 2_676);
    assert_eq!(r.cache.flit_hops, 6_362);
    // Latencies are integer cycle counts summed into an f64, so the sum is
    // exact and == is meaningful.
    assert_eq!(r.cache.total_latency, 11_716.0);
    assert_eq!(r.memory.packets, 196);
    assert_eq!(r.memory.total_latency, 3_048.0);
    assert!((r.g_apl() - 13.520146520146521).abs() < 1e-9);
    assert!((r.max_apl() - 14.340823970037453).abs() < 1e-9);
    assert!((r.mean_td_q() - 0.321970443349754).abs() < 1e-9);
}

/// Telemetry must be a pure observer. A probed run through an explicit
/// `NoopSink` (the disabled probe) takes the telemetry-aware code path
/// yet must reproduce the golden report bit-for-bit, and an *enabled*
/// `RingSink` probe must not change simulated semantics either.
#[test]
fn probed_runs_reproduce_the_golden_report() {
    let golden = small_scenario();
    let noop = small_scenario_network().run_probed(&mut NoopSink);
    assert!(
        golden.semantic_eq(&noop),
        "NoopSink run diverged from the golden report"
    );
    assert_eq!(noop.injected, 1092);
    assert_eq!(noop.network.link_flit_traversals, 9_592);

    let mut sink = RingSink::new(1024);
    let probed = small_scenario_network().run_probed(&mut sink);
    assert!(
        golden.semantic_eq(&probed),
        "RingSink run diverged from the golden report"
    );
    assert!(sink.windows().count() > 0);
}

/// Window arithmetic on the pinned scenario: with the paper-default
/// 1000-cycle window, warmup 500 / measure 3000 / cycles_run 3520, the
/// global window grid is truncated at the warmup→measure boundary, at the
/// measure→drain boundary, and at the end of the run.
#[test]
fn ring_sink_windows_truncate_at_phase_boundaries() {
    let mut sink = RingSink::new(1024);
    let report = small_scenario_network().run_probed(&mut sink);
    assert_eq!(report.network.cycles_run, 3_520);
    assert_eq!(sink.dropped(), 0);
    let spans: Vec<(u64, u64, Phase)> = sink
        .windows()
        .map(|w| (w.start_cycle, w.end_cycle, w.phase))
        .collect();
    assert_eq!(
        spans,
        vec![
            (0, 500, Phase::Warmup),
            (500, 1_000, Phase::Measure),
            (1_000, 2_000, Phase::Measure),
            (2_000, 3_000, Phase::Measure),
            (3_000, 3_500, Phase::Measure),
            (3_500, 3_520, Phase::Drain),
        ]
    );
    let measure_width: u64 = sink
        .windows()
        .filter(|w| w.phase == Phase::Measure)
        .map(|w| w.width())
        .sum();
    assert_eq!(measure_width, 3_000, "measure windows must tile the phase");
    // Conservation across the whole run: windows see every packet.
    let injected: u64 = sink.windows().map(|w| w.injected_packets).sum();
    let ejected: u64 = sink.windows().map(|w| w.ejected_packets).sum();
    assert_eq!(injected, ejected, "run fully drained");
    assert!(injected >= report.injected, "windows cover warmup too");
}

/// Satellite for the peak-occupancy telemetry: `peak_buffered_flits` is now
/// a counter maintained incrementally at flit push/pop instead of an
/// O(routers) end-of-cycle scan; on the seeded contention scenario it must
/// still report the value the scan measured.
#[test]
fn peak_buffered_flits_matches_pre_optimization_scan() {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    // All memory traffic from two heavy sources funnels into one corner
    // controller — a deterministic hot-spot that exercises deep queues.
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 2_000;
    cfg.max_drain_cycles = 50_000;
    cfg.seed = 9;
    let sources: Vec<SourceSpec> = (0..2)
        .map(|t| SourceSpec {
            tile: TileId(t),
            group: 0,
            cache: Schedule::Constant(0.3),
            mem: Schedule::Constant(0.3),
        })
        .collect();
    let run = |cfg: SimConfig, sources: Vec<SourceSpec>| {
        let traffic = TrafficSpec::new(sources, 1).expect("valid traffic");
        Network::new(cfg, traffic).expect("valid config").run()
    };
    let a = run(cfg.clone(), sources.clone());
    let b = run(cfg, sources);
    assert_eq!(a.network.peak_buffered_flits, b.network.peak_buffered_flits);
    // Pinned regression value; the counter≡scan equivalence itself is proven
    // by `pinned_golden_small_scenario` (39 there was measured by the old
    // per-cycle scan).
    assert_eq!(a.network.peak_buffered_flits, 79);
}

/// The pinned scenario again, but under `InjectionProcess::Geometric`.
/// Same seed, same rates — a *different* (but equally pinned) RNG stream,
/// since geometric sampling spends one uniform per packet instead of one
/// per source, class and cycle.
fn geometric_small_scenario_network() -> Network {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 3_000;
    cfg.max_drain_cycles = 20_000;
    cfg.seed = 42;
    cfg.injection = InjectionProcess::Geometric;
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: Schedule::per_kilocycle(20.0),
            mem: Schedule::per_kilocycle(4.0),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

/// Golden regression for the geometric injection process, captured when
/// the mode was introduced. Drift in any value means either the sampler
/// (`Schedule::next_arrival`), the arrival heap's tie-breaking, or the
/// fast-forward clamping changed semantics.
#[test]
fn pinned_golden_geometric_small_scenario() {
    let r = geometric_small_scenario_network().run();
    assert_eq!(r.injected, 1_159);
    assert_eq!(r.delivered, 1_159);
    assert!(r.fully_drained);
    assert_eq!(r.measured_cycles, 3_000);
    assert_eq!(r.network.link_flit_traversals, 10_325);
    assert_eq!(r.network.peak_buffered_flits, 37);
    assert_eq!(r.network.cycles_run, 3_506);
    assert_eq!(r.cache.packets, 968);
    assert_eq!(r.cache.total_hops, 2_427);
    assert_eq!(r.cache.total_flits, 2_928);
    assert_eq!(r.cache.flit_hops, 7_311);
    // Latencies are integer cycle counts summed into an f64, so the sum is
    // exact and == is meaningful.
    assert_eq!(r.cache.total_latency, 12_984.0);
    assert_eq!(r.memory.packets, 191);
    assert_eq!(r.memory.total_latency, 3_023.0);
    assert!((r.g_apl() - 13.81104400345125).abs() < 1e-9);
    assert!((r.max_apl() - 14.245762711864407).abs() < 1e-9);
    assert!((r.mean_td_q() - 0.316100397918580).abs() < 1e-9);
    assert_eq!(r.network.arrival_draws, 1_365);
    // At this load the network is rarely quiescent; the unprobed run still
    // finds a few dead stretches. (Not part of semantic_eq — probed runs
    // clamp differently — but deterministic for the unprobed path.)
    assert_eq!(r.network.skipped_cycles, 23);

    // Two geometric runs of the same seed are bit-identical, probed or not.
    let again = geometric_small_scenario_network().run();
    assert!(r.semantic_eq(&again), "geometric seeded runs diverged");
    let probed = geometric_small_scenario_network().run_probed(&mut NoopSink);
    assert!(r.semantic_eq(&probed), "NoopSink diverged under Geometric");
    let mut sink = RingSink::new(1024);
    let ringed = geometric_small_scenario_network().run_probed(&mut sink);
    assert!(r.semantic_eq(&ringed), "RingSink diverged under Geometric");
}

/// Window spans stay exact when the fast-forward jumps over multi-window
/// idle stretches: one ultra-low-rate source (~0.5 pkt/kcycle/class) makes
/// the simulator skip ~98% of all cycles, yet every window on the grid is
/// emitted with its full span and the right phase.
#[test]
fn geometric_windows_stay_exact_across_skipped_regions() {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 5_000;
    cfg.max_drain_cycles = 20_000;
    cfg.seed = 7;
    cfg.injection = InjectionProcess::Geometric;
    let src = SourceSpec {
        tile: TileId(0),
        group: 0,
        cache: Schedule::per_kilocycle(0.5),
        mem: Schedule::per_kilocycle(0.5),
    };
    let traffic = TrafficSpec::new(vec![src], 1).expect("valid traffic");
    let mut sink = RingSink::new(1024);
    let r = Network::new(cfg, traffic)
        .expect("valid config")
        .run_probed(&mut sink);
    // Pinned: 3 arrivals total (2 in warmup), the run ends exactly at the
    // injection horizon, and the vast majority of cycles were skipped.
    assert_eq!(r.injected, 1);
    assert_eq!(r.delivered, 1);
    assert_eq!(r.network.cycles_run, 5_500);
    assert_eq!(r.network.arrival_draws, 5);
    assert_eq!(r.network.skipped_cycles, 5_409);
    let spans: Vec<(u64, u64, Phase, u64)> = sink
        .windows()
        .map(|w| (w.start_cycle, w.end_cycle, w.phase, w.injected_packets))
        .collect();
    assert_eq!(
        spans,
        vec![
            (0, 500, Phase::Warmup, 2),
            (500, 1_000, Phase::Measure, 0),
            (1_000, 2_000, Phase::Measure, 0),
            (2_000, 3_000, Phase::Measure, 1),
            (3_000, 4_000, Phase::Measure, 0),
            (4_000, 5_000, Phase::Measure, 0),
            (5_000, 5_500, Phase::Measure, 0),
        ]
    );
}

/// Piecewise epochs stay exact under geometric sampling: with a schedule
/// alternating silent and busy 1000-cycle epochs aligned to the window
/// grid, every silent-epoch window must report zero injections — a draw
/// leaking across an epoch boundary would break this immediately.
#[test]
fn geometric_piecewise_epoch_boundaries_are_exact() {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 4_000;
    cfg.max_drain_cycles = 20_000;
    cfg.seed = 11;
    cfg.injection = InjectionProcess::Geometric;
    let src = SourceSpec {
        tile: TileId(0),
        group: 0,
        cache: Schedule::Piecewise {
            epoch_cycles: 1_000,
            rates: vec![0.0, 0.05],
        },
        mem: Schedule::Constant(0.0),
    };
    let traffic = TrafficSpec::new(vec![src], 1).expect("valid traffic");
    let mut sink = RingSink::new(1024);
    let r = Network::new(cfg, traffic)
        .expect("valid config")
        .run_probed(&mut sink);
    assert_eq!(r.injected, 106);
    assert_eq!(r.delivered, 106);
    assert_eq!(r.network.cycles_run, 4_004);
    assert_eq!(r.network.arrival_draws, 107);
    assert_eq!(r.network.skipped_cycles, 2_889);
    assert_eq!(r.cache.total_latency, 1_749.0);
    let spans: Vec<(u64, u64, Phase, u64)> = sink
        .windows()
        .map(|w| (w.start_cycle, w.end_cycle, w.phase, w.injected_packets))
        .collect();
    // Epochs [0,1000) and [2000,3000) are silent: zero injections, exactly.
    assert_eq!(
        spans,
        vec![
            (0, 1_000, Phase::Measure, 0),
            (1_000, 2_000, Phase::Measure, 43),
            (2_000, 3_000, Phase::Measure, 0),
            (3_000, 4_000, Phase::Measure, 63),
            (4_000, 4_004, Phase::Drain, 0),
        ]
    );
}

/// The DESIGN.md §12 decomposition identity, pinned on the golden
/// scenario: for every delivered packet, `source_queue + in_network +
/// serialization = latency` holds *exactly*, and the measured packets'
/// latencies aggregate to the same totals the report accumulates.
#[test]
fn pinned_decomposition_identity_on_golden_scenario() {
    let mut sink = RingSink::new(65_536).with_packets();
    let r = small_scenario_network().run_probed(&mut sink);
    assert!(r.semantic_eq(&small_scenario()), "packet probe perturbed");

    let packets: Vec<_> = sink.packets().copied().collect();
    assert!(!packets.is_empty());
    for p in &packets {
        assert_eq!(
            p.source_queue() + p.in_network() + p.serialization(),
            p.latency(),
            "decomposition identity broken for {p:?}"
        );
        assert!(p.inject_cycle >= p.enqueue_cycle);
        assert!(p.head_eject_cycle >= p.inject_cycle);
        assert!(p.tail_eject_cycle >= p.head_eject_cycle);
    }
    // Measured packet records reconcile with the report: same count, and
    // their latencies sum to the report's exact f64 totals.
    let measured: Vec<_> = packets.iter().filter(|p| p.measured).collect();
    assert_eq!(measured.len() as u64, r.delivered);
    assert_eq!(measured.len(), 1_092);
    let latency_sum: u64 = measured.iter().map(|p| p.latency()).sum();
    assert_eq!(
        latency_sum as f64,
        r.cache.total_latency + r.memory.total_latency
    );

    // The flow summary is exactly the aggregation of the measured records.
    let flow = sink
        .flow_summaries()
        .next()
        .expect("probed run emits a flow summary");
    assert_eq!(flow.total_packets(), r.delivered);
    assert_eq!(flow.cache.packets, r.cache.packets);
    assert_eq!(flow.memory.packets, r.memory.packets);
    let merged = flow.merged();
    assert_eq!(merged.histogram.total(), r.delivered);
    assert_eq!(
        merged.source_queue + merged.in_network + merged.serialization,
        latency_sum
    );
}

/// The heatmap conservation law on both pinned scenarios: the per-link
/// flit counts sum to exactly `NetworkStats.link_flit_traversals`
/// (9 592 under Bernoulli, 10 325 under Geometric — the PR 1/PR 4 golden
/// values), and the ASCII rendering is deterministic.
#[test]
fn pinned_heatmap_link_conservation_both_injection_modes() {
    let mut sink = RingSink::new(1_024);
    let r = small_scenario_network().run_probed(&mut sink);
    let heat = sink.heatmaps().next().expect("heatmap emitted");
    assert_eq!(r.network.link_flit_traversals, 9_592);
    assert_eq!(heat.total_link_flits(), 9_592);
    assert_eq!(heat.links().map(|l| l.flits).sum::<u64>(), 9_592);
    assert_eq!(heat.num_links(), r.network.num_links);
    assert_eq!(heat.cycles, r.network.cycles_run);
    assert_eq!(heat.ascii_mesh(), heat.ascii_mesh());

    let mut sink = RingSink::new(1_024);
    let r = geometric_small_scenario_network().run_probed(&mut sink);
    let heat = sink.heatmaps().next().expect("heatmap emitted");
    assert_eq!(r.network.link_flit_traversals, 10_325);
    assert_eq!(heat.total_link_flits(), 10_325);
    assert_eq!(heat.links().map(|l| l.flits).sum::<u64>(), 10_325);

    // Occupancy integrals only accumulate where flits actually were, and
    // the stall counters stay plausible (bounded by cycles × routers).
    let total_occ: u64 = heat.vc_occupancy.iter().sum();
    assert!(total_occ > 0, "traffic must occupy buffers");
    let n_routers = (heat.rows * heat.cols) as u64;
    for stalls in [&heat.credit_stalls, &heat.vc_stalls] {
        let total: u64 = stalls.iter().sum();
        assert!(total <= heat.cycles * n_routers);
    }
}

/// A torus's heatmap covers its wrap-around links: on a 4×4 torus all 64
/// directed links, summing to every link traversal of the run, and the
/// JSON sink writes each of them with its wrap destination. Without the
/// wraps the heatmap saw 48 links and lost the traversals across the
/// chip's edges, and `num_links` overstated mean link utilization by 4/3.
#[test]
fn torus_heatmap_counts_wrap_links() {
    let mesh = Mesh::square(4);
    let network = || {
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.topology = Topology::Torus;
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 5_000;
        let traffic = TrafficSpec::uniform(
            &mesh,
            Schedule::per_kilocycle(10.0),
            Schedule::per_kilocycle(1.0),
        );
        Network::new(cfg, traffic).expect("valid config")
    };
    let (r, heat) = probed_heatmap(network());
    assert!(heat.wrap);
    assert_eq!(r.network.num_links, 64);
    assert_eq!(heat.num_links(), 64);
    assert_eq!(heat.links().count(), 64);
    let total: u64 = heat.links().map(|l| l.flits).sum();
    assert_eq!(total, r.network.link_flit_traversals);
    assert_eq!(total, heat.total_link_flits());
    let wrap_flits: u64 = heat
        .links()
        .filter(|l| l.to.abs_diff(l.tile) != 1 && l.to.abs_diff(l.tile) != 4)
        .map(|l| l.flits)
        .sum();
    assert!(wrap_flits > 0, "no traffic crossed a wrap link");
    assert_eq!(
        r.network.mean_link_utilization(),
        total as f64 / (64.0 * r.network.cycles_run as f64)
    );

    let mut buf = Vec::new();
    let mut sink = JsonLinesSink::new(&mut buf);
    let again = network().run_probed(&mut sink);
    assert!(again.semantic_eq(&r));
    let text = String::from_utf8(buf).expect("utf-8");
    let line = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON line"))
        .find(|v| v.get("type").and_then(Value::as_str) == Some("heatmap"))
        .expect("heatmap line");
    assert_eq!(line.get("wrap"), Some(&Value::Bool(true)));
    let links: Vec<(u64, u64, u64, u64)> = line
        .get("links")
        .and_then(Value::as_arr)
        .expect("links array")
        .iter()
        .map(|l| {
            let field = |k: &str| l.get(k).and_then(Value::as_u64).expect("link field");
            (field("tile"), field("port"), field("to"), field("flits"))
        })
        .collect();
    let expected: Vec<(u64, u64, u64, u64)> = heat
        .links()
        .map(|l| (l.tile as u64, l.port as u64, l.to as u64, l.flits))
        .collect();
    assert_eq!(links, expected);
    assert_eq!(
        line.get("total_link_flits").and_then(Value::as_u64),
        Some(total)
    );
}

/// The heatmap of one probed run, plus its report.
fn probed_heatmap(net: Network) -> (SimReport, HeatmapRecord) {
    let mut sink = RingSink::new(1_024);
    let r = net.run_probed(&mut sink);
    let heat = sink.heatmaps().next().expect("heatmap emitted").clone();
    (r, heat)
}

/// Order-sensitive fingerprint of a per-router (or per-VC) counter
/// vector: its total plus a position-weighted sum, so a count moving
/// between routers changes the fingerprint even when the total holds.
fn fingerprint(v: &[u64]) -> (u64, u64) {
    let weighted = v.iter().enumerate().map(|(i, &x)| (i as u64 + 1) * x);
    (v.iter().sum(), weighted.sum())
}

/// The 8×8 saturated scenario (uniform 48 cache + 7.2 memory packets per
/// kilocycle per source, Bernoulli) with the crossbar input limit on or
/// off, shortened so the debug-mode suite stays quick.
fn saturated_8x8_network(crossbar_input_limit: bool) -> Network {
    let mesh = Mesh::square(8);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_000;
    cfg.max_drain_cycles = 4_000;
    cfg.seed = 48;
    cfg.crossbar_input_limit = crossbar_input_limit;
    let traffic = TrafficSpec::uniform(
        &mesh,
        Schedule::per_kilocycle(48.0),
        Schedule::per_kilocycle(7.2),
    );
    Network::new(cfg, traffic).expect("valid config")
}

/// `pinned_stall_counters_small_scenarios` goldens, captured on the
/// full-scan allocator: per-router switch, VC and credit stalls, and the
/// `vc_occupancy` fingerprint, for the Bernoulli and geometric scenarios.
const GOLDEN_SMALL_SWITCH: [u64; 16] = [
    461, 619, 809, 946, 790, 1139, 1203, 1947, 957, 1290, 1468, 2693, 418, 759, 1014, 680,
];
const GOLDEN_SMALL_VC: [u64; 16] = [0; 16];
const GOLDEN_SMALL_CREDIT: [u64; 16] = [0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0];
const GOLDEN_SMALL_OCC: (u64, u64) = (40_152, 1_988_974);
const GOLDEN_GEOM_SWITCH: [u64; 16] = [
    462, 760, 937, 1036, 1092, 1299, 1290, 2071, 1131, 1402, 1579, 2727, 668, 966, 936, 728,
];
const GOLDEN_GEOM_VC: [u64; 16] = [0; 16];
const GOLDEN_GEOM_CREDIT: [u64; 16] = [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0];
const GOLDEN_GEOM_OCC: (u64, u64) = (42_807, 2_092_729);

/// `pinned_stall_counters_saturated_8x8` goldens, captured on the
/// full-scan allocator: `(crossbar_input_limit, link traversals, switch,
/// VC, credit, occupancy)`, each counter as its [`fingerprint`].
type SaturatedGolden = (bool, u64, (u64, u64), (u64, u64), (u64, u64), (u64, u64));
const GOLDEN_SATURATED: [SaturatedGolden; 2] = [
    (
        true,
        61_890,
        (159_659, 5_316_873),
        (61, 2_196),
        (332, 11_693),
        (278_151, 54_040_081),
    ),
    (
        false,
        61_890,
        (0, 0),
        (50, 1_825),
        (313, 10_682),
        (271_522, 52_716_191),
    ),
];

/// Per-router stall counters and buffer-occupancy integrals, pinned on
/// the full-scan switch allocator (every occupied slot visited per output
/// port). Any faster arbitration scan must reproduce them exactly: the
/// counters are observer state, so they are the only witness that the
/// probed path still visits — and charges — the same slots.
#[test]
fn pinned_stall_counters_small_scenarios() {
    let (r, heat) = probed_heatmap(small_scenario_network());
    assert_eq!(r.network.link_flit_traversals, 9_592);
    assert_eq!(heat.switch_stalls, GOLDEN_SMALL_SWITCH);
    assert_eq!(heat.vc_stalls, GOLDEN_SMALL_VC);
    assert_eq!(heat.credit_stalls, GOLDEN_SMALL_CREDIT);
    assert_eq!(fingerprint(&heat.vc_occupancy), GOLDEN_SMALL_OCC);

    let (r, heat) = probed_heatmap(geometric_small_scenario_network());
    assert_eq!(r.network.link_flit_traversals, 10_325);
    assert_eq!(heat.switch_stalls, GOLDEN_GEOM_SWITCH);
    assert_eq!(heat.vc_stalls, GOLDEN_GEOM_VC);
    assert_eq!(heat.credit_stalls, GOLDEN_GEOM_CREDIT);
    assert_eq!(fingerprint(&heat.vc_occupancy), GOLDEN_GEOM_OCC);
}

/// The same pin on a saturated 8×8 mesh, where every stall kind fires
/// often, with the crossbar input limit on (switch stalls counted) and
/// off (switch stalls impossible, more pops per router and cycle).
#[test]
fn pinned_stall_counters_saturated_8x8() {
    for (limit, link, switch, vc, credit, occ) in GOLDEN_SATURATED {
        let (r, heat) = probed_heatmap(saturated_8x8_network(limit));
        assert_eq!(r.network.link_flit_traversals, link, "limit={limit}");
        assert_eq!(heat.total_link_flits(), link, "limit={limit}");
        assert_eq!(fingerprint(&heat.switch_stalls), switch, "limit={limit}");
        assert_eq!(fingerprint(&heat.vc_stalls), vc, "limit={limit}");
        assert_eq!(fingerprint(&heat.credit_stalls), credit, "limit={limit}");
        assert_eq!(fingerprint(&heat.vc_occupancy), occ, "limit={limit}");
        assert!(r.semantic_eq(&saturated_8x8_network(limit).run()));
    }
}

/// One corner of the router's configuration space on a 4×4 chip with
/// mixed-class traffic from every tile: pipeline depth, crossbar input
/// limit, topology + routing, buffer depth and VC count.
#[derive(Debug, Clone, Copy)]
struct Corner {
    stages: u64,
    limit: bool,
    torus_yx: bool,
    depth: usize,
    vcs: usize,
    rate: f64,
    seed: u64,
}

fn corner_network(c: Corner) -> Network {
    let mesh = Mesh::square(4);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.router_stages = c.stages;
    cfg.crossbar_input_limit = c.limit;
    if c.torus_yx {
        cfg.topology = Topology::Torus;
        cfg.routing = RoutingKind::Yx;
    }
    cfg.buffer_depth = c.depth;
    cfg.vcs_per_class = c.vcs;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 1_000;
    cfg.max_drain_cycles = 20_000;
    cfg.seed = c.seed;
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: Schedule::Constant(c.rate),
            mem: Schedule::Constant(c.rate * 0.2),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

/// Corner goldens captured on the full-scan allocator: zero-stage
/// routers (a popped slot's next flit may be switch-ready in the same
/// cycle), no crossbar input limit (one slot may win several outputs per
/// cycle), torus/YX and one-flit buffers. Per corner: link traversals,
/// total measured latency, then switch/VC/credit stall and occupancy
/// fingerprints.
type CornerGolden = (Corner, u64, f64, [(u64, u64); 4]);
const GOLDEN_CORNERS: [CornerGolden; 5] = [
    (
        Corner {
            stages: 0,
            limit: false,
            torus_yx: true,
            depth: 1,
            vcs: 1,
            rate: 0.03,
            seed: 3,
        },
        3_479,
        4_420.0,
        [(0, 0), (243, 1_914), (1_466, 12_228), (5_252, 80_177)],
    ),
    (
        Corner {
            stages: 0,
            limit: true,
            torus_yx: false,
            depth: 1,
            vcs: 2,
            rate: 0.03,
            seed: 4,
        },
        3_905,
        3_979.0,
        [(195, 1_835), (7, 59), (1_120, 9_202), (5_252, 164_540)],
    ),
    (
        Corner {
            stages: 0,
            limit: false,
            torus_yx: false,
            depth: 3,
            vcs: 3,
            rate: 0.05,
            seed: 5,
        },
        7_125,
        5_692.0,
        [(0, 0), (0, 0), (52, 362), (9_138, 415_332)],
    ),
    (
        Corner {
            stages: 1,
            limit: false,
            torus_yx: true,
            depth: 2,
            vcs: 2,
            rate: 0.04,
            seed: 6,
        },
        4_447,
        5_620.0,
        [(0, 0), (9, 87), (574, 4_784), (10_515, 332_509)],
    ),
    (
        Corner {
            stages: 2,
            limit: true,
            torus_yx: true,
            depth: 1,
            vcs: 1,
            rate: 0.02,
            seed: 7,
        },
        2_413,
        6_715.0,
        [(72, 609), (499, 4_020), (870, 7_508), (8_655, 140_478)],
    ),
];

#[test]
fn pinned_stall_counters_router_corners() {
    for (corner, link, latency, stalls) in GOLDEN_CORNERS {
        let (r, heat) = probed_heatmap(corner_network(corner));
        assert!(r.fully_drained, "{corner:?}");
        assert_eq!(r.network.link_flit_traversals, link, "{corner:?}");
        assert_eq!(
            r.cache.total_latency + r.memory.total_latency,
            latency,
            "{corner:?}"
        );
        let got = [
            fingerprint(&heat.switch_stalls),
            fingerprint(&heat.vc_stalls),
            fingerprint(&heat.credit_stalls),
            fingerprint(&heat.vc_occupancy),
        ];
        assert_eq!(got, stalls, "{corner:?}");
        assert!(r.semantic_eq(&corner_network(corner).run()), "{corner:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The probed run shares the plain run's arbitration scan, so across
    /// the router's corner space it must stay semantically identical and
    /// its heatmap must conserve every link traversal. Torus corners may
    /// deadlock (dimension-order wormhole routing without a dateline VC);
    /// the drain budget bounds them and both runs must still agree.
    #[test]
    fn probed_run_matches_plain_in_every_router_corner(
        stages in 0u64..=3,
        limit in any::<bool>(),
        torus_yx in any::<bool>(),
        depth in 1usize..=5,
        vcs in 1usize..=3,
        rate in 0.002f64..0.06,
        seed in any::<u64>(),
    ) {
        let c = Corner { stages, limit, torus_yx, depth, vcs, rate, seed };
        let plain = corner_network(c).run();
        let (probed, heat) = probed_heatmap(corner_network(c));
        prop_assert!(probed.semantic_eq(&plain), "probed run diverged: {:?}", c);
        prop_assert_eq!(heat.total_link_flits(), plain.network.link_flit_traversals);
        if !limit {
            prop_assert_eq!(heat.switch_stalls.iter().sum::<u64>(), 0);
        }
    }
}

/// Sampled phase spans are write-only observers that count every
/// executed cycle. Under both injection processes (Geometric exercises
/// the fast-forward) a metered run is `semantic_eq` to the plain one,
/// each `sim/<phase>` span counts `cycles_run − skipped_cycles`,
/// `sim/serial/cycle` totals the five phases, and the logical clock
/// zeroes every duration.
#[test]
fn metered_runs_span_every_executed_cycle_without_perturbing_it() {
    const PHASES: [&str; 5] = [
        "sim/generate",
        "sim/inject",
        "sim/route",
        "sim/traverse",
        "sim/telemetry",
    ];
    for network in [small_scenario_network, geometric_small_scenario_network] {
        let plain = network().run();
        let executed = plain.network.cycles_run - plain.network.skipped_cycles;
        for clock in [ClockMode::Wall, ClockMode::Logical] {
            let registry = MetricsRegistry::with_clock(clock);
            let metered = network().with_metrics(registry.handle()).run();
            assert!(metered.semantic_eq(&plain), "metrics perturbed the run");
            let snap = registry.snapshot();
            let cycle = &snap.spans["sim/serial/cycle"];
            let mut total = 0;
            for phase in PHASES {
                let span = &snap.spans[phase];
                assert_eq!(span.count, executed, "{phase} under {clock:?}");
                if clock == ClockMode::Logical {
                    assert_eq!((span.total_nanos, span.max_nanos), (0, 0), "{phase}");
                }
                total += span.total_nanos;
            }
            assert_eq!(cycle.count, executed);
            assert_eq!(cycle.total_nanos, total);
            if clock == ClockMode::Logical {
                assert_eq!((cycle.total_nanos, cycle.max_nanos), (0, 0));
            }
        }
    }
    // The geometric run really fast-forwarded, so its executed count is
    // not just `cycles_run`.
    assert!(
        geometric_small_scenario_network()
            .run()
            .network
            .skipped_cycles
            > 0
    );
}

/// Nearest-rank quantile on a plain sorted vector — the reference the
/// histogram implementation must match.
fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact-quantile reconstruction: the flow histogram's quantiles must
    /// equal quantiles computed from the raw sorted per-packet latency
    /// list, for random loads and random probe points — the histogram is
    /// lossless, not an approximation.
    #[test]
    fn histogram_quantiles_match_sorted_raw_latencies(
        cache_rate in 0.002f64..0.04,
        seed in any::<u64>(),
        qs in proptest::collection::vec(0.01f64..1.0, 1..6),
    ) {
        let mesh = Mesh::square(4);
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_500;
        cfg.max_drain_cycles = 200_000;
        cfg.seed = seed;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: t.index() % 2,
                cache: Schedule::Constant(cache_rate),
                mem: Schedule::Constant(cache_rate * 0.2),
            })
            .collect();
        let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
        let mut sink = RingSink::new(65_536).with_packets();
        let r = Network::new(cfg, traffic).expect("valid config").run_probed(&mut sink);
        prop_assert!(r.fully_drained);

        let mut raw: Vec<u64> = sink
            .packets()
            .filter(|p| p.measured)
            .map(|p| p.latency())
            .collect();
        prop_assert_eq!(raw.len() as u64, r.delivered);
        raw.sort_unstable();

        let flow = sink.flow_summaries().next().expect("flow summary emitted");
        let h = &flow.merged().histogram;
        prop_assert_eq!(h.total(), raw.len() as u64);
        if raw.is_empty() {
            prop_assert_eq!(h.quantile(0.99), None);
        } else {
            prop_assert_eq!(h.min(), Some(raw[0]));
            prop_assert_eq!(h.max(), Some(*raw.last().unwrap()));
            prop_assert_eq!(h.quantile(1.0), h.max());
            for &q in &qs {
                prop_assert_eq!(
                    h.quantile(q),
                    Some(sorted_quantile(&raw, q)),
                    "quantile({}) drifted from the sorted reference", q
                );
            }
        }
        // Per-packet decomposition identity holds under random load too.
        for p in sink.packets() {
            prop_assert_eq!(
                p.source_queue() + p.in_network() + p.serialization(),
                p.latency()
            );
        }
        // And the heatmap conserves flit traversals under random load.
        let heat = sink.heatmaps().next().expect("heatmap emitted");
        prop_assert_eq!(heat.total_link_flits(), r.network.flit_hops());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Heatmap link conservation under `InjectionProcess::Geometric` with
    /// fast-forward: skipped regions must not lose or invent link
    /// traversals.
    #[test]
    fn geometric_heatmap_conserves_link_flits(
        cache_rate in 0.0005f64..0.03,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::square(4);
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_500;
        cfg.max_drain_cycles = 200_000;
        cfg.seed = seed;
        cfg.injection = InjectionProcess::Geometric;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: t.index() % 2,
                cache: Schedule::Constant(cache_rate),
                mem: Schedule::Constant(cache_rate * 0.2),
            })
            .collect();
        let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
        let mut sink = RingSink::new(4_096);
        let r = Network::new(cfg, traffic).expect("valid config").run_probed(&mut sink);
        prop_assert!(r.fully_drained);
        let heat = sink.heatmaps().next().expect("heatmap emitted");
        prop_assert_eq!(heat.total_link_flits(), r.network.link_flit_traversals);
        prop_assert_eq!(heat.links().map(|l| l.flits).sum::<u64>(), heat.total_link_flits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: with a drain budget generous enough to finish, every
    /// injected (measured) packet is delivered exactly once, and the flit
    /// totals agree across all three accounting axes (class, group,
    /// source) — under random loads, buffer depths and VC counts.
    #[test]
    fn packets_and_flits_are_conserved(
        n in 3usize..=4,
        vcs in 1usize..=3,
        depth in 2usize..=6,
        cache_rate in 0.001f64..0.05,
        mem_rate in 0.0f64..0.01,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::square(n);
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.vcs_per_class = vcs;
        cfg.buffer_depth = depth;
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_500;
        cfg.max_drain_cycles = 200_000;
        cfg.seed = seed;
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
        let r = Network::new(cfg, traffic).expect("valid config").run();
        prop_assert!(r.fully_drained, "drain budget exhausted");
        prop_assert_eq!(r.injected, r.delivered);
        // Class, group and source accounting must agree packet-by-packet.
        let by_class = r.cache.packets + r.memory.packets;
        let by_group: u64 = r.groups.iter().map(|g| g.packets).sum();
        let by_source: u64 = r.per_source.iter().map(|s| s.packets).sum();
        prop_assert_eq!(by_class, r.delivered);
        prop_assert_eq!(by_group, r.delivered);
        prop_assert_eq!(by_source, r.delivered);
        let flits_by_class = r.cache.total_flits + r.memory.total_flits;
        let flits_by_group: u64 = r.groups.iter().map(|g| g.total_flits).sum();
        prop_assert_eq!(flits_by_class, flits_by_group);
        let hops_by_class = r.cache.flit_hops + r.memory.flit_hops;
        let hops_by_group: u64 = r.groups.iter().map(|g| g.flit_hops).sum();
        prop_assert_eq!(hops_by_class, hops_by_group);
        prop_assert_eq!(r.total_flit_hops(), hops_by_class);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation under `InjectionProcess::Geometric` + fast-forward:
    /// the event-driven front-end must inject/deliver exactly like a
    /// cycle-stepped one — no packet may be lost or duplicated across
    /// skipped regions, and all accounting axes must still agree.
    #[test]
    fn geometric_packets_and_flits_are_conserved(
        n in 3usize..=4,
        vcs in 1usize..=3,
        depth in 2usize..=6,
        cache_rate in 0.0005f64..0.05,
        mem_rate in 0.0f64..0.01,
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::square(n);
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.vcs_per_class = vcs;
        cfg.buffer_depth = depth;
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_500;
        cfg.max_drain_cycles = 200_000;
        cfg.seed = seed;
        cfg.injection = InjectionProcess::Geometric;
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
        let r = Network::new(cfg, traffic).expect("valid config").run();
        prop_assert!(r.fully_drained, "drain budget exhausted");
        prop_assert_eq!(r.injected, r.delivered);
        let by_class = r.cache.packets + r.memory.packets;
        let by_group: u64 = r.groups.iter().map(|g| g.packets).sum();
        let by_source: u64 = r.per_source.iter().map(|s| s.packets).sum();
        prop_assert_eq!(by_class, r.delivered);
        prop_assert_eq!(by_group, r.delivered);
        prop_assert_eq!(by_source, r.delivered);
        let flits_by_class = r.cache.total_flits + r.memory.total_flits;
        let flits_by_group: u64 = r.groups.iter().map(|g| g.total_flits).sum();
        prop_assert_eq!(flits_by_class, flits_by_group);
        // One uniform per injected packet is the *minimum* draw count
        // (cross-epoch resamples add more; constant schedules never do,
        // but warmup+measure packets both draw while only measured ones
        // count into `injected`).
        prop_assert!(r.network.arrival_draws >= r.injected);
    }
}

/// One seeded random configuration of the fingerprint suite. The
/// categorical axes come from the bits of `case` (topology, routing,
/// injection process, schedule kind); bit 3 (`case & 8`) once chose the
/// 2-shard engine, which was bit-identical to serial, and now selects
/// nothing. Buffer shape, router stages, loads and run length are drawn
/// from `SmallRng::seed_from_u64(case)`.
fn fuzz_network(case: u64) -> Network {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + case);
    let mesh = Mesh::new(rng.gen_range(2..=5), rng.gen_range(2..=5));
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.topology = if case & 1 == 0 {
        Topology::Mesh
    } else {
        Topology::Torus
    };
    cfg.routing = if case & 2 == 0 {
        RoutingKind::Xy
    } else {
        RoutingKind::Yx
    };
    cfg.injection = if case & 4 == 0 {
        InjectionProcess::BernoulliPerCycle
    } else {
        InjectionProcess::Geometric
    };
    let piecewise = case & 16 != 0;
    cfg.router_stages = rng.gen_range(0..=3);
    cfg.vcs_per_class = rng.gen_range(1..=3);
    cfg.buffer_depth = rng.gen_range(1..=5);
    cfg.crossbar_input_limit = rng.gen_range(0..4) != 0;
    cfg.long_fraction = rng.gen_range(0.0..1.0);
    cfg.warmup_cycles = rng.gen_range(0..=300);
    cfg.measure_cycles = rng.gen_range(600..=1_500);
    cfg.max_drain_cycles = 2_000;
    cfg.telemetry_window = rng.gen_range(100..=500);
    cfg.seed = rng.gen_range(0..u64::MAX);
    let load = rng.gen_range(0.002..0.12);
    let schedule = |rng: &mut SmallRng, scale: f64| {
        if piecewise {
            let epochs = rng.gen_range(1..=4);
            let rates = (0..epochs)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    _ => rng.gen_range(0.0..load * scale),
                })
                .collect();
            Schedule::Piecewise {
                epoch_cycles: rng.gen_range(40..=400),
                rates,
            }
        } else {
            Schedule::Constant(rng.gen_range(0.0..load * scale))
        }
    };
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: schedule(&mut rng, 1.0),
            mem: schedule(&mut rng, 0.25),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

/// FNV-1a of every simulated bit of a report: the accumulators (through
/// their `Debug` rendering, which prints each f64 exactly and covers the
/// private fields) and the counters. Wall time and the link count are
/// left out.
fn report_fingerprint(r: &SimReport) -> u64 {
    let accums = r
        .groups
        .iter()
        .chain(&r.per_source)
        .chain([&r.cache, &r.memory]);
    let text: String = accums.map(|a| format!("{a:?}")).collect();
    let n = &r.network;
    fnv1a(text.bytes().map(u64::from).chain([
        r.measured_cycles,
        r.injected,
        r.delivered,
        r.fully_drained as u64,
        n.link_flit_traversals,
        n.peak_buffered_flits as u64,
        n.cycles_run,
        n.peak_live_packets as u64,
        n.packet_slab_slots as u64,
        n.arrival_draws,
        n.skipped_cycles,
    ]))
}

/// FNV-1a of a heatmap's raw counters: per-port link slots (wrap links
/// included), occupancy integrals and the three stall vectors.
fn heatmap_fingerprint(h: &HeatmapRecord) -> u64 {
    fnv1a(
        [h.cycles]
            .into_iter()
            .chain(h.link_flits.iter().copied())
            .chain(h.vc_occupancy.iter().copied())
            .chain(h.credit_stalls.iter().copied())
            .chain(h.vc_stalls.iter().copied())
            .chain(h.switch_stalls.iter().copied()),
    )
}

/// FNV-1a of every per-packet record, in delivery order.
fn packets_fingerprint<'a>(records: impl Iterator<Item = &'a PacketRecord>) -> u64 {
    fnv1a(records.flat_map(|p| {
        [
            p.src as u64,
            p.dst as u64,
            p.cache as u64,
            p.group as u64,
            p.flits as u64,
            p.hops as u64,
            p.enqueue_cycle,
            p.inject_cycle,
            p.head_eject_cycle,
            p.tail_eject_cycle,
            p.measured as u64,
        ]
    }))
}

/// `(report, heatmap, packets)` fingerprints of the 48 `fuzz_network`
/// cases, captured before routers could sleep and before arrivals were
/// drawn against threshold tables. The report fingerprint is of the
/// plain run; the other two come from a probed run with packet records.
const GOLDEN_FUZZ: [[u64; 3]; 48] = [
    [0x48ae2db6b6dab79e, 0x1f59c28c3f5c926c, 0xab30f2fc0e04e6b9],
    [0x4e5425a1cb23d005, 0x0e062b47dca08b8a, 0x74b2a9bab6092e7b],
    [0xeb0cdd2e226d0a99, 0xa5b61b9ebfb8d17c, 0xc1fcf0a7dc000fe6],
    [0xccca97267c965600, 0x79a87a30087f58f5, 0x1c1e4b54acb5a21e],
    [0x7d85848e8307e571, 0xce00a41cbe7b3715, 0xdbe42c775e27b317],
    [0xf99c89232a1823bd, 0x67f7f1ce8451b589, 0xb0a8dc96e2556f2d],
    [0x617730638a4971de, 0x6e58efd48d102988, 0x44ed22f8d477081a],
    [0x2a9ef0ce2a9fb649, 0xf4e0d3877c0c5405, 0x1bacf1dd7da21acd],
    [0x2c6cf20ab012f7e8, 0x45f9b57994effa3b, 0xb1b366230c51c64b],
    [0xd8dc43a482190466, 0x8f005e7802db3a19, 0xc2e5da058a0da947],
    [0x79b4ca48a9c72290, 0x543fe1e8862fb05e, 0xcb93c4663ea93321],
    [0xcbb7f749c1b75eda, 0x8b6389ddbe356e22, 0x4ee7b343f0157ace],
    [0xf32e81573cf65676, 0x25157b0fd8eeba3c, 0x8196de7b2ccfd020],
    [0x46645841e66bcbd3, 0xddae07170fe38f0e, 0xb3b8650ac4e4d816],
    [0x9f69070e32f65ebd, 0x4b07a5b6633bba62, 0x16da3aad654302fd],
    [0x5c58898db880cd96, 0xa394736915b4a114, 0x735f9619632e46ca],
    [0x35d96aa23dc13417, 0x29ca933fa84fb6b3, 0xf75fc361732132fb],
    [0x60af6f7282e10505, 0xa70f8d14df7a1bc2, 0xef97bdd5afbfa7fe],
    [0x3017e44274587ffd, 0x5de4f7908e01a132, 0x5771c7ae767305be],
    [0xc294c249f02dc999, 0xdca7b01b89493ea0, 0xf740b53e3bc4a1e3],
    [0x0290fb32b63f3449, 0xfd289c12a81e5dec, 0x9b1e35ad5e7ed1fc],
    [0xa63df81757aea060, 0xedc1197f7bbaf2cb, 0x8f1daedc621c3d22],
    [0x2dc35ad44aa6d84d, 0xa401b19b3f1f91fb, 0x937b3f5befb4cea5],
    [0xe2806cfe74520ff5, 0x2ed4668608c8547e, 0x77d87aab78a7f2ab],
    [0xb841a594a0eb2a15, 0x9d6db49152f3e8b3, 0xb9a1993ee202d52e],
    [0xcce800e204535496, 0x360a7b855ed8a8fb, 0x83395805fe76680a],
    [0x026b5be801aa5755, 0x697c558ff97a347f, 0x4a8125d6dd47c599],
    [0xe2e8fbf6a001248a, 0x54a3a2654341ebd2, 0xd4354c07ab0a2b77],
    [0x1e4f47c1e5145e18, 0x244b959e8dee03ec, 0x55731604570a21e7],
    [0x881e59f5e0e6db68, 0x2d2ec974a4dbed9a, 0x8f0c61c6be9f2784],
    [0x79736fc2b24ca38c, 0x3136ac518d0dfa74, 0x00c5dcd325850d0d],
    [0xceb0cb3093a97d8f, 0xd7640cc185da6a29, 0x7c89dd992040176d],
    [0x0eec9c0478077e4d, 0x25131072717b4ed7, 0x75edd3a9be284f46],
    [0x5230cb17f1c48005, 0x9989f9ea8e231522, 0x9ab5291248a71aec],
    [0x4046684835f76a37, 0xe0f938b4072bd388, 0x5d4abd671b1a082c],
    [0x2c65e32a2593e1c9, 0x6f99cca1884ddb49, 0x626a4312735ed634],
    [0xd68e1f61098b8ca8, 0x8f69111e849f26f6, 0x3f90097a505d2c43],
    [0xde0dcb907098b472, 0x259cba8ab3e1d07f, 0xa0c5c4ac7ce0466e],
    [0x04b55fd7652f1dc3, 0xe0b005098e6b2909, 0x3d8b8aee9dd67fd4],
    [0x15788b0cc89c8543, 0x4040714aac8cda0c, 0xb473264afec7a9c8],
    [0x68798bacda890361, 0xcf534038e1d00ceb, 0x2f252e0026a27428],
    [0xbe945d6f5ca113a5, 0x575fdb352e3f1094, 0xf422558e2b4e0124],
    [0xa88f746f71dd66a0, 0xe0acd97ad88362a1, 0xea1ef6d9474c238a],
    [0xc088d8976c609a12, 0xa995c4d8dbbb2dcd, 0x14c0175b6b9bf54e],
    [0xcba94cbcf8039376, 0xcc4806e20b077d32, 0x79403e0b70529155],
    [0x09a48751e436f94a, 0xe57084c502f0c12c, 0xf2d48124a923bfda],
    [0x8dc713990baff217, 0x04444bdb4d866163, 0x60b7425aee9515d7],
    [0xd44d3f8ead1c4c9e, 0x68a316cd972b9a45, 0x98af193a6f81ec61],
];

/// Every simulated bit, every telemetry counter and every packet record
/// of 48 random configurations (mesh and torus, XY and YX, 0–3 router
/// stages, 1–3 VCs, depth 1–5, constant and piecewise schedules,
/// Bernoulli and geometric injection) must reproduce the
/// fingerprints captured on the straightforward simulator. In debug
/// builds every skipped router step is also checked against the full
/// front scan, so this suite exercises that oracle across the corners.
#[test]
fn random_configs_reproduce_pinned_fingerprints() {
    let mut got = Vec::new();
    for case in 0..GOLDEN_FUZZ.len() as u64 {
        let plain = fuzz_network(case).run();
        let mut sink = RingSink::new(1 << 20).with_packets();
        let probed = fuzz_network(case).run_probed(&mut sink);
        assert!(plain.semantic_eq(&probed), "case {case}: probe perturbed");
        assert_eq!(sink.dropped(), 0);
        let heat = sink.heatmaps().next().expect("heatmap emitted");
        got.push([
            report_fingerprint(&plain),
            heatmap_fingerprint(heat),
            packets_fingerprint(sink.packets()),
        ]);
    }
    assert_eq!(got, GOLDEN_FUZZ, "\n{got:#x?}");
}

/// One corner of the deferred-transfer suite: a loaded 4×4 mesh
/// (`torus = false`) or 3×3 torus with one VC per class and 2-flit
/// buffers, so credits bind and flits queue at every hop.
fn deferral_network(torus: bool, link_cycles: u64, router_stages: u64, limit: bool) -> Network {
    let mesh = if torus {
        Mesh::square(3)
    } else {
        Mesh::square(4)
    };
    let mut cfg = SimConfig::paper_defaults(mesh);
    if torus {
        cfg.topology = Topology::Torus;
    }
    cfg.link_cycles = link_cycles;
    cfg.router_stages = router_stages;
    cfg.crossbar_input_limit = limit;
    cfg.vcs_per_class = 1;
    cfg.buffer_depth = 2;
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_500;
    cfg.max_drain_cycles = 5_000;
    cfg.telemetry_window = 250;
    cfg.seed = 2014;
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 2,
            cache: Schedule::Constant(0.05),
            mem: Schedule::Constant(0.012),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config")
}

/// `(report, heatmap, packets)` fingerprints of the 16 deferral corners,
/// in `(torus, link_cycles, router_stages, crossbar_input_limit)` order,
/// captured when the router pass still recorded every effect and
/// replayed it after the pass.
const GOLDEN_DEFERRAL: [[u64; 3]; 16] = [
    [0x2edfcb8728245ef8, 0x621ac19d543ccb1d, 0x10120561ef412cc2],
    [0x42003019d1900e3b, 0x297fc80395c0d3fe, 0xc3ddfb8d596a3245],
    [0x73029f1bbbedafdd, 0x136674b99fbd2515, 0x481b1dd4b0f7e87f],
    [0x1be8fba1cf3ad3a9, 0xe6b9c9093054e5f1, 0x2c7458b6a8dd21a5],
    [0x2edfcb8728245ef8, 0x621ac19d543ccb1d, 0x10120561ef412cc2],
    [0x42003019d1900e3b, 0x297fc80395c0d3fe, 0xc3ddfb8d596a3245],
    [0x10752dc7958d686d, 0x4252662dca93318a, 0xd6a90da7fbb39766],
    [0x1f761a0315ad8f6c, 0x02ace759a5204249, 0x00dc8b834a44b835],
    [0x1b8b8c2880dae0a7, 0x52e3928767fa26ad, 0x0b94ccae4c8287ba],
    [0x3a1432d268526365, 0x6877d5c3fe3f8b67, 0xa52c8149f8553319],
    [0x2638751a87b65161, 0x4ac56677c4b63bc6, 0x77cd4a0d76b32485],
    [0xaccee649947e7246, 0x84db940eb4f9bbe6, 0x90b5814663a20dd0],
    [0x1b8b8c2880dae0a7, 0x52e3928767fa26ad, 0x0b94ccae4c8287ba],
    [0x3a1432d268526365, 0x6877d5c3fe3f8b67, 0xa52c8149f8553319],
    [0xe7f7200bd490ac57, 0x21487ba25d6eacdb, 0x91d475d0e9a2aba4],
    [0x4ca4e1b35ae0d646, 0xbc9d53590efee3b4, 0x6f85219888faa4ab],
];

/// Flit deliveries, credit returns and tail ejections take effect after
/// the whole router pass, in that order: tails, then every delivery,
/// then every credit. With zero-cycle links or zero router stages a
/// flit or credit applied mid-pass would be visible to a router later
/// in the scan in the same cycle, so each of these corners moves a
/// fingerprint if either kind of transfer is applied inline.
///
/// A zero-stage router moves a flit one hop per cycle whether its links
/// take zero cycles or one, so both link settings give the same run and
/// the same report (`per_hop_cycles()` is 1 for both, so `td_q` agrees).
#[test]
fn deferred_transfers_reproduce_pinned_fingerprints() {
    let mut got = Vec::new();
    for torus in [false, true] {
        for link in [0, 1] {
            for stages in [0, 1] {
                for limit in [false, true] {
                    let plain = deferral_network(torus, link, stages, limit).run();
                    let mut sink = RingSink::new(1 << 20).with_packets();
                    let probed = deferral_network(torus, link, stages, limit).run_probed(&mut sink);
                    assert!(plain.semantic_eq(&probed), "probe perturbed");
                    assert_eq!(sink.dropped(), 0);
                    let heat = sink.heatmaps().next().expect("heatmap emitted");
                    assert!(plain.fully_drained, "corner left packets in flight");
                    got.push([
                        report_fingerprint(&plain),
                        heatmap_fingerprint(heat),
                        packets_fingerprint(sink.packets()),
                    ]);
                }
            }
        }
    }
    assert_eq!(got, GOLDEN_DEFERRAL, "\n{got:#x?}");
    // Rows are ordered (torus, link, stages, limit); compare the
    // zero-stage rows of link 0 against link 1.
    for torus in [0, 8] {
        for limit in [0, 1] {
            assert_eq!(got[torus + limit], got[torus + 4 + limit]);
        }
    }
}
