//! Wall-clock throughput of the cycle-level NoC simulator — the
//! bottleneck of every simulation-backed experiment (`validate`,
//! `loadcurve`, `tails`, `nocparams`, ...). Fixed seeds, fixed cycle
//! budgets: numbers are comparable across PRs to track the perf
//! trajectory of the hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_model::{LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies};
use noc_sim::telemetry::{NoopSink, RingSink};
use noc_sim::{InjectionProcess, Network, Schedule, SimConfig, TrafficSpec};
use obm_bench::harness::paper_instance;
use obm_bench::sim_bridge::{simulate_mapping, simulate_mapping_metered, simulate_mapping_probed};
use obm_core::algorithms::{Mapper, SortSelectSwap};
use obm_core::{traffic_spec, ObmInstance, RemapConfig, RemapController};
use workload::PaperConfig;

fn uniform_sim_with(
    mesh_side: usize,
    cache_per_kcycle: f64,
    cycles: u64,
    injection: InjectionProcess,
) -> noc_sim::SimReport {
    let mesh = Mesh::square(mesh_side);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = cycles / 10;
    cfg.measure_cycles = cycles;
    cfg.max_drain_cycles = 4 * cycles;
    cfg.seed = 7;
    cfg.injection = injection;
    let traffic = TrafficSpec::uniform(
        &mesh,
        Schedule::per_kilocycle(cache_per_kcycle),
        Schedule::per_kilocycle(cache_per_kcycle * 0.15),
    );
    Network::new(cfg, traffic).expect("valid scenario").run()
}

fn uniform_sim(mesh_side: usize, cache_per_kcycle: f64, cycles: u64) -> noc_sim::SimReport {
    uniform_sim_with(
        mesh_side,
        cache_per_kcycle,
        cycles,
        InjectionProcess::BernoulliPerCycle,
    )
}

/// The headline number: C1 (8×8, paper Table 3 rates) through the real
/// mapping pipeline, 10k measured cycles.
fn sim_c1_paper_load(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    let mapping = SortSelectSwap::default().map(&pi.instance, 0);
    let mut group = c.benchmark_group("noc_sim");
    group.sample_size(10);
    group.bench_function("c1_8x8_10k_cycles", |b| {
        b.iter(|| simulate_mapping(&pi, &mapping, 10_000, 7))
    });
    // Same run with a full observability probe (windows + flow + heatmap,
    // without per-packet streaming): the delta against the unprobed
    // number above is the cost of spatial telemetry on the hot loop.
    group.bench_function("c1_8x8_10k_cycles_probed", |b| {
        b.iter(|| {
            let mut sink = RingSink::new(64);
            simulate_mapping_probed(&pi, &mapping, 10_000, 7, &mut sink)
        })
    });
    // Same run with a metrics registry attached (DESIGN.md §17): the
    // delta against the unprobed median prices the *enabled* metrics
    // path (`metrics_delta_pct/enabled`); the unprobed median itself,
    // held against the PR 9 baseline, prices the *disabled* path — the
    // never-taken branches must stay within noise
    // (`metrics_delta_pct/disabled`).
    group.bench_function("c1_8x8_10k_cycles_metrics", |b| {
        let registry = noc_metrics::MetricsRegistry::new();
        b.iter(|| simulate_mapping_metered(&pi, &mapping, 10_000, 7, registry.handle()))
    });
    group.finish();
}

/// Load sensitivity of the hot loop: near-idle (paper operating point),
/// mid-load, and heavy (near saturation). The historical `load_*` names
/// keep the default Bernoulli front-end so the series stays comparable
/// across PRs.
fn sim_load_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc_sim_uniform_8x8_10k");
    group.sample_size(10);
    group.bench_function("load_0p25", |b| b.iter(|| uniform_sim(8, 0.25, 10_000)));
    group.bench_function("load_2", |b| b.iter(|| uniform_sim(8, 2.0, 10_000)));
    group.bench_function("load_8", |b| b.iter(|| uniform_sim(8, 8.0, 10_000)));
    group.bench_function("load_48", |b| b.iter(|| uniform_sim(8, 48.0, 10_000)));
    group.finish();
}

/// Injection-process comparison at three load levels: the geometric
/// front-end's win is largest where cycles outnumber packets (near-idle,
/// where the fast-forward skips whole quiescent stretches) and shrinks
/// toward parity at saturation (router work dominates both modes).
fn sim_injection_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc_sim_geometric_8x8_10k");
    group.sample_size(10);
    group.bench_function("geom_load_0p25", |b| {
        b.iter(|| uniform_sim_with(8, 0.25, 10_000, InjectionProcess::Geometric))
    });
    group.bench_function("geom_load_2", |b| {
        b.iter(|| uniform_sim_with(8, 2.0, 10_000, InjectionProcess::Geometric))
    });
    group.bench_function("geom_load_48", |b| {
        b.iter(|| uniform_sim_with(8, 48.0, 10_000, InjectionProcess::Geometric))
    });
    group.finish();
}

/// Closed-loop controller overhead on the hot loop: the steady
/// (no-drift) 4×4 single-MC scenario run plain and under
/// `run_controlled` with an armed [`RemapController`] whose threshold
/// is set high enough that it never re-solves. The delta between the
/// two medians is the price of *watching* — the per-delivery
/// per-source class accounting plus the per-window controller
/// bookkeeping (`bench_snapshot.sh` derives it as
/// `controlled_delta_pct/steady_4x4_10k`).
fn sim_remap_loadcurve(c: &mut Criterion) {
    let mesh = Mesh::square(4);
    let mcs = MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
    let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
    let cache: Vec<f64> = [2.0; 4].iter().chain([3.0; 4].iter()).copied().collect();
    let mem: Vec<f64> = [10.0; 4].iter().chain([0.3; 4].iter()).copied().collect();
    let inst = ObmInstance::new(tiles, vec![0, 4, 8], cache, mem);
    let mapping = SortSelectSwap::default().map(&inst, 0);
    let cfg = || {
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
        cfg.warmup_cycles = 1_000;
        cfg.measure_cycles = 10_000;
        cfg.seed = 7;
        cfg
    };
    let mut group = c.benchmark_group("remap_loadcurve");
    group.sample_size(10);
    group.bench_function("steady_4x4_10k_plain", |b| {
        b.iter(|| {
            Network::new(cfg(), traffic_spec(&inst, &mapping))
                .expect("valid scenario")
                .run()
        })
    });
    group.bench_function("steady_4x4_10k_watched", |b| {
        b.iter(|| {
            let quiet = RemapConfig {
                drift_threshold: 10.0,
                ..RemapConfig::default()
            };
            let mut ctrl = RemapController::with_config(inst.clone(), mapping.clone(), mesh, quiet)
                .expect("valid controller");
            Network::new(cfg(), traffic_spec(&inst, &mapping))
                .expect("valid scenario")
                .run_controlled(&mut NoopSink, &mut ctrl)
                .expect("a quiet controller cannot fail")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    sim_c1_paper_load,
    sim_load_points,
    sim_injection_modes,
    sim_remap_loadcurve
);
criterion_main!(benches);
