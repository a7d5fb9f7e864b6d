//! Dump every observable field of a seeded `SimReport` for pinned
//! scenarios. Used to capture golden baselines across optimization PRs:
//! run before and after a simulator change and diff the output — any
//! difference means simulated semantics changed.
//!
//! ```text
//! cargo run --release -p noc-sim --example report_dump
//! ```

use noc_model::{MemoryControllers, Mesh, TileId};
use noc_sim::{
    InjectionProcess, LatencyAccum, Network, Schedule, SimConfig, SimReport, SourceSpec,
    TrafficSpec,
};

fn dump_accum(label: &str, a: &LatencyAccum) {
    println!(
        "{label}: packets={} total_latency={:.6} total_hops={} total_flits={} \
         flit_hops={} apl={:.9} td_q={:.9} mean_hops={:.9}",
        a.packets,
        a.total_latency,
        a.total_hops,
        a.total_flits,
        a.flit_hops,
        a.apl(),
        a.mean_td_q(),
        a.mean_hops(),
    );
}

fn dump(name: &str, report: &SimReport) {
    println!("=== {name} ===");
    println!(
        "injected={} delivered={} fully_drained={} measured_cycles={}",
        report.injected, report.delivered, report.fully_drained, report.measured_cycles
    );
    println!(
        "network: link_flit_traversals={} peak_buffered_flits={} cycles_run={} num_links={} util={:.9}",
        report.network.link_flit_traversals,
        report.network.peak_buffered_flits,
        report.network.cycles_run,
        report.network.num_links,
        report.network.mean_link_utilization(),
    );
    println!(
        "front-end: arrival_draws={} skipped_cycles={}",
        report.network.arrival_draws, report.network.skipped_cycles,
    );
    dump_accum("cache", &report.cache);
    dump_accum("memory", &report.memory);
    for (i, g) in report.groups.iter().enumerate() {
        dump_accum(&format!("group[{i}]"), g);
    }
    let live: Vec<usize> = (0..report.per_source.len())
        .filter(|&i| report.per_source[i].packets > 0)
        .collect();
    println!("per_source live tiles: {live:?}");
    for &i in live.iter().take(4) {
        dump_accum(&format!("per_source[{i}]"), &report.per_source[i]);
    }
    println!(
        "g_apl={:.9} max_apl={:.9} mean_td_q={:.9}",
        report.g_apl(),
        report.max_apl(),
        report.mean_td_q()
    );
}

/// Pinned scenario A: 4×4 mesh, single far controller, mixed classes,
/// moderate contention, seed 42.
fn scenario_small() -> SimReport {
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
    Network::new(cfg, traffic).expect("valid config").run()
}

/// Pinned scenario B: 8×8 mesh at the paper's C1-scale load, seed 7.
fn scenario_paper() -> SimReport {
    let mesh = Mesh::square(8);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 20_000;
    cfg.max_drain_cycles = 50_000;
    cfg.seed = 7;
    let sources: Vec<SourceSpec> = mesh
        .tiles()
        .map(|t| SourceSpec {
            tile: t,
            group: t.index() % 4,
            cache: Schedule::per_kilocycle(8.0),
            mem: Schedule::per_kilocycle(1.2),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 4).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config").run()
}

/// Pinned scenario C: scenario A's mesh and seed under geometric
/// injection at a near-idle load — the event-horizon fast-forward should
/// skip most cycles, and this dump pins that the statistics stay sane.
fn scenario_geometric() -> SimReport {
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
            cache: Schedule::per_kilocycle(1.0),
            mem: Schedule::per_kilocycle(0.2),
        })
        .collect();
    let traffic = TrafficSpec::new(sources, 2).expect("valid traffic");
    Network::new(cfg, traffic).expect("valid config").run()
}

fn main() {
    dump("small_4x4_seed42", &scenario_small());
    dump("paper_8x8_c1_seed7", &scenario_paper());
    dump("geometric_4x4_seed42_near_idle", &scenario_geometric());
}
