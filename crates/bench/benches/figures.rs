//! One criterion benchmark per table/figure of the paper: each measures
//! the computational kernel that regenerates the artifact (the printable
//! rows come from `cargo run -p obm-bench --bin experiments`).

use criterion::{criterion_group, criterion_main, Criterion};
use noc_model::{Mesh, TileLatencies};
use noc_sim::InjectionProcess;
use obm_bench::experiments::fig5;
use obm_bench::harness::paper_instance;
use obm_bench::sim_bridge::{paper_network, traffic_from_mapping};
use obm_core::algorithms::{Global, Mapper, RandomMapper, SortSelectSwap};
use obm_core::evaluate;
use workload::{PaperConfig, WorkloadBuilder};

/// Table 1: random-mapping population statistics vs Global on one config.
fn table1(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    c.bench_function("table1_random_population_500", |b| {
        b.iter(|| RandomMapper::averages(&pi.instance, 500, 0xA5))
    });
    c.bench_function("table1_global_mapping", |b| {
        b.iter(|| Global.map(&pi.instance, 0))
    });
}

/// Table 3: trace generation + calibration for one configuration.
fn table3(c: &mut Criterion) {
    c.bench_function("table3_trace_generation_c1", |b| {
        b.iter(|| {
            WorkloadBuilder::paper(PaperConfig::C1)
                .epochs(2_000)
                .build_traces()
        })
    });
}

/// Table 4 / Figure 9 / Figure 10: the four-algorithm line-up on one
/// configuration (SA budget fixed for benchmarking determinism).
fn table4_fig9_fig10(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    c.bench_function("lineup_sss_plus_eval", |b| {
        b.iter(|| {
            let m = SortSelectSwap::default().map(&pi.instance, 0);
            evaluate(&pi.instance, &m)
        })
    });
}

/// Figure 3: the TC/TM latency arrays.
fn fig3(c: &mut Criterion) {
    c.bench_function("fig3_tile_latency_arrays_8x8", |b| {
        b.iter(|| TileLatencies::paper_default(&Mesh::square(8)))
    });
}

/// Figure 4 / Figure 8: mapping grids for C1.
fn fig4_fig8(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    c.bench_function("fig4_global_grid_c1", |b| {
        b.iter(|| {
            let m = Global.map(&pi.instance, 0);
            m.tile_to_thread(64)
        })
    });
    c.bench_function("fig8_sss_grid_c1", |b| {
        b.iter(|| {
            let m = SortSelectSwap::default().map(&pi.instance, 0);
            m.tile_to_thread(64)
        })
    });
}

/// Figure 5: the exact 4×4 example.
fn fig5_bench(c: &mut Criterion) {
    c.bench_function("fig5_exact_example", |b| {
        b.iter(|| {
            let inst = fig5::fig5_instance();
            let (good, bad) = fig5::fig5_mappings(&inst);
            (
                evaluate(&inst, &good).max_apl,
                evaluate(&inst, &bad).max_apl,
            )
        })
    });
}

/// Figure 11: analytic power evaluation of one mapping.
fn fig11(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    let mapping = SortSelectSwap::default().map(&pi.instance, 0);
    let mesh = Mesh::square(8);
    let params = noc_power::PowerParams::dsent_45nm();
    c.bench_function("fig11_analytic_power", |b| {
        b.iter(|| {
            let loads: Vec<noc_power::PlacedLoad> = (0..pi.instance.num_threads())
                .map(|j| noc_power::PlacedLoad {
                    tile: mapping.tile_of(j),
                    cache_rate: pi.instance.cache_rate(j) / 1000.0,
                    mem_rate: pi.instance.mem_rate(j) / 1000.0,
                })
                .collect();
            noc_power::analytic_power(&params, &mesh, pi.instance.tiles(), &loads, 3.0)
        })
    });
}

/// Figure 12: one SA run at a fixed iteration budget (the sweep's kernel).
fn fig12(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    c.bench_function("fig12_sa_20k_iterations", |b| {
        b.iter(|| {
            obm_core::algorithms::SimulatedAnnealing::with_iterations(20_000).map(&pi.instance, 1)
        })
    });
}

/// Validation: the cycle-level simulator (short run + source construction).
fn validation(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C2);
    let mapping = SortSelectSwap::default().map(&pi.instance, 0);
    c.bench_function("validate_source_construction", |b| {
        b.iter(|| traffic_from_mapping(&pi, &mapping))
    });
    let mut group = c.benchmark_group("validate_simulation");
    group.sample_size(10);
    group.bench_function("sim_10k_cycles_c2", |b| {
        b.iter(|| {
            paper_network(
                &pi,
                &mapping,
                10_000,
                7,
                InjectionProcess::BernoulliPerCycle,
            )
            .run()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    table1,
    table3,
    table4_fig9_fig10,
    fig3,
    fig4_fig8,
    fig5_bench,
    fig11,
    fig12,
    validation
);
criterion_main!(benches);
