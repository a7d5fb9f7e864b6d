//! Compact epoch traces against the materialising generator they replaced.
//!
//! Every generated trace series takes two values, `base` and
//! `base + h`, so `workload::trace` stores one bit per epoch
//! ([`BurstSeries`]) and folds each mean while generating. The reference
//! below is the earlier generator, which stored every epoch as an `f64`
//! and summed the vector afterwards. The compact form must reproduce it
//! exactly: per-epoch values, per-thread means (by bit pattern), the
//! pooled Table 3 statistics and the [`RateMonitor`] window means. A
//! heap budget pins the memory win, and golden fingerprints pin the
//! workload rates every consumer sees.
//!
//! Release builds check C1–C8 at their default seeds and at seeds 1 and
//! 2014, plus a 4×4 custom mix at 80 000 epochs; debug builds check C1
//! and the 4×4 mix only.

mod common;

use common::fnv1a;
use obm::workload::stats::SampleStats;
use obm::workload::trace::ClassTargets;
use obm::workload::{
    BurstSeries, PaperConfig, RateMonitor, ThreadTrace, TraceSet, WorkloadBuilder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The generator's base fraction `β` (kept in step with `workload::trace`).
const BASE_FRACTION: f64 = 0.2;

/// Reference spike height: the closed form of `workload::trace`.
fn ref_spike_height(means: &[f64], t: ClassTargets) -> f64 {
    let n = means.len() as f64;
    let mu = means.iter().sum::<f64>() / n;
    if mu <= 0.0 {
        return 0.0;
    }
    let beta = BASE_FRACTION;
    let base_moment: f64 = means
        .iter()
        .map(|&r| {
            let b = beta * r;
            b * b + 2.0 * b * (1.0 - beta) * r
        })
        .sum::<f64>()
        / n;
    (t.std_dev * t.std_dev + t.mean * t.mean - base_moment) / ((1.0 - beta) * mu)
}

/// Reference series: one `f64` per epoch, one `gen_bool` per epoch.
fn ref_burst_series(r: f64, h: f64, epochs: usize, rng: &mut SmallRng) -> Vec<f64> {
    if r <= 0.0 || h <= 0.0 {
        return vec![0.0; epochs];
    }
    let base = BASE_FRACTION * r;
    let q = ((1.0 - BASE_FRACTION) * r / h).min(1.0);
    (0..epochs)
        .map(|_| if rng.gen_bool(q) { base + h } else { base })
        .collect()
}

/// Materialised `(cache, mem)` series per thread, drawn in the same
/// stream order as `TraceSet::generate`.
type RefTraces = Vec<(Vec<f64>, Vec<f64>)>;

fn ref_generate(
    cache_means: &[f64],
    mem_means: &[f64],
    cache_t: ClassTargets,
    mem_t: ClassTargets,
    epochs: usize,
    seed: u64,
) -> RefTraces {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cache_h = ref_spike_height(cache_means, cache_t);
    let mem_h = ref_spike_height(mem_means, mem_t);
    cache_means
        .iter()
        .zip(mem_means)
        .map(|(&rc, &rm)| {
            let cache = ref_burst_series(rc, cache_h, epochs, &mut rng);
            let mem = ref_burst_series(rm, mem_h, epochs, &mut rng);
            (cache, mem)
        })
        .collect()
}

fn ref_mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn ref_window_mean(v: &[f64], start: usize, window: usize) -> f64 {
    let sum: f64 = (0..window).map(|i| v[(start + i) % v.len()]).sum();
    sum / window as f64
}

fn stats_bits(s: &SampleStats) -> [u64; 5] {
    [
        s.count(),
        s.mean().to_bits(),
        s.variance().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    ]
}

/// Heap bytes a trace set holds: its thread vector plus every bitset.
fn heap_bytes(ts: &TraceSet) -> usize {
    ts.traces.capacity() * std::mem::size_of::<ThreadTrace>()
        + ts.traces
            .iter()
            .map(|t| t.cache.heap_bytes() + t.mem.heap_bytes())
            .sum::<usize>()
}

fn assert_series(label: &str, got: &BurstSeries, want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (e, &w) in want.iter().enumerate() {
        assert_eq!(got.get(e).to_bits(), w.to_bits(), "{label}: epoch {e}");
    }
    assert!(
        got.iter()
            .map(f64::to_bits)
            .eq(want.iter().map(|w| w.to_bits())),
        "{label}: iter() differs from get()"
    );
    assert_eq!(
        got.mean().to_bits(),
        ref_mean(want).to_bits(),
        "{label}: mean"
    );
}

/// Observation windows: full, partial, wrapping past the end, and
/// longer than the trace (wrapping more than once).
fn windows(epochs: usize) -> [(usize, usize); 5] {
    [
        (0, epochs),
        (123 % epochs, 777.min(epochs)),
        (epochs - 10, 20),
        (epochs / 2, epochs),
        (epochs - 1, 2 * epochs + 5),
    ]
}

/// Compare the compact trace set `ts` against the reference for the same
/// generator inputs.
fn check(label: &str, ts: &TraceSet, reference: &RefTraces) {
    assert_eq!(ts.num_threads(), reference.len(), "{label}: threads");
    for (j, (tr, (cache, mem))) in ts.traces.iter().zip(reference).enumerate() {
        assert_series(&format!("{label} thread {j} cache"), &tr.cache, cache);
        assert_series(&format!("{label} thread {j} mem"), &tr.mem, mem);
        assert_eq!(tr.mean_cache_rate().to_bits(), ref_mean(cache).to_bits());
        assert_eq!(tr.mean_mem_rate().to_bits(), ref_mean(mem).to_bits());
    }

    let mut cache_ref = SampleStats::new();
    let mut mem_ref = SampleStats::new();
    for (cache, mem) in reference {
        cache_ref.extend(cache);
        mem_ref.extend(mem);
    }
    assert_eq!(
        stats_bits(&ts.cache_stats()),
        stats_bits(&cache_ref),
        "{label}: cache_stats"
    );
    assert_eq!(
        stats_bits(&ts.mem_stats()),
        stats_bits(&mem_ref),
        "{label}: mem_stats"
    );

    let epochs = reference[0].0.len();
    for (start, window) in windows(epochs) {
        let mon = RateMonitor::new(start, window);
        for (j, (cache, mem)) in reference.iter().enumerate() {
            let est = mon.estimate_thread(ts, j);
            assert_eq!(
                est.cache_rate.to_bits(),
                ref_window_mean(cache, start, window).to_bits(),
                "{label}: thread {j} cache window ({start}, {window})"
            );
            assert_eq!(
                est.mem_rate.to_bits(),
                ref_window_mean(mem, start, window).to_bits(),
                "{label}: thread {j} mem window ({start}, {window})"
            );
        }
    }
}

/// Build `builder`'s traces and check them against the reference run on
/// the builder's own design means, targets, epochs and seed.
fn check_builder(
    label: &str,
    builder: &WorkloadBuilder,
    targets: (ClassTargets, ClassTargets),
    epochs: usize,
    seed: u64,
) -> TraceSet {
    let ts = builder.build_traces();
    let (cache_means, mem_means) = builder.design_means();
    let reference = ref_generate(&cache_means, &mem_means, targets.0, targets.1, epochs, seed);
    check(label, &ts, &reference);
    ts
}

fn paper_configs() -> &'static [PaperConfig] {
    if cfg!(debug_assertions) {
        &PaperConfig::ALL[..1]
    } else {
        &PaperConfig::ALL
    }
}

#[test]
fn paper_traces_match_the_materialising_generator() {
    for &cfg in paper_configs() {
        let seeds: &[u64] = if cfg!(debug_assertions) {
            &[cfg.default_seed()]
        } else {
            &[cfg.default_seed(), 1, 2014]
        };
        for &seed in seeds {
            let builder = WorkloadBuilder::paper(cfg).seed(seed);
            let label = format!("{} seed {seed}", cfg.name());
            let ts = check_builder(&label, &builder, cfg.targets(), 20_000, seed);
            let bytes = heap_bytes(&ts);
            assert!(
                bytes <= 1 << 20,
                "{label}: trace set holds {bytes} heap bytes"
            );
        }
    }
}

/// The `place` workload's shape: 4 applications × 4 threads at 80 000
/// epochs (a whole number of words), and the same mix at an epoch count
/// that ends in a partial word.
#[test]
fn small_mix_traces_match_the_materialising_generator() {
    let cfg = PaperConfig::C3;
    let (cache_t, mem_t) = cfg.targets();
    for (epochs, seed) in [(80_000, 400), (4_099, 401)] {
        let builder = WorkloadBuilder::custom(cfg.profiles().to_vec(), 4, cache_t, mem_t)
            .seed(seed)
            .epochs(epochs);
        check_builder(
            &format!("4x4 at {epochs}"),
            &builder,
            (cache_t, mem_t),
            epochs,
            seed,
        );
    }
}

/// Zero-rate series draw nothing: the series after them stay aligned
/// with the reference stream.
#[test]
fn zero_rate_series_draw_nothing() {
    let cache_means = [0.0, 1.0, 2.0, 3.0];
    let mem_means = [0.3, 0.0, 0.1, 0.0];
    let cache_t = ClassTargets {
        mean: 1.5,
        std_dev: 15.0,
    };
    let mem_t = ClassTargets {
        mean: 0.1,
        std_dev: 1.0,
    };
    let epochs = 1_000;
    let ts = TraceSet::generate(
        &cache_means,
        &mem_means,
        cache_t,
        mem_t,
        vec![4],
        vec!["z".into()],
        epochs,
        1_000,
        9,
    );
    let reference = ref_generate(&cache_means, &mem_means, cache_t, mem_t, epochs, 9);
    check("zero-rate", &ts, &reference);
    assert!(ts.traces[0].cache.iter().all(|x| x == 0.0));
    assert!(ts.traces[1].mem.iter().all(|x| x == 0.0));
}

/// FNV-1a of a workload's `rate_vectors()` bits: cache rates, then memory
/// rates, in thread order.
fn rate_fingerprint(builder: WorkloadBuilder) -> u64 {
    let (c, m) = builder.build().0.rate_vectors();
    fnv1a(c.iter().chain(&m).map(|x| x.to_bits()))
}

/// Recorded from the materialising generator, before trace series were
/// stored as bitsets; C1..C8 in order.
const GOLDEN_DEFAULT_SEED: [u64; 8] = [
    0x24b5_f2e4_db54_7337,
    0xa5ce_dd9f_a57e_7149,
    0x2666_a37c_c229_f489,
    0x6e6f_75ef_2d01_af12,
    0xed66_6144_93d9_3e2a,
    0x3aa3_cc98_ef11_d308,
    0xa987_34b8_9776_5e10,
    0x9a55_2502_f442_3397,
];

const GOLDEN_SEED_2014: [u64; 8] = [
    0xbc88_b5e1_d4a6_737a,
    0x478a_cd83_8989_0bf2,
    0xada9_78c2_1031_5ad7,
    0x3e6c_546b_4640_00cf,
    0x2d83_7082_39f2_c9a4,
    0xb891_923f_02be_2d09,
    0x3255_c5cb_2f11_4253,
    0xf027_566e_c970_8e1e,
];

#[test]
fn workload_rates_match_golden_fingerprints() {
    for (i, cfg) in PaperConfig::ALL.into_iter().enumerate() {
        assert_eq!(
            rate_fingerprint(WorkloadBuilder::paper(cfg)),
            GOLDEN_DEFAULT_SEED[i],
            "{} at its default seed",
            cfg.name()
        );
        assert_eq!(
            rate_fingerprint(WorkloadBuilder::paper(cfg).seed(2014)),
            GOLDEN_SEED_2014[i],
            "{} at seed 2014",
            cfg.name()
        );
    }
}
