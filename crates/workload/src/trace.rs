//! Bursty per-thread request-rate traces.
//!
//! A trace is a sequence of epochs; each epoch records a thread's cache and
//! memory request rates (requests per kilocycle) during that epoch. The
//! generator produces a *base + burst* process:
//!
//! `x[t][e] = β·r_t + h · Bernoulli((1−β)·r_t / h)`
//!
//! a small always-on component plus rare large spikes of height `h`. The
//! spike height is solved in closed form so that the **sample mean and
//! sample standard deviation over all (thread, epoch) samples match the
//! calibration targets exactly in expectation** — this is how we reproduce
//! the paper's Table 3, whose (mean, std) pairs are only consistent as
//! trace-sample statistics (see DESIGN.md §4.1).
//!
//! Each series takes only the values `β·r_t` and `β·r_t + h`, so it is
//! stored as a [`BurstSeries`]: the two values plus one bit per epoch.

use crate::stats::SampleStats;
use crate::{Application, ThreadLoad, Workload};
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fraction of a thread's mean rate delivered by the always-on base
/// component (keeps every thread's rate strictly positive in every epoch).
const BASE_FRACTION: f64 = 0.2;

/// One traffic class's epoch series of one thread, stored compactly.
///
/// The generator only ever emits two values per series — the always-on
/// `base` and `spike = base + h` — so each epoch is one bit (set ⇔ the
/// epoch spikes), packed into `u64` words: bit `e % 64` of word `e / 64`.
/// A zero-traffic series has `base = spike = 0` and no bits set. The mean
/// is folded during generation in epoch order, the same sequential sum a
/// materialised `Vec<f64>` would give (DESIGN.md §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSeries {
    base: f64,
    spike: f64,
    len: usize,
    bits: Vec<u64>,
    mean: f64,
}

impl BurstSeries {
    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no epochs (never true for generated traces).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rate during epoch `e`.
    ///
    /// # Panics
    /// Panics if `e >= len()`.
    #[inline]
    pub fn get(&self, e: usize) -> f64 {
        assert!(
            e < self.len,
            "epoch {e} out of range for {} epochs",
            self.len
        );
        if (self.bits[e / 64] >> (e % 64)) & 1 == 1 {
            self.spike
        } else {
            self.base
        }
    }

    /// Every epoch's rate, in epoch order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(|e| self.get(e))
    }

    /// Mean rate over the series.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Heap bytes held by the bitset.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

/// The epoch trace of a single thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// Cache request rate per epoch.
    pub cache: BurstSeries,
    /// Memory request rate per epoch.
    pub mem: BurstSeries,
}

impl ThreadTrace {
    /// Mean cache rate over the trace.
    pub fn mean_cache_rate(&self) -> f64 {
        self.cache.mean()
    }

    /// Mean memory rate over the trace.
    pub fn mean_mem_rate(&self) -> f64 {
        self.mem.mean()
    }

    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.cache.len()
    }
}

/// Traces for every thread of a workload, plus the epoch duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    /// Cycles per epoch (used when replaying traces through the simulator).
    pub epoch_cycles: u64,
    /// One trace per thread, in workload thread order.
    pub traces: Vec<ThreadTrace>,
    /// Thread counts per application, preserving grouping.
    pub app_sizes: Vec<usize>,
    /// Application names, parallel to `app_sizes`.
    pub app_names: Vec<String>,
}

/// Calibration targets for one traffic class: the trace-sample mean and
/// standard deviation over all (thread, epoch) samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassTargets {
    pub mean: f64,
    pub std_dev: f64,
}

impl TraceSet {
    /// Generate traces for threads with the given *design* mean rates,
    /// calibrated so the pooled sample statistics hit `cache_t` / `mem_t`.
    ///
    /// `cache_means` and `mem_means` must already average (over threads) to
    /// the respective target means; the generator preserves means per
    /// thread and injects the bursts needed to reach the target std-dev.
    ///
    /// # Panics
    /// Panics if lengths mismatch, any mean is negative, or a target is
    /// unreachable (`std_dev` too small to cover the spread of the design
    /// means themselves).
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        cache_means: &[f64],
        mem_means: &[f64],
        cache_t: ClassTargets,
        mem_t: ClassTargets,
        app_sizes: Vec<usize>,
        app_names: Vec<String>,
        epochs: usize,
        epoch_cycles: u64,
        seed: u64,
    ) -> TraceSet {
        assert_eq!(cache_means.len(), mem_means.len());
        assert_eq!(app_sizes.iter().sum::<usize>(), cache_means.len());
        assert!(epochs > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let cache_h = spike_height(cache_means, cache_t);
        let mem_h = spike_height(mem_means, mem_t);
        let traces = cache_means
            .iter()
            .zip(mem_means)
            .map(|(&rc, &rm)| ThreadTrace {
                cache: burst_series(rc, cache_h, epochs, &mut rng),
                mem: burst_series(rm, mem_h, epochs, &mut rng),
            })
            .collect();
        TraceSet {
            epoch_cycles,
            traces,
            app_sizes,
            app_names,
        }
    }

    /// Pooled sample statistics of the cache class over all samples.
    pub fn cache_stats(&self) -> SampleStats {
        let mut s = SampleStats::new();
        for x in self.traces.iter().flat_map(|t| t.cache.iter()) {
            s.push(x);
        }
        s
    }

    /// Pooled sample statistics of the memory class.
    pub fn mem_stats(&self) -> SampleStats {
        let mut s = SampleStats::new();
        for x in self.traces.iter().flat_map(|t| t.mem.iter()) {
            s.push(x);
        }
        s
    }

    /// Collapse the traces into a [`Workload`] whose per-thread rates are
    /// the *realized* trace means — what a runtime statistics collector
    /// would hand to the mapping algorithm.
    pub fn to_workload(&self) -> Workload {
        let mut apps = Vec::with_capacity(self.app_sizes.len());
        let mut idx = 0;
        for (size, name) in self.app_sizes.iter().zip(&self.app_names) {
            let threads = self.traces[idx..idx + size]
                .iter()
                .map(|t| ThreadLoad {
                    cache_rate: t.mean_cache_rate(),
                    mem_rate: t.mean_mem_rate(),
                })
                .collect();
            idx += size;
            apps.push(Application {
                name: name.clone(),
                threads,
            });
        }
        Workload::new(apps)
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.traces.len()
    }
}

/// Closed-form spike height `h` such that the pooled second moment matches
/// the target. With base `b_t = β·r_t` and spike mass `(1−β)·r_t`:
/// `E[x²] = E_t[b_t² + 2·b_t·(1−β)·r_t] + h·(1−β)·μ`, so
/// `h = (σ² + μ² − E_t[b_t² + 2·b_t·(1−β)·r_t]) / ((1−β)·μ)`.
fn spike_height(means: &[f64], t: ClassTargets) -> f64 {
    assert!(means.iter().all(|&r| r >= 0.0), "negative design rate");
    let n = means.len() as f64;
    let mu = means.iter().sum::<f64>() / n;
    if mu <= 0.0 {
        return 0.0; // zero-traffic class: all-zero traces
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
    let num = t.std_dev * t.std_dev + t.mean * t.mean - base_moment;
    assert!(
        num > 0.0,
        "target std-dev {} unreachable for mean {} with these design rates",
        t.std_dev,
        t.mean
    );
    num / ((1.0 - beta) * mu)
}

/// One thread's base+burst epoch series with mean `r` and spike height `h`.
///
/// Draws one coin per epoch in epoch order (none for a zero-traffic
/// series) on a local copy of the generator, and folds the mean in the
/// same pass: `sum += x` per epoch, then `sum / epochs`.
fn burst_series(r: f64, h: f64, epochs: usize, rng: &mut SmallRng) -> BurstSeries {
    let mut bits = vec![0u64; epochs.div_ceil(64)];
    if r <= 0.0 || h <= 0.0 {
        return BurstSeries {
            base: 0.0,
            spike: 0.0,
            len: epochs,
            bits,
            mean: 0.0,
        };
    }
    let base = BASE_FRACTION * r;
    let spike = base + h;
    let q = ((1.0 - BASE_FRACTION) * r / h).min(1.0);
    let coin = Bernoulli::new(q).expect("r > 0 and h > 0 put the spike probability in (0, 1]");
    let mut local = rng.clone();
    let mut sum = 0.0;
    for (w, word) in bits.iter_mut().enumerate() {
        for b in 0..(epochs - w * 64).min(64) {
            if coin.sample(&mut local) {
                *word |= 1 << b;
                sum += spike;
            } else {
                sum += base;
            }
        }
    }
    *rng = local;
    BurstSeries {
        base,
        spike,
        len: epochs,
        bits,
        mean: sum / epochs as f64,
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Calibration hits arbitrary feasible (mean, std) targets: for any
        /// positive mean and a std-dev at least ~2× the mean (bursty
        /// regime), the pooled sample statistics land within 15%.
        #[test]
        fn calibration_hits_arbitrary_targets(
            mu in 0.5f64..20.0,
            std_factor in 3.0f64..20.0,
            seed in any::<u64>(),
        ) {
            let sigma = mu * std_factor;
            let n = 16;
            let means = vec![mu; n];
            let ts = TraceSet::generate(
                &means,
                &vec![mu * 0.15; n],
                ClassTargets { mean: mu, std_dev: sigma },
                ClassTargets { mean: mu * 0.15, std_dev: sigma * 0.15 },
                vec![n],
                vec!["p".into()],
                30_000,
                1000,
                seed,
            );
            let st = ts.cache_stats();
            prop_assert!((st.mean() - mu).abs() / mu < 0.15,
                "mean {} vs {}", st.mean(), mu);
            prop_assert!((st.std_dev() - sigma).abs() / sigma < 0.15,
                "std {} vs {}", st.std_dev(), sigma);
        }

        /// Trace values are never negative and every epoch of a positive-
        /// rate thread is strictly positive (base component).
        #[test]
        fn traces_nonnegative(seed in any::<u64>(), mu in 0.1f64..5.0) {
            let ts = TraceSet::generate(
                &[mu, mu * 2.0],
                &[mu * 0.1, mu * 0.2],
                ClassTargets { mean: mu * 1.5, std_dev: mu * 12.0 },
                ClassTargets { mean: mu * 0.15, std_dev: mu * 1.2 },
                vec![2],
                vec!["x".into()],
                300,
                1000,
                seed,
            );
            for tr in &ts.traces {
                prop_assert!(tr.cache.iter().all(|x| x > 0.0));
                prop_assert!(tr.mem.iter().all(|x| x >= 0.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_means(n: usize, mu: f64) -> Vec<f64> {
        vec![mu; n]
    }

    #[test]
    fn calibration_hits_table3_c1_targets() {
        // Table 3, C1: cache (7.008, 88.3), memory (0.899, 9.84).
        let n = 64;
        let cache_t = ClassTargets {
            mean: 7.008,
            std_dev: 88.3,
        };
        let mem_t = ClassTargets {
            mean: 0.899,
            std_dev: 9.84,
        };
        let ts = TraceSet::generate(
            &flat_means(n, 7.008),
            &flat_means(n, 0.899),
            cache_t,
            mem_t,
            vec![16; 4],
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            20_000,
            1000,
            1,
        );
        let cs = ts.cache_stats();
        let ms = ts.mem_stats();
        assert!(
            (cs.mean() - 7.008).abs() / 7.008 < 0.10,
            "cache mean {}",
            cs.mean()
        );
        assert!(
            (cs.std_dev() - 88.3).abs() / 88.3 < 0.10,
            "cache std {}",
            cs.std_dev()
        );
        assert!(
            (ms.mean() - 0.899).abs() / 0.899 < 0.10,
            "mem mean {}",
            ms.mean()
        );
        assert!(
            (ms.std_dev() - 9.84).abs() / 9.84 < 0.10,
            "mem std {}",
            ms.std_dev()
        );
    }

    #[test]
    fn every_epoch_strictly_positive() {
        let ts = TraceSet::generate(
            &flat_means(8, 2.0),
            &flat_means(8, 0.4),
            ClassTargets {
                mean: 2.0,
                std_dev: 17.0,
            },
            ClassTargets {
                mean: 0.4,
                std_dev: 2.2,
            },
            vec![8],
            vec!["solo".into()],
            500,
            1000,
            7,
        );
        for t in &ts.traces {
            assert!(t.cache.iter().all(|x| x > 0.0));
            assert!(t.mem.iter().all(|x| x > 0.0));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = |seed| {
            TraceSet::generate(
                &flat_means(4, 5.0),
                &flat_means(4, 1.0),
                ClassTargets {
                    mean: 5.0,
                    std_dev: 50.0,
                },
                ClassTargets {
                    mean: 1.0,
                    std_dev: 10.0,
                },
                vec![4],
                vec!["x".into()],
                100,
                1000,
                seed,
            )
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }

    #[test]
    fn to_workload_preserves_grouping_and_means() {
        let ts = TraceSet::generate(
            &[1.0, 2.0, 3.0, 4.0],
            &[0.1, 0.2, 0.3, 0.4],
            ClassTargets {
                mean: 2.5,
                std_dev: 20.0,
            },
            ClassTargets {
                mean: 0.25,
                std_dev: 2.0,
            },
            vec![2, 2],
            vec!["p".into(), "q".into()],
            2000,
            1000,
            11,
        );
        let w = ts.to_workload();
        assert_eq!(w.num_apps(), 2);
        assert_eq!(w.num_threads(), 4);
        // realized total rate must be positive everywhere
        let (c, m) = w.rate_vectors();
        assert!(c.iter().zip(&m).all(|(a, b)| a + b > 0.0));
    }

    #[test]
    fn zero_traffic_class_yields_zero_traces() {
        let ts = TraceSet::generate(
            &flat_means(4, 1.0),
            &flat_means(4, 0.0),
            ClassTargets {
                mean: 1.0,
                std_dev: 5.0,
            },
            ClassTargets {
                mean: 0.0,
                std_dev: 0.0,
            },
            vec![4],
            vec!["x".into()],
            50,
            1000,
            0,
        );
        for t in &ts.traces {
            assert!(t.mem.iter().all(|x| x == 0.0));
        }
    }

    #[test]
    fn heterogeneous_design_means_are_preserved_per_thread() {
        let means = [1.0, 2.0, 4.0, 8.0];
        let ts = TraceSet::generate(
            &means,
            &[0.1, 0.2, 0.4, 0.8],
            ClassTargets {
                mean: 3.75,
                std_dev: 40.0,
            },
            ClassTargets {
                mean: 0.375,
                std_dev: 4.0,
            },
            vec![4],
            vec!["x".into()],
            100_000,
            1000,
            5,
        );
        for (tr, &r) in ts.traces.iter().zip(&means) {
            let realized = tr.mean_cache_rate();
            assert!(
                (realized - r).abs() / r < 0.15,
                "design {r} realized {realized}"
            );
        }
    }
}
