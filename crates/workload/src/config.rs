//! The paper's evaluation configurations C1–C8 and a general builder.
//!
//! Each configuration is four 16-thread applications on the 8×8 mesh;
//! Table 3 of the paper gives the average and standard deviation of the
//! cache and memory communication rates for each. [`PaperConfig`] carries
//! those targets; [`WorkloadBuilder`] turns a target set plus a choice of
//! application profiles into calibrated traces and a [`Workload`].

use crate::profile::{AppProfile, PROFILES};
use crate::trace::{ClassTargets, TraceSet};
use crate::Workload;

/// One of the eight evaluation configurations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperConfig {
    C1,
    C2,
    C3,
    C4,
    C5,
    C6,
    C7,
    C8,
}

impl PaperConfig {
    /// All eight configurations in order.
    pub const ALL: [PaperConfig; 8] = [
        PaperConfig::C1,
        PaperConfig::C2,
        PaperConfig::C3,
        PaperConfig::C4,
        PaperConfig::C5,
        PaperConfig::C6,
        PaperConfig::C7,
        PaperConfig::C8,
    ];

    /// Display name ("C1".."C8").
    pub fn name(self) -> &'static str {
        match self {
            PaperConfig::C1 => "C1",
            PaperConfig::C2 => "C2",
            PaperConfig::C3 => "C3",
            PaperConfig::C4 => "C4",
            PaperConfig::C5 => "C5",
            PaperConfig::C6 => "C6",
            PaperConfig::C7 => "C7",
            PaperConfig::C8 => "C8",
        }
    }

    /// Trace seed of [`WorkloadBuilder::paper`] unless overridden.
    pub fn default_seed(self) -> u64 {
        0x0b1ced + self as u64
    }

    /// Table 3 calibration targets: `(cache, memory)` trace-sample
    /// statistics.
    pub fn targets(self) -> (ClassTargets, ClassTargets) {
        let (ca, cs, ma, ms) = match self {
            PaperConfig::C1 => (7.008, 88.3, 0.899, 9.84),
            PaperConfig::C2 => (1.8855, 17.52, 0.381, 2.21),
            PaperConfig::C3 => (10.881, 112.34, 1.51, 18.42),
            PaperConfig::C4 => (11.063, 107.27, 1.548, 17.56),
            PaperConfig::C5 => (9.04, 129.27, 1.371, 19.91),
            PaperConfig::C6 => (9.222, 125.81, 1.409, 19.21),
            PaperConfig::C7 => (1.992, 14.69, 0.399, 2.01),
            PaperConfig::C8 => (8.881, 131.87, 1.334, 20.45),
        };
        (
            ClassTargets {
                mean: ca,
                std_dev: cs,
            },
            ClassTargets {
                mean: ma,
                std_dev: ms,
            },
        )
    }

    /// The four application profiles mixed in this configuration. Heavier
    /// configurations draw from the traffic-heavy end of the library, so
    /// the per-application total rates spread as in the paper (applications
    /// are later renumbered 1–4 in ascending rate order).
    pub fn profiles(self) -> [&'static AppProfile; 4] {
        let pick = |names: [&str; 4]| names.map(|n| AppProfile::by_name(n).expect("known profile"));
        match self {
            PaperConfig::C1 => pick([
                "blackscholes-like",
                "bodytrack-like",
                "canneal-like",
                "streamcluster-like",
            ]),
            PaperConfig::C2 => pick([
                "swaptions-like",
                "blackscholes-like",
                "fluidanimate-like",
                "freqmine-like",
            ]),
            PaperConfig::C3 => pick([
                "blackscholes-like",
                "facesim-like",
                "x264-like",
                "streamcluster-like",
            ]),
            PaperConfig::C4 => pick(["swaptions-like", "vips-like", "dedup-like", "canneal-like"]),
            PaperConfig::C5 => pick([
                "swaptions-like",
                "ferret-like",
                "dedup-like",
                "canneal-like",
            ]),
            PaperConfig::C6 => pick([
                "blackscholes-like",
                "freqmine-like",
                "ferret-like",
                "streamcluster-like",
            ]),
            PaperConfig::C7 => pick([
                "swaptions-like",
                "blackscholes-like",
                "bodytrack-like",
                "facesim-like",
            ]),
            PaperConfig::C8 => pick([
                "swaptions-like",
                "facesim-like",
                "x264-like",
                "canneal-like",
            ]),
        }
    }
}

/// Builds a calibrated [`Workload`] + [`TraceSet`] from profiles and
/// targets. The paper's configurations are `WorkloadBuilder::paper(cfg)`;
/// custom mixes (different mesh sizes, thread counts, app counts) use
/// [`WorkloadBuilder::custom`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    profiles: Vec<&'static AppProfile>,
    threads_per_app: usize,
    cache_targets: ClassTargets,
    mem_targets: ClassTargets,
    epochs: usize,
    epoch_cycles: u64,
    seed: u64,
}

impl WorkloadBuilder {
    /// Builder for one of the paper's C1–C8 configurations: 4 apps × 16
    /// threads, Table 3 targets.
    pub fn paper(cfg: PaperConfig) -> Self {
        let (cache_targets, mem_targets) = cfg.targets();
        WorkloadBuilder {
            profiles: cfg.profiles().to_vec(),
            threads_per_app: 16,
            cache_targets,
            mem_targets,
            epochs: 20_000,
            epoch_cycles: 1_000,
            seed: cfg.default_seed(),
        }
    }

    /// Fully custom builder.
    pub fn custom(
        profiles: Vec<&'static AppProfile>,
        threads_per_app: usize,
        cache_targets: ClassTargets,
        mem_targets: ClassTargets,
    ) -> Self {
        assert!(!profiles.is_empty() && threads_per_app > 0);
        WorkloadBuilder {
            profiles,
            threads_per_app,
            cache_targets,
            mem_targets,
            epochs: 20_000,
            epoch_cycles: 1_000,
            seed: 0,
        }
    }

    /// Override the RNG seed (default derives from the configuration).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the number of trace epochs (default 20 000).
    pub fn epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0);
        self.epochs = epochs;
        self
    }

    /// Override the epoch length in cycles (default 1000).
    pub fn epoch_cycles(mut self, cycles: u64) -> Self {
        assert!(cycles > 0);
        self.epoch_cycles = cycles;
        self
    }

    /// Total threads this builder will produce.
    pub fn num_threads(&self) -> usize {
        self.profiles.len() * self.threads_per_app
    }

    /// Per-thread design means `(cache, memory)` handed to
    /// [`TraceSet::generate`]: profile weight × per-thread skew,
    /// normalized so each class's pooled mean equals its target mean.
    pub fn design_means(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.num_threads();
        let mut cache_means = Vec::with_capacity(n);
        let mut mem_means = Vec::with_capacity(n);
        for p in &self.profiles {
            for w in p.thread_weights(self.threads_per_app) {
                let c = p.cache_weight * w;
                cache_means.push(c);
                mem_means.push(c * p.mem_ratio);
            }
        }
        normalize_mean(&mut cache_means, self.cache_targets.mean);
        normalize_mean(&mut mem_means, self.mem_targets.mean);
        (cache_means, mem_means)
    }

    /// Generate the calibrated trace set.
    pub fn build_traces(&self) -> TraceSet {
        let (cache_means, mem_means) = self.design_means();
        TraceSet::generate(
            &cache_means,
            &mem_means,
            self.cache_targets,
            self.mem_targets,
            vec![self.threads_per_app; self.profiles.len()],
            self.profiles.iter().map(|p| p.name.to_string()).collect(),
            self.epochs,
            self.epoch_cycles,
            self.seed,
        )
    }

    /// Generate traces and collapse them into a workload in one step.
    pub fn build(&self) -> (Workload, TraceSet) {
        let traces = self.build_traces();
        (traces.to_workload(), traces)
    }
}

/// Scale a vector so its mean equals `target` (no-op for a zero target).
fn normalize_mean(xs: &mut [f64], target: f64) {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if mean > 0.0 && target > 0.0 {
        let k = target / mean;
        for x in xs.iter_mut() {
            *x *= k;
        }
    } else {
        xs.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// A quick default workload for examples: C1 with a fixed seed.
pub fn example_workload() -> Workload {
    WorkloadBuilder::paper(PaperConfig::C1).build().0
}

/// Sanity helper: a profile mix drawn round-robin from the full library for
/// arbitrary app counts (used by scaling benches beyond 4 apps).
pub fn round_robin_profiles(n_apps: usize) -> Vec<&'static AppProfile> {
    (0..n_apps).map(|i| &PROFILES[i % PROFILES.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_builder_dimensions() {
        let (w, ts) = WorkloadBuilder::paper(PaperConfig::C1).build();
        assert_eq!(w.num_apps(), 4);
        assert_eq!(w.num_threads(), 64);
        assert_eq!(ts.num_threads(), 64);
        assert_eq!(w.boundaries(), vec![0, 16, 32, 48, 64]);
    }

    #[test]
    fn all_configs_calibrate_within_tolerance() {
        for cfg in PaperConfig::ALL {
            let (cache_t, mem_t) = cfg.targets();
            let ts = WorkloadBuilder::paper(cfg).build_traces();
            let cs = ts.cache_stats();
            let ms = ts.mem_stats();
            assert!(
                (cs.mean() - cache_t.mean).abs() / cache_t.mean < 0.10,
                "{}: cache mean {} vs {}",
                cfg.name(),
                cs.mean(),
                cache_t.mean
            );
            assert!(
                (cs.std_dev() - cache_t.std_dev).abs() / cache_t.std_dev < 0.10,
                "{}: cache std {} vs {}",
                cfg.name(),
                cs.std_dev(),
                cache_t.std_dev
            );
            assert!(
                (ms.mean() - mem_t.mean).abs() / mem_t.mean < 0.10,
                "{}: mem mean {} vs {}",
                cfg.name(),
                ms.mean(),
                mem_t.mean
            );
            assert!(
                (ms.std_dev() - mem_t.std_dev).abs() / mem_t.std_dev < 0.10,
                "{}: mem std {} vs {}",
                cfg.name(),
                ms.std_dev(),
                mem_t.std_dev
            );
        }
    }

    #[test]
    fn apps_have_distinct_total_rates() {
        let (w, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
        let rates: Vec<f64> = w.apps.iter().map(|a| a.total_rate()).collect();
        for pair in rates.windows(2) {
            assert!(pair[0] < pair[1], "apps not strictly ascending: {rates:?}");
        }
    }

    #[test]
    fn cache_dominates_memory_traffic() {
        // Paper: cache rate ≈ 6.78× memory rate on average across configs.
        let mut ratios = Vec::new();
        for cfg in PaperConfig::ALL {
            let (cache_t, mem_t) = cfg.targets();
            ratios.push(cache_t.mean / mem_t.mean);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((6.0..7.5).contains(&mean), "mean cache:mem ratio {mean}");
    }

    #[test]
    fn deterministic_per_config() {
        let a = WorkloadBuilder::paper(PaperConfig::C3).build().0;
        let b = WorkloadBuilder::paper(PaperConfig::C3).build().0;
        assert_eq!(a, b);
        let c = WorkloadBuilder::paper(PaperConfig::C3).seed(99).build().0;
        assert_ne!(a, c);
    }

    #[test]
    fn custom_builder_respects_dimensions() {
        let (cache_t, mem_t) = PaperConfig::C2.targets();
        let b = WorkloadBuilder::custom(round_robin_profiles(6), 8, cache_t, mem_t)
            .epochs(2000)
            .seed(5);
        assert_eq!(b.num_threads(), 48);
        let (w, _) = b.build();
        assert_eq!(w.num_apps(), 6);
        assert_eq!(w.num_threads(), 48);
    }
}
