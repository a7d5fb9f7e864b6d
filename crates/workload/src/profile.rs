//! PARSEC-like application profiles.
//!
//! Each profile is a small parametric description of a multithreaded
//! application's communication behaviour: how heavy its shared-cache traffic
//! is, how skewed the load is across its threads (data-parallel codes are
//! even; pipeline codes have hot stages), and how large its
//! memory-to-cache traffic ratio is. The constants are synthetic but chosen
//! to span the qualitative range PARSEC 2.0 exhibits, from the light
//! `swaptions-like` to the streaming-heavy `streamcluster-like`.

/// Parametric communication profile of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Name, suffixed "-like" to make the synthetic provenance explicit.
    pub name: &'static str,
    /// Relative total cache-traffic weight (dimensionless; scaled by the
    /// configuration calibration).
    pub cache_weight: f64,
    /// Pareto tail index of the per-thread load skew; smaller = more skewed
    /// (a hot master/pipeline-stage thread).
    pub skew_alpha: f64,
    /// Memory-to-cache request-rate ratio `m_j / c_j` for this application.
    /// The paper reports cache traffic 6.78× memory traffic on average,
    /// i.e. ratios around 0.15.
    pub mem_ratio: f64,
}

/// The built-in profile library, loosely following PARSEC 2.0's
/// characterization (Bienia et al., PACT'08): relative traffic intensities
/// and per-thread balance differ per code.
pub const PROFILES: &[AppProfile] = &[
    AppProfile {
        name: "blackscholes-like",
        cache_weight: 0.45,
        skew_alpha: 4.0,
        mem_ratio: 0.12,
    },
    AppProfile {
        name: "bodytrack-like",
        cache_weight: 1.00,
        skew_alpha: 2.2,
        mem_ratio: 0.14,
    },
    AppProfile {
        name: "canneal-like",
        cache_weight: 2.20,
        skew_alpha: 1.6,
        mem_ratio: 0.22,
    },
    AppProfile {
        name: "dedup-like",
        cache_weight: 1.60,
        skew_alpha: 1.4,
        mem_ratio: 0.18,
    },
    AppProfile {
        name: "facesim-like",
        cache_weight: 1.30,
        skew_alpha: 2.8,
        mem_ratio: 0.15,
    },
    AppProfile {
        name: "ferret-like",
        cache_weight: 1.50,
        skew_alpha: 1.5,
        mem_ratio: 0.16,
    },
    AppProfile {
        name: "fluidanimate-like",
        cache_weight: 0.90,
        skew_alpha: 3.0,
        mem_ratio: 0.13,
    },
    AppProfile {
        name: "freqmine-like",
        cache_weight: 1.10,
        skew_alpha: 2.0,
        mem_ratio: 0.14,
    },
    AppProfile {
        name: "streamcluster-like",
        cache_weight: 2.60,
        skew_alpha: 2.5,
        mem_ratio: 0.24,
    },
    AppProfile {
        name: "swaptions-like",
        cache_weight: 0.35,
        skew_alpha: 5.0,
        mem_ratio: 0.10,
    },
    AppProfile {
        name: "vips-like",
        cache_weight: 1.20,
        skew_alpha: 1.8,
        mem_ratio: 0.15,
    },
    AppProfile {
        name: "x264-like",
        cache_weight: 1.80,
        skew_alpha: 1.3,
        mem_ratio: 0.17,
    },
];

impl AppProfile {
    /// Look a profile up by name.
    pub fn by_name(name: &str) -> Option<&'static AppProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// Relative per-thread weights for `n` threads: a deterministic
    /// Pareto-shaped ramp `w_t = (t+1)^(-1/alpha)` normalized to mean 1.
    /// Thread 0 is the hottest (master/first pipeline stage). Deterministic
    /// so that a profile always describes the same application; stochastic
    /// burstiness lives in the trace generator, not here.
    pub fn thread_weights(&self, n: usize) -> Vec<f64> {
        assert!(n > 0);
        let raw: Vec<f64> = (0..n)
            .map(|t| ((t + 1) as f64).powf(-1.0 / self.skew_alpha))
            .collect();
        let mean = raw.iter().sum::<f64>() / n as f64;
        raw.iter().map(|w| w / mean).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinctly_named() {
        let mut names: Vec<_> = PROFILES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROFILES.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(AppProfile::by_name("canneal-like").is_some());
        assert!(AppProfile::by_name("doom-like").is_none());
    }

    #[test]
    fn weights_mean_one_and_decreasing() {
        for p in PROFILES {
            let w = p.thread_weights(16);
            let mean = w.iter().sum::<f64>() / 16.0;
            assert!((mean - 1.0).abs() < 1e-12, "{}", p.name);
            for pair in w.windows(2) {
                assert!(pair[0] >= pair[1], "{} weights not monotone", p.name);
            }
            assert!(w.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn lower_alpha_is_more_skewed() {
        let skewed = AppProfile::by_name("x264-like").unwrap().thread_weights(16);
        let even = AppProfile::by_name("swaptions-like")
            .unwrap()
            .thread_weights(16);
        // ratio of hottest to coldest thread
        let skew_ratio = skewed[0] / skewed[15];
        let even_ratio = even[0] / even[15];
        assert!(skew_ratio > even_ratio);
    }

    #[test]
    fn single_thread_weight_is_one() {
        let w = PROFILES[0].thread_weights(1);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn mem_ratios_match_paper_scale() {
        // Paper: cache rate is on average 6.78× the memory rate, i.e. the
        // library's mean ratio should be near 1/6.78 ≈ 0.1475.
        let mean: f64 = PROFILES.iter().map(|p| p.mem_ratio).sum::<f64>() / PROFILES.len() as f64;
        assert!((0.10..0.20).contains(&mean), "mean ratio {mean}");
    }
}
