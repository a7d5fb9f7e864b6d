//! Synthetic multi-application workloads for the OBM mapping problem.
//!
//! The paper drives its evaluation with traces gathered from PARSEC 2.0
//! benchmarks under Simics/GEMS full-system simulation. That toolchain is
//! not available here, so this crate is the documented substitution
//! (DESIGN.md §4.1): a generator of **bursty per-thread request-rate
//! traces** whose sample statistics are calibrated to the paper's Table 3,
//! organised into the eight 4-application × 16-thread configurations
//! C1–C8.
//!
//! What downstream consumers use:
//!
//! * the mapping algorithms consume per-thread *average* rates
//!   `(c_j, m_j)` — [`Workload::rate_vectors`], folded while the traces
//!   are generated;
//! * the runtime collector ([`RateMonitor`]) and trace replay read the
//!   epoch traces through [`trace::ThreadTrace`], whose per-class
//!   [`BurstSeries`] stores one bit per epoch (every epoch is either the
//!   base rate or the spike), about 0.3 MB per C1–C8 trace set instead of
//!   20 MB of `f64` (DESIGN.md §4.1);
//! * the experiment harness reports Table 3 statistics —
//!   [`stats::SampleStats`].
//!
//! Rates are expressed in **requests per kilocycle**: Table 3's magnitudes
//! (≈2–11 for cache traffic) then correspond to per-tile injection rates of
//! 0.002–0.011 packets/cycle, the uncongested regime in which the paper
//! observes `td_q ≈ 0–1` cycles.

#![forbid(unsafe_code)]

pub mod config;
pub mod monitor;
pub mod profile;
pub mod stats;
pub mod trace;

pub use config::{PaperConfig, WorkloadBuilder};
pub use monitor::RateMonitor;
pub use profile::AppProfile;
pub use trace::{BurstSeries, ThreadTrace, TraceSet};

/// Average request rates of one thread (requests per kilocycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadLoad {
    /// Shared-L2-cache request rate `c_j`.
    pub cache_rate: f64,
    /// Memory-controller request rate `m_j`.
    pub mem_rate: f64,
}

impl ThreadLoad {
    /// Total request rate of this thread.
    #[inline]
    pub fn total(&self) -> f64 {
        self.cache_rate + self.mem_rate
    }
}

/// One application: a named group of threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Human-readable name (e.g. the PARSEC-like profile it was drawn from).
    pub name: String,
    /// Per-thread average loads.
    pub threads: Vec<ThreadLoad>,
}

impl Application {
    /// Total communication rate (cache + memory) over all threads.
    pub fn total_rate(&self) -> f64 {
        self.threads.iter().map(ThreadLoad::total).sum()
    }

    /// Total cache request rate over all threads.
    pub fn total_cache_rate(&self) -> f64 {
        self.threads.iter().map(|t| t.cache_rate).sum()
    }

    /// Total memory request rate over all threads.
    pub fn total_mem_rate(&self) -> f64 {
        self.threads.iter().map(|t| t.mem_rate).sum()
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }
}

/// A set of concurrently running applications — the input of the
/// multi-application mapping problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Applications, in the paper's convention sorted in ascending order of
    /// total communication rate (Application 1 is the lightest).
    pub apps: Vec<Application>,
}

impl Workload {
    /// Build from applications, sorting them in ascending order of total
    /// communication rate as the paper does for its figures.
    pub fn new(mut apps: Vec<Application>) -> Self {
        apps.sort_by(|a, b| {
            a.total_rate()
                .partial_cmp(&b.total_rate())
                .expect("rates are finite")
        });
        Workload { apps }
    }

    /// Total number of threads across applications.
    pub fn num_threads(&self) -> usize {
        self.apps.iter().map(Application::num_threads).sum()
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Flattened `(c, m)` rate vectors, threads of application `a_1` first
    /// (the paper's thread-index convention of Section III.B).
    pub fn rate_vectors(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.num_threads();
        let mut c = Vec::with_capacity(n);
        let mut m = Vec::with_capacity(n);
        for app in &self.apps {
            for t in &app.threads {
                c.push(t.cache_rate);
                m.push(t.mem_rate);
            }
        }
        (c, m)
    }

    /// Application boundary indices `N_0 = 0, N_1, …, N_A` (paper §III.B):
    /// application `i` owns threads `N_{i-1} .. N_i`.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut b = Vec::with_capacity(self.apps.len() + 1);
        b.push(0);
        let mut acc = 0;
        for app in &self.apps {
            acc += app.num_threads();
            b.push(acc);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &str, rates: &[(f64, f64)]) -> Application {
        Application {
            name: name.into(),
            threads: rates
                .iter()
                .map(|&(c, m)| ThreadLoad {
                    cache_rate: c,
                    mem_rate: m,
                })
                .collect(),
        }
    }

    #[test]
    fn workload_sorts_ascending_by_total_rate() {
        let w = Workload::new(vec![
            app("heavy", &[(10.0, 1.0), (10.0, 1.0)]),
            app("light", &[(1.0, 0.1), (1.0, 0.1)]),
        ]);
        assert_eq!(w.apps[0].name, "light");
        assert_eq!(w.apps[1].name, "heavy");
    }

    #[test]
    fn boundaries_and_vectors_consistent() {
        let w = Workload::new(vec![
            app("a", &[(1.0, 0.1), (2.0, 0.2)]),
            app("b", &[(3.0, 0.3), (4.0, 0.4), (5.0, 0.5)]),
        ]);
        assert_eq!(w.num_threads(), 5);
        assert_eq!(w.boundaries(), vec![0, 2, 5]);
        let (c, m) = w.rate_vectors();
        assert_eq!(c.len(), 5);
        assert_eq!(m.len(), 5);
        assert_eq!(c[0], 1.0);
        assert_eq!(m[4], 0.5);
    }

    #[test]
    fn totals() {
        let a = app("x", &[(1.0, 0.5), (2.0, 0.25)]);
        assert!((a.total_cache_rate() - 3.0).abs() < 1e-12);
        assert!((a.total_mem_rate() - 0.75).abs() < 1e-12);
        assert!((a.total_rate() - 3.75).abs() < 1e-12);
    }
}
