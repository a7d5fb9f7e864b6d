//! Runtime rate estimation — the statistics-collection step of the
//! paper's dynamic scenario (§IV.B): *"we simply collect the {c_j} and
//! {m_j} statistics at runtime during a certain interval after some
//! applications are added/removed, and then solve the OBM problem"*.
//!
//! [`RateMonitor`] plays that collector against a [`TraceSet`]: it
//! averages a window of epochs per thread and produces the `(c_j, m_j)`
//! estimates a real hardware counter would hand to the mapper. Because
//! the traces are bursty, the window length controls the bias/variance
//! trade-off; [`RateMonitor::mean_relative_error`] quantifies it.

use crate::trace::{BurstSeries, TraceSet};
use crate::{Application, ThreadLoad, Workload};

/// Sliding-window rate estimator over epoch traces.
#[derive(Debug, Clone, Copy)]
pub struct RateMonitor {
    /// First epoch of the observation window.
    pub start_epoch: usize,
    /// Number of epochs observed.
    pub window: usize,
}

impl RateMonitor {
    /// Monitor observing `window` epochs from `start_epoch` (wrapping
    /// around the trace if needed, as a steady-state workload would).
    pub fn new(start_epoch: usize, window: usize) -> Self {
        assert!(window > 0, "empty observation window");
        RateMonitor {
            start_epoch,
            window,
        }
    }

    /// Windowed mean of one epoch series.
    fn window_mean(&self, series: &BurstSeries) -> f64 {
        let n = series.len();
        debug_assert!(n > 0);
        let sum: f64 = (0..self.window)
            .map(|i| series.get((self.start_epoch + i) % n))
            .sum();
        sum / self.window as f64
    }

    /// Estimate one thread's load.
    pub fn estimate_thread(&self, traces: &TraceSet, thread: usize) -> ThreadLoad {
        let tr = &traces.traces[thread];
        ThreadLoad {
            cache_rate: self.window_mean(&tr.cache),
            mem_rate: self.window_mean(&tr.mem),
        }
    }

    /// Estimate the whole workload (grouped per application, sorted
    /// ascending by total rate like [`Workload::new`]).
    pub fn estimate_workload(&self, traces: &TraceSet) -> Workload {
        let mut apps = Vec::with_capacity(traces.app_sizes.len());
        let mut idx = 0;
        for (size, name) in traces.app_sizes.iter().zip(&traces.app_names) {
            let threads = (idx..idx + size)
                .map(|j| self.estimate_thread(traces, j))
                .collect();
            idx += size;
            apps.push(Application {
                name: name.clone(),
                threads,
            });
        }
        Workload::new(apps)
    }

    /// Mean relative error of the windowed per-thread cache-rate estimates
    /// against the full-trace means — the convergence metric used to size
    /// the collection interval.
    pub fn mean_relative_error(&self, traces: &TraceSet) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (j, tr) in traces.traces.iter().enumerate() {
            let truth = tr.mean_cache_rate();
            if truth <= 0.0 {
                continue;
            }
            let est = self.estimate_thread(traces, j).cache_rate;
            total += (est - truth).abs() / truth;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, WorkloadBuilder};

    fn traces() -> TraceSet {
        WorkloadBuilder::paper(PaperConfig::C2).build_traces()
    }

    #[test]
    fn full_window_equals_trace_means() {
        let ts = traces();
        let epochs = ts.traces[0].epochs();
        let mon = RateMonitor::new(0, epochs);
        for j in [0usize, 17, 63] {
            let est = mon.estimate_thread(&ts, j);
            assert!((est.cache_rate - ts.traces[j].mean_cache_rate()).abs() < 1e-9);
            assert!((est.mem_rate - ts.traces[j].mean_mem_rate()).abs() < 1e-9);
        }
    }

    #[test]
    fn longer_windows_reduce_error() {
        let ts = traces();
        let short = RateMonitor::new(100, 50).mean_relative_error(&ts);
        let long = RateMonitor::new(100, 5_000).mean_relative_error(&ts);
        assert!(
            long < short,
            "window 5000 error {long} not below window 50 error {short}"
        );
    }

    #[test]
    fn estimated_workload_has_right_shape() {
        let ts = traces();
        let w = RateMonitor::new(0, 2_000).estimate_workload(&ts);
        assert_eq!(w.num_apps(), 4);
        assert_eq!(w.num_threads(), 64);
        let (c, m) = w.rate_vectors();
        assert!(c.iter().zip(&m).all(|(a, b)| a + b > 0.0));
    }

    #[test]
    fn window_wraps_around_trace_end() {
        let ts = traces();
        let epochs = ts.traces[0].epochs();
        let mon = RateMonitor::new(epochs - 10, 20); // wraps
        let est = mon.estimate_thread(&ts, 0);
        assert!(est.cache_rate.is_finite() && est.cache_rate >= 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = RateMonitor::new(0, 0);
    }
}
