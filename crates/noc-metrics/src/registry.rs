//! The registry and its instrument handles.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use noc_telemetry::LatencyHistogram;

use crate::snapshot::{MetricsSnapshot, SpanSnapshot};

/// What span durations record.
///
/// `Wall` is the live default. `Logical` records every duration as zero,
/// making snapshots a pure function of the seeded computation — the mode
/// `scripts/check.sh` uses to byte-compare two same-seed runs (selected
/// in the CLI via `OBM_METRICS_CLOCK=logical`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real wall-clock durations (`std::time::Instant`).
    #[default]
    Wall,
    /// All durations zero; counts and values stay exact.
    Logical,
}

/// Mutex access that survives a poisoned lock: instruments must never
/// abort the computation they observe, so a panic elsewhere degrades to
/// whatever state the lock holds.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Aggregated observations for one span path.
#[derive(Default)]
pub(crate) struct SpanCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl SpanCell {
    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    fn record_bulk(&self, count: u64, total_nanos: u64, max_nanos: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.total_nanos.fetch_add(total_nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(max_nanos, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Inner {
    clock: ClockMode,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    exact: Mutex<BTreeMap<String, Arc<Mutex<LatencyHistogram>>>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCell>>>,
}

/// The metrics registry: owns every instrument, hands out
/// [`MetricsHandle`]s, freezes [`MetricsSnapshot`]s.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A wall-clock registry (the live default).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_clock(ClockMode::Wall)
    }

    /// A registry under an explicit clock mode.
    pub fn with_clock(clock: ClockMode) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                clock,
                ..Inner::default()
            }),
        }
    }

    /// An enabled handle into this registry.
    pub fn handle(&self) -> MetricsHandle {
        MetricsHandle(Some(self.clone()))
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut m = lock(&self.inner.counters);
        match m.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                m.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut m = lock(&self.inner.gauges);
        match m.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0.0f64.to_bits()));
                m.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn exact_cell(&self, name: &str) -> Arc<Mutex<LatencyHistogram>> {
        let mut m = lock(&self.inner.exact);
        match m.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Mutex::new(LatencyHistogram::default()));
                m.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn span_cell(&self, path: &str) -> Arc<SpanCell> {
        let mut m = lock(&self.inner.spans);
        match m.get(path) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(SpanCell::default());
                m.insert(path.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Freeze every instrument into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let exact = lock(&self.inner.exact)
            .iter()
            .map(|(k, v)| (k.clone(), lock(v).clone()))
            .collect();
        let spans = lock(&self.inner.spans)
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    SpanSnapshot {
                        count: v.count.load(Ordering::Relaxed),
                        total_nanos: v.total_nanos.load(Ordering::Relaxed),
                        max_nanos: v.max_nanos.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            exact,
            spans,
        }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("clock", &self.inner.clock)
            .finish_non_exhaustive()
    }
}

/// A cheap, cloneable, thread-safe way into a registry — or nothing.
///
/// Everything that can be instrumented holds one of these. The default
/// is disabled: every method is then a `None` check and an immediate
/// return, so uninstrumented runs pay only never-taken branches.
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<MetricsRegistry>);

impl MetricsHandle {
    /// The no-op handle (what `Default` gives you).
    pub fn disabled() -> MetricsHandle {
        MetricsHandle(None)
    }

    /// Whether instruments record anywhere.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Pre-resolve a counter for hot-path increments.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|r| r.counter_cell(name)))
    }

    /// Open a span at `path`. The returned guard records one observation
    /// (under the registry's clock) when dropped; nested work opens its
    /// own span at a longer path (`parent/child`).
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard {
            active: self.0.as_ref().map(|r| ActiveSpan {
                cell: r.span_cell(path),
                start: (r.inner.clock == ClockMode::Wall).then(Instant::now),
            }),
        }
    }

    /// Fold pre-accumulated timings into a span in one call — the shape
    /// the simulator uses to avoid per-cycle registry traffic. Durations
    /// are zeroed under [`ClockMode::Logical`].
    pub fn record_span(&self, path: &str, count: u64, total_nanos: u64, max_nanos: u64) {
        if let Some(r) = &self.0 {
            let (t, m) = match r.inner.clock {
                ClockMode::Wall => (total_nanos, max_nanos),
                ClockMode::Logical => (0, 0),
            };
            r.span_cell(path).record_bulk(count, t, m);
        }
    }

    /// Cold-path counter increment (`add(name, 1)`).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Cold-path counter add.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.0 {
            r.counter_cell(name).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Cold-path gauge set.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.gauge_cell(name).store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Record one observation in the exact nearest-rank histogram `name`
    /// (mutex-guarded, so keep it off per-cycle paths).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            lock(&r.exact_cell(name)).record(value);
        }
    }

    /// Current value of a counter, if enabled and registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let r = self.0.as_ref()?;
        let v = lock(&r.inner.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))?;
        Some(v)
    }

    /// Current value of a gauge, if enabled and registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let r = self.0.as_ref()?;
        let v = lock(&r.inner.gauges)
            .get(name)
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))?;
        Some(v)
    }

    /// Snapshot the backing registry, if enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(MetricsRegistry::snapshot)
    }
}

/// `MetricsHandle` appears inside `Debug`-deriving config structs
/// (`PlacementOptions`, `SolveRequest`), so keep its output one word.
impl fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "MetricsHandle(enabled)"
        } else {
            "MetricsHandle(disabled)"
        })
    }
}

/// Pre-resolved monotonic counter. Increments are relaxed atomic adds;
/// a disabled counter is a `None` check.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

struct ActiveSpan {
    cell: Arc<SpanCell>,
    start: Option<Instant>,
}

/// A live span: records one observation at its path when dropped.
#[must_use = "a span records its duration when dropped; binding to _ drops immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = &self.active {
            let nanos = a
                .start
                .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            a.cell.record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = MetricsHandle::disabled();
        assert!(!h.enabled());
        h.counter("c").inc();
        h.gauge_set("g", 1.0);
        h.inc("c");
        h.observe("e", 3);
        drop(h.span("s"));
        h.record_span("s2", 1, 10, 10);
        assert!(h.snapshot().is_none());
        assert_eq!(h.counter_value("c"), None);
        assert_eq!(h.gauge_value("g"), None);
    }

    #[test]
    fn counters_gauges_and_histograms_record() {
        let reg = MetricsRegistry::new();
        let h = reg.handle();
        let c = h.counter("hits_total");
        c.inc();
        c.add(4);
        h.add("hits_total", 5);
        h.gauge_set("level", 2.5);
        h.observe("sizes", 7);
        h.observe("sizes", 7);
        h.observe("sizes", 9);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hits_total"], 10);
        assert_eq!(snap.gauges["level"], 2.5);
        assert_eq!(snap.exact["sizes"].total(), 3);
        assert_eq!(snap.exact["sizes"].quantile(0.5), Some(7));
        assert_eq!(h.counter_value("hits_total"), Some(10));
        assert_eq!(h.gauge_value("level"), Some(2.5));
    }

    #[test]
    fn spans_aggregate_per_path_with_parent_links() {
        let reg = MetricsRegistry::new();
        let h = reg.handle();
        for _ in 0..2 {
            let _outer = h.span("solve");
            let _inner = h.span("solve/task");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["solve"].count, 2);
        assert_eq!(snap.spans["solve/task"].count, 2);
        assert_eq!(
            crate::snapshot::span_parent("solve/task"),
            Some("solve"),
            "parent link is the path prefix"
        );
    }

    #[test]
    fn logical_clock_zeroes_durations_but_keeps_counts() {
        let reg = MetricsRegistry::with_clock(ClockMode::Logical);
        let h = reg.handle();
        assert!(h.enabled());
        drop(h.span("work"));
        h.record_span("bulk", 7, 1234, 99);
        h.gauge_set("exact", 4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.spans["work"].count, 1);
        assert_eq!(snap.spans["work"].total_nanos, 0);
        assert_eq!(snap.spans["bulk"].count, 7);
        assert_eq!(snap.spans["bulk"].total_nanos, 0);
        assert_eq!(snap.spans["bulk"].max_nanos, 0);
        assert_eq!(snap.gauges["exact"], 4.0);
    }

    #[test]
    fn handles_are_shareable_across_threads() {
        let reg = MetricsRegistry::new();
        let h = reg.handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    let c = h.counter("par_total");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counters["par_total"], 4000);
    }
}
