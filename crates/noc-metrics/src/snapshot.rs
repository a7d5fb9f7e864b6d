//! The frozen form of a registry: plain sorted maps, mergeable across
//! processes and round-trippable through both export formats.

use std::collections::BTreeMap;
use std::fmt;

use noc_telemetry::LatencyHistogram;

/// A parse failure from [`MetricsSnapshot::parse`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Frozen span aggregate for one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Completed observations at this path.
    pub count: u64,
    /// Sum of observed durations (0 under the logical clock).
    pub total_nanos: u64,
    /// Longest single observation.
    pub max_nanos: u64,
}

impl SpanSnapshot {
    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64
        }
    }
}

/// The parent of a span path — its `/`-separated prefix, if any.
pub fn span_parent(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(parent, _)| parent)
}

/// Everything a registry held at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Exact nearest-rank histograms (lossless sparse form).
    pub exact: BTreeMap<String, LatencyHistogram>,
    /// Span aggregates, keyed by full path.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.exact.is_empty()
            && self.spans.is_empty()
    }

    /// Fold `other` into `self`: counters, histograms and span
    /// counts/totals add; span maxima take the maximum; gauges are
    /// last-writer-wins (`other` overwrites — callers merge snapshots in
    /// the order they were taken).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.exact {
            self.exact.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.spans {
            let mine = self.spans.entry(k.clone()).or_default();
            mine.count += s.count;
            mine.total_nanos += s.total_nanos;
            mine.max_nanos = mine.max_nanos.max(s.max_nanos);
        }
    }

    /// Parse either export format, sniffing by the first non-space
    /// character (`{` ⇒ JSON lines, anything else ⇒ Prometheus text).
    pub fn parse(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        match text.trim_start().chars().next() {
            Some('{') => MetricsSnapshot::from_json_lines(text),
            _ => MetricsSnapshot::from_prometheus(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_spans_and_takes_span_max() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 2);
        a.spans.insert(
            "s".into(),
            SpanSnapshot {
                count: 1,
                total_nanos: 10,
                max_nanos: 10,
            },
        );
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("d".into(), 1);
        b.gauges.insert("g".into(), 7.0);
        b.spans.insert(
            "s".into(),
            SpanSnapshot {
                count: 2,
                total_nanos: 5,
                max_nanos: 4,
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(a.gauges["g"], 7.0);
        assert_eq!(a.spans["s"].count, 3);
        assert_eq!(a.spans["s"].total_nanos, 15);
        assert_eq!(a.spans["s"].max_nanos, 10);
    }

    #[test]
    fn span_parent_is_the_path_prefix() {
        assert_eq!(span_parent("a/b/c"), Some("a/b"));
        assert_eq!(span_parent("a"), None);
    }
}
