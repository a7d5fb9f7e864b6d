//! Snapshot export and re-import: Prometheus text format and JSON lines.
//!
//! Both writers iterate sorted maps and format numbers through
//! `noc_telemetry::json`, so a given snapshot always produces the same
//! bytes. Spans live under two fixed Prometheus families
//! (`obm_span_nanos` summary, `obm_span_max_nanos` gauge) with the path
//! in a `span` label; exact histograms export as summaries with
//! nearest-rank quantiles plus one `# obm-exact` comment line carrying
//! the sparse pairs, which is what makes the Prometheus form lossless
//! for our own parser while staying valid for any standard scraper.

use std::collections::BTreeMap;

use noc_telemetry::json::Value;
use noc_telemetry::LatencyHistogram;

use crate::snapshot::{MetricsSnapshot, SnapshotError, SpanSnapshot};

/// Quantiles the Prometheus summary view reports for exact histograms.
const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

fn num(v: f64) -> String {
    Value::Num(v).to_string()
}

fn sum_of(h: &LatencyHistogram) -> u64 {
    h.iter()
        .fold(0u128, |acc, (v, c)| acc + v as u128 * c as u128)
        .min(u64::MAX as u128) as u64
}

impl MetricsSnapshot {
    /// Render as Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", num(*v)));
        }
        for (name, h) in &self.exact {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for q in SUMMARY_QUANTILES {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("{name}{{quantile=\"{}\"}} {v}\n", num(q)));
                }
            }
            out.push_str(&format!("{name}_sum {}\n", sum_of(h)));
            out.push_str(&format!("{name}_count {}\n", h.total()));
            let pairs: Vec<String> = h.iter().map(|(v, c)| format!("{v}:{c}")).collect();
            out.push_str(&format!("# obm-exact {name} {}\n", pairs.join(",")));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE obm_span_nanos summary\n");
            for (path, s) in &self.spans {
                out.push_str(&format!(
                    "obm_span_nanos_sum{{span=\"{path}\"}} {}\nobm_span_nanos_count{{span=\"{path}\"}} {}\n",
                    s.total_nanos, s.count
                ));
            }
            out.push_str("# TYPE obm_span_max_nanos gauge\n");
            for (path, s) in &self.spans {
                out.push_str(&format!(
                    "obm_span_max_nanos{{span=\"{path}\"}} {}\n",
                    s.max_nanos
                ));
            }
        }
        out
    }

    /// Render as JSON lines: one object per instrument, keys sorted,
    /// `kind` discriminating the schema.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(
                &Value::obj([
                    ("kind", Value::from("counter")),
                    ("name", Value::from(name.as_str())),
                    ("value", Value::from(*v)),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        for (name, v) in &self.gauges {
            out.push_str(
                &Value::obj([
                    ("kind", Value::from("gauge")),
                    ("name", Value::from(name.as_str())),
                    ("value", Value::from(*v)),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        for (name, h) in &self.exact {
            let pairs = h
                .iter()
                .map(|(v, c)| Value::Arr(vec![Value::from(v), Value::from(c)]))
                .collect();
            out.push_str(
                &Value::obj([
                    ("kind", Value::from("exact")),
                    ("name", Value::from(name.as_str())),
                    ("pairs", Value::Arr(pairs)),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        for (path, s) in &self.spans {
            out.push_str(
                &Value::obj([
                    ("kind", Value::from("span")),
                    ("name", Value::from(path.as_str())),
                    ("count", Value::from(s.count)),
                    ("total_nanos", Value::from(s.total_nanos)),
                    ("max_nanos", Value::from(s.max_nanos)),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        out
    }

    /// Parse the JSON-lines form back into a snapshot. Lines whose
    /// `kind` is unknown are skipped (forward compatibility); malformed
    /// JSON or a known kind missing its fields is an error.
    pub fn from_json_lines(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        let mut snap = MetricsSnapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = noc_telemetry::json::parse(line)
                .map_err(|e| SnapshotError(format!("line {}: {e}", lineno + 1)))?;
            let bad = |field: &str| {
                SnapshotError(format!("line {}: missing/invalid '{field}'", lineno + 1))
            };
            let kind = v.get("kind").and_then(Value::as_str).unwrap_or("");
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("name"))?
                .to_string();
            match kind {
                "counter" => {
                    let val = v
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("value"))?;
                    snap.counters.insert(name, val);
                }
                "gauge" => {
                    let val = v
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| bad("value"))?;
                    snap.gauges.insert(name, val);
                }
                "exact" => {
                    let pairs = v
                        .get("pairs")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| bad("pairs"))?;
                    let mut h = LatencyHistogram::default();
                    for p in pairs {
                        let p = p.as_arr().ok_or_else(|| bad("pairs"))?;
                        let (val, count) = match (
                            p.first().and_then(Value::as_u64),
                            p.get(1).and_then(Value::as_u64),
                        ) {
                            (Some(a), Some(b)) => (a, b),
                            _ => return Err(bad("pairs")),
                        };
                        h.record_n(val, count);
                    }
                    snap.exact.insert(name, h);
                }
                "span" => {
                    let field = |f: &str| v.get(f).and_then(Value::as_u64);
                    let (count, total, max) =
                        match (field("count"), field("total_nanos"), field("max_nanos")) {
                            (Some(c), Some(t), Some(m)) => (c, t, m),
                            _ => return Err(bad("count/total_nanos/max_nanos")),
                        };
                    snap.spans.insert(
                        name,
                        SpanSnapshot {
                            count,
                            total_nanos: total,
                            max_nanos: max,
                        },
                    );
                }
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Parse the Prometheus text form back into a snapshot. Counters,
    /// gauges and spans reconstruct exactly; exact histograms
    /// reconstruct from their `# obm-exact` comment lines. Foreign
    /// summaries without one and foreign histograms are skipped.
    pub fn from_prometheus(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        let mut snap = MetricsSnapshot::default();
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            let err = |msg: &str| SnapshotError(format!("line {}: {msg}: {line}", lineno + 1));
            if let Some(rest) = line.strip_prefix("# obm-exact ") {
                let (name, pairs) = rest.split_once(' ').unwrap_or((rest, ""));
                let mut h = LatencyHistogram::default();
                for p in pairs.split(',').filter(|p| !p.is_empty()) {
                    let (v, c) = p.split_once(':').ok_or_else(|| err("bad exact pair"))?;
                    let v = v.parse::<u64>().map_err(|_| err("bad exact value"))?;
                    let c = c.parse::<u64>().map_err(|_| err("bad exact count"))?;
                    h.record_n(v, c);
                }
                snap.exact.insert(name.to_string(), h);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    types.insert(name.to_string(), kind.trim().to_string());
                }
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err("expected 'name value'"))?;
            let (name, label) = match key.split_once('{') {
                Some((n, rest)) => {
                    let inner = rest.strip_suffix('}').ok_or_else(|| err("bad labels"))?;
                    (n, Some(inner))
                }
                None => (key, None),
            };
            let label_value = |l: &str| -> Option<String> {
                let (k, v) = l.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                Some(format!("{k}\u{0}{v}"))
            };
            let label = label.and_then(label_value);
            let fval = value.parse::<f64>().map_err(|_| err("bad numeric value"))?;
            let uval = value.parse::<u64>().unwrap_or(fval as u64);
            // Span families carry the path in the `span` label.
            if let Some(path) = label
                .as_deref()
                .and_then(|l| l.strip_prefix("span\u{0}"))
                .map(str::to_string)
            {
                let s = snap.spans.entry(path).or_default();
                match name {
                    "obm_span_nanos_sum" => s.total_nanos = uval,
                    "obm_span_nanos_count" => s.count = uval,
                    "obm_span_max_nanos" => s.max_nanos = uval,
                    _ => {}
                }
                continue;
            }
            // Only series typed under their own name are kept: a
            // summary's or histogram's `_sum`, `_count`, quantiles and
            // buckets are skipped (our summaries' pairs came in above).
            if label.is_some() {
                continue;
            }
            match types.get(name).map(String::as_str) {
                Some("counter") => {
                    snap.counters.insert(name.to_string(), uval);
                }
                Some("gauge") => {
                    snap.gauges.insert(name.to_string(), fval);
                }
                _ => {}
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ClockMode, MetricsRegistry};

    fn sample() -> MetricsSnapshot {
        let reg = MetricsRegistry::with_clock(ClockMode::Logical);
        let h = reg.handle();
        h.add("portfolio_evals_total", 1234);
        h.add("sim_cycles_total", 10_000);
        h.gauge_set("portfolio_workers", 4.0);
        h.gauge_set("sim_shards", 2.5);
        h.observe("remap_migrated_threads", 3);
        h.observe("remap_migrated_threads", 3);
        h.observe("remap_migrated_threads", 5);
        h.record_span("portfolio/task/SSS", 1, 0, 0);
        h.record_span("sim/shard/barrier", 10_000, 0, 0);
        reg.snapshot()
    }

    /// A `fixed`-kind line, which this crate does not write; parsers
    /// skip it like any unknown kind.
    const FOREIGN_JSON: &str = "{\"kind\":\"fixed\",\"name\":\"placement_inner_evals\",\
        \"bounds\":[10,100],\"counts\":[1,1,1],\"sum\":7077}\n";

    /// A histogram family from another exporter; parsers skip it.
    const FOREIGN_PROM: &str = "# TYPE placement_inner_evals histogram\n\
        placement_inner_evals_bucket{le=\"10\"} 1\n\
        placement_inner_evals_bucket{le=\"100\"} 2\n\
        placement_inner_evals_bucket{le=\"+Inf\"} 3\n\
        placement_inner_evals_sum 7077\n\
        placement_inner_evals_count 3\n";

    #[test]
    fn json_lines_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json_lines();
        for input in [
            text.clone(),
            format!("{FOREIGN_JSON}{text}"),
            format!("{text}{FOREIGN_JSON}"),
        ] {
            let back = MetricsSnapshot::from_json_lines(&input).expect("parse");
            assert_eq!(back, snap, "{input}");
            // and deterministic
            assert_eq!(text, back.to_json_lines());
        }
    }

    #[test]
    fn prometheus_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_prometheus();
        for input in [
            text.clone(),
            format!("{FOREIGN_PROM}{text}"),
            format!("{text}{FOREIGN_PROM}"),
        ] {
            let back = MetricsSnapshot::from_prometheus(&input).expect("parse");
            assert_eq!(back, snap, "{input}");
            assert_eq!(text, back.to_prometheus());
        }
    }

    #[test]
    fn prometheus_emits_standard_families() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE portfolio_evals_total counter"));
        assert!(text.contains("portfolio_evals_total 1234"));
        assert!(text.contains("# TYPE portfolio_workers gauge"));
        assert!(text.contains("portfolio_workers 4"));
        assert!(text.contains("# TYPE remap_migrated_threads summary"));
        assert!(text.contains("remap_migrated_threads{quantile=\"0.5\"} 3"));
        assert!(text.contains("remap_migrated_threads_count 3"));
        assert!(text.contains("obm_span_nanos_count{span=\"sim/shard/barrier\"} 10000"));
    }

    #[test]
    fn format_sniffing_parses_both() {
        let snap = sample();
        assert_eq!(
            MetricsSnapshot::parse(&snap.to_json_lines()).ok(),
            Some(snap.clone())
        );
        assert_eq!(
            MetricsSnapshot::parse(&snap.to_prometheus()).ok(),
            Some(snap)
        );
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(MetricsSnapshot::from_json_lines("{not json").is_err());
        assert!(MetricsSnapshot::from_json_lines("{\"kind\":\"counter\"}").is_err());
        assert!(MetricsSnapshot::from_prometheus("# TYPE x counter\nx notanumber").is_err());
    }
}
