//! The `obm status` ASCII dashboard: an aggregated snapshot rendered
//! for a terminal, grouped by subsystem (the metric-name prefix up to
//! the first `_`) with a span tree at the bottom.

use std::collections::BTreeMap;

use noc_telemetry::json::Value;

use crate::snapshot::MetricsSnapshot;

/// Format a nanosecond quantity for humans (deterministic: integer
/// nanos in, fixed precision out).
fn fmt_nanos(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.2}s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.2}ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.2}us", nanos / 1e3)
    } else {
        format!("{nanos:.0}ns")
    }
}

fn subsystem(name: &str) -> &str {
    name.split(['_', '/']).next().unwrap_or(name)
}

impl MetricsSnapshot {
    /// Render the aggregated dashboard. `sources` is how many snapshot
    /// files were merged into `self` (shown in the header).
    pub fn render_dashboard(&self, sources: usize) -> String {
        let mut out = format!(
            "obm status — {sources} snapshot{} merged\n",
            if sources == 1 { "" } else { "s" }
        );
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        // Group scalar instruments by subsystem prefix.
        let mut groups: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for (name, v) in &self.counters {
            groups
                .entry(subsystem(name))
                .or_default()
                .push(format!("  {name:<44} {v}"));
        }
        for (name, v) in &self.gauges {
            groups
                .entry(subsystem(name))
                .or_default()
                .push(format!("  {name:<44} {}", Value::Num(*v)));
        }
        for (name, h) in &self.exact {
            let (p50, p99) = (h.quantile(0.5).unwrap_or(0), h.quantile(0.99).unwrap_or(0));
            groups.entry(subsystem(name)).or_default().push(format!(
                "  {name:<44} n={} mean={:.2} p50={p50} p99={p99} max={}",
                h.total(),
                h.mean(),
                h.max().unwrap_or(0)
            ));
        }
        for (sub, lines) in groups {
            out.push_str(&format!("\n[{sub}]\n"));
            for l in lines {
                out.push_str(&l);
                out.push('\n');
            }
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "\n[spans]\n  {:<44} {:>8} {:>10} {:>10} {:>10}\n",
                "path", "count", "total", "mean", "max"
            ));
            // BTreeMap order sorts children directly under their parent
            // prefix. A span sits one level below its nearest recorded
            // ancestor and is named by the rest of its path, so one
            // without recorded ancestors (`sim/serial/cycle`) shows its
            // full path rather than reading as its neighbour's child.
            let mut depths: BTreeMap<&str, usize> = BTreeMap::new();
            for (path, s) in &self.spans {
                let parent = path
                    .match_indices('/')
                    .rev()
                    .map(|(i, _)| &path[..i])
                    .find(|p| depths.contains_key(p));
                let (depth, name) = match parent {
                    Some(p) => (depths[p] + 1, &path[p.len() + 1..]),
                    None => (0, path.as_str()),
                };
                depths.insert(path, depth);
                let label = format!("{}{name}", "  ".repeat(depth));
                out.push_str(&format!(
                    "  {label:<44} {:>8} {:>10} {:>10} {:>10}\n",
                    s.count,
                    fmt_nanos(s.total_nanos as f64),
                    fmt_nanos(s.mean_nanos()),
                    fmt_nanos(s.max_nanos as f64)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ClockMode, MetricsRegistry};

    #[test]
    fn dashboard_groups_by_subsystem_and_lists_spans() {
        let reg = MetricsRegistry::with_clock(ClockMode::Logical);
        let h = reg.handle();
        h.add("portfolio_evals_total", 10);
        h.add("sim_cycles_total", 20);
        h.gauge_set("portfolio_workers", 2.0);
        h.observe("remap_migrated_threads", 1);
        h.record_span("portfolio", 1, 0, 0);
        h.record_span("portfolio/task/SSS", 1, 0, 0);
        let text = reg.snapshot().render_dashboard(2);
        assert!(text.contains("2 snapshots merged"));
        assert!(text.contains("[portfolio]"));
        assert!(text.contains("[sim]"));
        assert!(text.contains("[remap]"));
        assert!(text.contains("portfolio_evals_total"));
        assert!(text.contains("[spans]"));
        assert!(text.contains("\n    task/SSS "), "{text}");
    }

    #[test]
    fn spans_without_recorded_ancestors_show_their_full_path() {
        let reg = MetricsRegistry::with_clock(ClockMode::Logical);
        let h = reg.handle();
        h.record_span("sim/route", 1, 0, 0);
        h.record_span("sim/serial/cycle", 1, 0, 0);
        let text = reg.snapshot().render_dashboard(1);
        assert!(text.contains("\n  sim/route "), "{text}");
        assert!(text.contains("\n  sim/serial/cycle "), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = MetricsSnapshot::default().render_dashboard(1);
        assert!(text.contains("1 snapshot merged"));
        assert!(text.contains("no metrics recorded"));
    }

    #[test]
    fn nanos_format_is_scaled() {
        assert_eq!(fmt_nanos(12.0), "12ns");
        assert_eq!(fmt_nanos(1500.0), "1.50us");
        assert_eq!(fmt_nanos(2_000_000.0), "2.00ms");
        assert_eq!(fmt_nanos(3.5e9), "3.50s");
    }
}
