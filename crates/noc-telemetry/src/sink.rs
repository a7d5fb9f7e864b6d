//! Bundled sinks: bounded in-memory capture and JSON-lines artifacts.

use std::collections::VecDeque;
use std::io::Write;

use crate::heatmap::HeatmapRecord;
use crate::histogram::{FlowAccum, FlowSummary, PacketRecord};
use crate::json::Value;
use crate::latency::LatencyAccum;
use crate::probe::{Record, Sink};
use crate::solver::SolverEvent;
use crate::window::WindowRecord;

/// Bounded in-memory capture that keeps the **newest** records.
///
/// When full, recording pushes the oldest record out and counts it as
/// dropped, so a long run with a small ring ends with the tail of the
/// trace — the part post-mortem analysis usually wants. Per-packet
/// records are opt-in ([`with_packets`](RingSink::with_packets));
/// end-of-run flow and heatmap records always arrive.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    records: VecDeque<Record>,
    dropped: u64,
    want_packets: bool,
}

impl RingSink {
    /// A ring holding at most `capacity` records (coerced up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            records: VecDeque::with_capacity(capacity),
            dropped: 0,
            want_packets: false,
        }
    }

    /// Opt into one [`PacketRecord`] per delivered packet.
    pub fn with_packets(mut self) -> Self {
        self.want_packets = true;
        self
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Retained window records, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Window(w) => Some(w),
            _ => None,
        })
    }

    /// Retained solver events, oldest first.
    pub fn solver_events(&self) -> impl Iterator<Item = &SolverEvent> {
        self.records.iter().filter_map(|r| match r {
            Record::Solver(e) => Some(e),
            _ => None,
        })
    }

    /// Retained per-packet records, oldest first.
    pub fn packets(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Packet(p) => Some(p),
            _ => None,
        })
    }

    /// Retained end-of-run flow summaries, oldest first.
    pub fn flow_summaries(&self) -> impl Iterator<Item = &FlowSummary> {
        self.records.iter().filter_map(|r| match r {
            Record::Flow(f) => Some(f),
            _ => None,
        })
    }

    /// Retained end-of-run heatmaps, oldest first.
    pub fn heatmaps(&self) -> impl Iterator<Item = &HeatmapRecord> {
        self.records.iter().filter_map(|r| match r {
            Record::Heatmap(h) => Some(h),
            _ => None,
        })
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the sink, yielding retained records oldest first.
    pub fn into_records(self) -> Vec<Record> {
        self.records.into()
    }
}

impl Sink for RingSink {
    fn record(&mut self, record: &Record) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record.clone());
    }

    fn wants_packets(&self) -> bool {
        self.want_packets
    }
}

/// Streams records as JSON lines (one object per record per line) to any
/// [`Write`] — the artifact format behind `obm experiments trace`.
///
/// The schema is documented in DESIGN.md; every line carries a `"type"`
/// discriminator (`"window"`, `"solver"`, `"packet"`, `"flow"`,
/// `"heatmap"`). I/O errors are sticky: the
/// first failure is remembered and later records are discarded, so a full
/// disk cannot panic the simulator mid-run. Check
/// [`error`](JsonLinesSink::error) / [`finish`](JsonLinesSink::finish).
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    written: u64,
    error: Option<std::io::Error>,
    want_packets: bool,
}

impl<W: Write> JsonLinesSink<W> {
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            written: 0,
            error: None,
            want_packets: false,
        }
    }

    /// Opt into one `"packet"` line per delivered packet.
    pub fn with_packets(mut self) -> Self {
        self.want_packets = true;
        self
    }

    /// Write one arbitrary JSON line (used for leading meta records).
    pub fn write_value(&mut self, value: &Value) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{value}") {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.written
    }

    /// The first I/O error hit, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flush and return the writer, or the first I/O error (sticky write
    /// errors take precedence over flush errors).
    pub fn finish(mut self) -> std::io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => {
                self.writer.flush()?;
                Ok(self.writer)
            }
        }
    }
}

impl<W: Write> Sink for JsonLinesSink<W> {
    fn record(&mut self, record: &Record) {
        let value = record.to_json();
        self.write_value(&value);
    }

    fn wants_packets(&self) -> bool {
        self.want_packets
    }
}

fn accum_to_json(a: &LatencyAccum) -> Value {
    Value::obj([
        ("packets", Value::from(a.packets)),
        ("mean_latency", Value::from(a.apl())),
        ("mean_hops", Value::from(a.mean_hops())),
        ("mean_td_q", Value::from(a.mean_td_q())),
        ("total_flits", Value::from(a.total_flits)),
    ])
}

impl WindowRecord {
    /// The JSON-lines representation of this window (schema in DESIGN.md).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("type", Value::from("window")),
            ("index", Value::from(self.index)),
            ("start_cycle", Value::from(self.start_cycle)),
            ("end_cycle", Value::from(self.end_cycle)),
            ("phase", Value::from(self.phase.name())),
            ("injected_packets", Value::from(self.injected_packets)),
            ("injected_flits", Value::from(self.injected_flits)),
            ("ejected_packets", Value::from(self.ejected_packets)),
            ("ejected_flits", Value::from(self.ejected_flits)),
            ("buffered_flits", Value::from(self.buffered_flits)),
            ("live_packets", Value::from(self.live_packets)),
            ("injection_rate", Value::from(self.injection_rate())),
            ("ejection_rate", Value::from(self.ejection_rate())),
            ("mean_latency", Value::from(self.mean_latency())),
            ("cache", accum_to_json(&self.cache)),
            ("memory", accum_to_json(&self.memory)),
            (
                "groups",
                Value::Arr(self.groups.iter().map(accum_to_json).collect()),
            ),
        ])
    }
}

impl SolverEvent {
    /// The JSON-lines representation of this event (schema in DESIGN.md).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("type", Value::from("solver")),
            ("kind", Value::from(self.kind())),
            ("objective", Value::from(self.objective())),
        ];
        match *self {
            SolverEvent::SwapAccepted {
                window_start,
                step,
                delta,
                ..
            } => {
                pairs.push(("window_start", Value::from(window_start)));
                pairs.push(("step", Value::from(step)));
                pairs.push(("delta", Value::from(delta)));
            }
            SolverEvent::TemperatureStep {
                iteration,
                temperature,
                accepted_since_last,
                ..
            } => {
                pairs.push(("iteration", Value::from(iteration)));
                pairs.push(("temperature", Value::from(temperature)));
                pairs.push(("accepted_since_last", Value::from(accepted_since_last)));
            }
            SolverEvent::EvalDelta { edits, delta, .. } => {
                pairs.push(("edits", Value::from(edits)));
                pairs.push(("delta", Value::from(delta)));
            }
            SolverEvent::WorkerStarted {
                task,
                ref algo,
                seed,
                ..
            } => {
                pairs.push(("task", Value::from(task)));
                pairs.push(("algo", Value::from(algo.as_str())));
                pairs.push(("seed", Value::from(seed)));
            }
            SolverEvent::IncumbentImproved { task, .. } => {
                pairs.push(("task", Value::from(task)));
            }
            SolverEvent::WorkerPruned {
                task, incumbent, ..
            } => {
                pairs.push(("task", Value::from(task)));
                pairs.push(("incumbent", Value::from(incumbent)));
            }
        }
        Value::obj(pairs)
    }
}

fn quantile_json(accum: &FlowAccum, q: f64) -> Value {
    accum
        .histogram
        .quantile(q)
        .map(Value::from)
        .unwrap_or(Value::Null)
}

fn flow_accum_to_json(a: &FlowAccum) -> Value {
    Value::obj([
        ("packets", Value::from(a.packets)),
        ("mean_latency", Value::from(a.histogram.mean())),
        ("p50", quantile_json(a, 0.5)),
        ("p95", quantile_json(a, 0.95)),
        ("p99", quantile_json(a, 0.99)),
        (
            "max",
            a.histogram.max().map(Value::from).unwrap_or(Value::Null),
        ),
        ("mean_source_queue", Value::from(a.mean_source_queue())),
        ("mean_in_network", Value::from(a.mean_in_network())),
        ("mean_serialization", Value::from(a.mean_serialization())),
        (
            "log2_buckets",
            Value::Arr(
                a.histogram
                    .log2_buckets()
                    .iter()
                    .map(|b| {
                        Value::Arr(vec![
                            Value::from(b.lo),
                            Value::from(b.hi),
                            Value::from(b.count),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl PacketRecord {
    /// The JSON-lines representation of this packet (schema in DESIGN.md).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("type", Value::from("packet")),
            ("src", Value::from(self.src)),
            ("dst", Value::from(self.dst)),
            (
                "class",
                Value::from(if self.cache { "cache" } else { "memory" }),
            ),
            ("group", Value::from(self.group)),
            ("flits", Value::from(self.flits as u64)),
            ("hops", Value::from(self.hops as u64)),
            ("enqueue_cycle", Value::from(self.enqueue_cycle)),
            ("inject_cycle", Value::from(self.inject_cycle)),
            ("head_eject_cycle", Value::from(self.head_eject_cycle)),
            ("tail_eject_cycle", Value::from(self.tail_eject_cycle)),
            ("source_queue", Value::from(self.source_queue())),
            ("in_network", Value::from(self.in_network())),
            ("serialization", Value::from(self.serialization())),
            ("latency", Value::from(self.latency())),
            ("measured", Value::Bool(self.measured)),
        ])
    }
}

impl FlowSummary {
    /// The JSON-lines representation of this summary (schema in
    /// DESIGN.md).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("type", Value::from("flow")),
            ("cache", flow_accum_to_json(&self.cache)),
            ("memory", flow_accum_to_json(&self.memory)),
            (
                "groups",
                Value::Arr(self.groups.iter().map(flow_accum_to_json).collect()),
            ),
        ])
    }
}

impl HeatmapRecord {
    /// The JSON-lines representation of this heatmap (schema in
    /// DESIGN.md). `total_link_flits` is carried explicitly so consumers
    /// can arithmetic-check conservation against the report's
    /// `link_flit_traversals` without summing `links`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("type", Value::from("heatmap")),
            ("rows", Value::from(self.rows)),
            ("cols", Value::from(self.cols)),
            ("total_vcs", Value::from(self.total_vcs)),
            ("wrap", Value::Bool(self.wrap)),
            ("cycles", Value::from(self.cycles)),
            ("total_link_flits", Value::from(self.total_link_flits())),
            (
                "links",
                Value::Arr(
                    self.links()
                        .map(|l| {
                            Value::obj([
                                ("tile", Value::from(l.tile)),
                                ("port", Value::from(l.port)),
                                ("to", Value::from(l.to)),
                                ("flits", Value::from(l.flits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "vc_occupancy",
                Value::Arr(self.vc_occupancy.iter().map(|&v| Value::from(v)).collect()),
            ),
            (
                "credit_stalls",
                Value::Arr(self.credit_stalls.iter().map(|&v| Value::from(v)).collect()),
            ),
            (
                "vc_stalls",
                Value::Arr(self.vc_stalls.iter().map(|&v| Value::from(v)).collect()),
            ),
            (
                "switch_stalls",
                Value::Arr(self.switch_stalls.iter().map(|&v| Value::from(v)).collect()),
            ),
        ])
    }
}

impl Record {
    /// The JSON-lines representation of this record.
    pub fn to_json(&self) -> Value {
        match self {
            Record::Window(w) => w.to_json(),
            Record::Solver(e) => e.to_json(),
            Record::Packet(p) => p.to_json(),
            Record::Flow(f) => f.to_json(),
            Record::Heatmap(h) => h.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::window::Phase;

    fn window(i: u64) -> Record {
        Record::Window(WindowRecord::empty(
            i,
            i * 10,
            (i + 1) * 10,
            Phase::Measure,
            2,
        ))
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(&window(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.windows().map(|w| w.index).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(ring.into_records().len(), 3);
    }

    #[test]
    fn ring_separates_windows_and_events() {
        let mut ring = RingSink::new(8);
        ring.record(&window(0));
        ring.record(&Record::Solver(SolverEvent::EvalDelta {
            edits: 1,
            objective: 5.0,
            delta: -0.5,
        }));
        assert_eq!(ring.windows().count(), 1);
        assert_eq!(ring.solver_events().count(), 1);
        assert_eq!(ring.records().count(), 2);
    }

    #[test]
    fn portfolio_events_serialize_with_task_and_null_infinite_incumbent() {
        let v = SolverEvent::WorkerStarted {
            task: 3,
            algo: "SSS".to_string(),
            seed: 9,
            incumbent: f64::INFINITY,
        }
        .to_json();
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("worker_started")
        );
        assert_eq!(v.get("task").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("algo").and_then(Value::as_str), Some("SSS"));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(9));
        // +inf incumbent (no finished task yet) serializes as null.
        assert!(v.to_string().contains("\"objective\":null"));

        let v = SolverEvent::IncumbentImproved {
            task: 1,
            objective: 9.25,
        }
        .to_json();
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("incumbent_improved")
        );
        assert_eq!(v.get("objective").and_then(Value::as_f64), Some(9.25));

        let v = SolverEvent::WorkerPruned {
            task: 2,
            objective: 10.5,
            incumbent: 9.25,
        }
        .to_json();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("worker_pruned"));
        assert_eq!(v.get("incumbent").and_then(Value::as_f64), Some(9.25));
    }

    #[test]
    fn json_lines_round_trip() {
        let mut sink = JsonLinesSink::new(Vec::new());
        let mut w = WindowRecord::empty(0, 500, 1000, Phase::Measure, 1);
        w.injected_packets = 25;
        w.injected_flits = 50;
        w.cache.record(12, 3, 2, 11);
        sink.record(&Record::Window(w));
        sink.record(&Record::Solver(SolverEvent::TemperatureStep {
            iteration: 1000,
            temperature: 0.75,
            objective: 13.5,
            accepted_since_last: 12,
        }));
        assert_eq!(sink.lines_written(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);

        let v = json::parse(lines[0]).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("window"));
        assert_eq!(v.get("phase").and_then(Value::as_str), Some("measure"));
        assert_eq!(v.get("injected_packets").and_then(Value::as_u64), Some(25));
        assert_eq!(
            v.get("injection_rate").and_then(Value::as_f64),
            Some(25.0 / 500.0)
        );
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("packets").and_then(Value::as_u64), Some(1));
        assert_eq!(
            cache.get("mean_latency").and_then(Value::as_f64),
            Some(12.0)
        );
        assert_eq!(
            v.get("groups").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );

        let v = json::parse(lines[1]).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("solver"));
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("temperature_step")
        );
        assert_eq!(v.get("iteration").and_then(Value::as_u64), Some(1000));
        assert_eq!(v.get("temperature").and_then(Value::as_f64), Some(0.75));
    }

    #[test]
    fn ring_opt_ins_and_new_record_accessors() {
        let ring = RingSink::new(4);
        assert!(!Sink::wants_packets(&ring));
        let mut ring = RingSink::new(8).with_packets();
        assert!(Sink::wants_packets(&ring));

        let pkt = PacketRecord {
            src: 0,
            dst: 3,
            cache: true,
            group: 0,
            flits: 2,
            hops: 2,
            enqueue_cycle: 10,
            inject_cycle: 12,
            head_eject_cycle: 24,
            tail_eject_cycle: 25,
            measured: true,
        };
        let mut flow = FlowSummary::new(1);
        flow.record(&pkt);
        let mut heat = HeatmapRecord::new(2, 2, 2);
        heat.on_link_traversal(0, crate::heatmap::PORT_EAST);
        heat.finalize(100);
        ring.record(&Record::Packet(pkt));
        ring.record(&Record::Flow(flow));
        ring.record(&Record::Heatmap(heat));
        assert_eq!(ring.packets().count(), 1);
        assert_eq!(ring.flow_summaries().count(), 1);
        assert_eq!(ring.heatmaps().count(), 1);
        assert_eq!(ring.windows().count(), 0);
        assert_eq!(ring.solver_events().count(), 0);
    }

    #[test]
    fn new_record_json_lines_round_trip() {
        let pkt = PacketRecord {
            src: 1,
            dst: 6,
            cache: false,
            group: 1,
            flits: 5,
            hops: 3,
            enqueue_cycle: 100,
            inject_cycle: 104,
            head_eject_cycle: 120,
            tail_eject_cycle: 124,
            measured: true,
        };
        let v = pkt.to_json();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("packet"));
        assert_eq!(v.get("class").and_then(Value::as_str), Some("memory"));
        assert_eq!(v.get("source_queue").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("in_network").and_then(Value::as_u64), Some(16));
        assert_eq!(v.get("serialization").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("latency").and_then(Value::as_u64), Some(25));
        // Round-trips through the parser.
        let parsed = json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.get("latency").and_then(Value::as_u64), Some(25));

        let mut flow = FlowSummary::new(2);
        flow.record(&pkt);
        let v = flow.to_json();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("flow"));
        let mem = v.get("memory").unwrap();
        assert_eq!(mem.get("packets").and_then(Value::as_u64), Some(1));
        assert_eq!(mem.get("p99").and_then(Value::as_u64), Some(25));
        assert_eq!(mem.get("max").and_then(Value::as_u64), Some(25));
        // Empty accumulator serializes null quantiles, not a panic.
        let cache = v.get("cache").unwrap();
        assert!(matches!(cache.get("p99"), Some(Value::Null)));

        let mut heat = HeatmapRecord::new(2, 2, 2);
        heat.on_link_traversal(0, crate::heatmap::PORT_EAST);
        heat.on_link_traversal(0, crate::heatmap::PORT_EAST);
        heat.finalize(50);
        let v = heat.to_json();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("heatmap"));
        assert_eq!(v.get("total_link_flits").and_then(Value::as_u64), Some(2));
        let links = v.get("links").and_then(Value::as_arr).unwrap();
        assert_eq!(links.len(), 8);
        let total: u64 = links
            .iter()
            .map(|l| l.get("flits").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn write_errors_are_sticky_not_panics() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::new(Broken);
        sink.record(&window(0));
        sink.record(&window(1));
        assert_eq!(sink.lines_written(), 0);
        assert!(sink.error().is_some());
        assert!(sink.finish().is_err());
    }
}
