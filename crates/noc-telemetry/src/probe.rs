//! The `Probe`/`Sink` trait pair.
//!
//! Instrumented code (the simulator hot loop, the solvers) talks to a
//! [`Probe`]: it checks [`Probe::is_enabled`] once up front and, when
//! enabled, delivers finished [`WindowRecord`]s and [`SolverEvent`]s.
//! Storage backends implement the simpler [`Sink`] (one `record` method);
//! a blanket impl turns every `Sink` into a `Probe`.

use crate::heatmap::HeatmapRecord;
use crate::histogram::{FlowSummary, PacketRecord};
use crate::solver::SolverEvent;
use crate::window::WindowRecord;

/// A telemetry record, as delivered to a [`Sink`].
///
/// The window variant dominates the sizes of the per-window records;
/// boxing it would put an allocation on every delivered window, which
/// the probe contract forbids on the instrumented hot path. The
/// end-of-run flow/heatmap records are delivered once per run, so their
/// size is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A finished simulation window.
    Window(WindowRecord),
    /// A solver-side event.
    Solver(SolverEvent),
    /// One delivered packet's lifecycle (opt-in via
    /// [`Probe::wants_packets`]).
    Packet(PacketRecord),
    /// End-of-run latency decomposition per class/group.
    Flow(FlowSummary),
    /// End-of-run spatial heatmap.
    Heatmap(HeatmapRecord),
}

/// Instrumentation interface invoked by the simulator and the solvers.
///
/// The contract for instrumented code:
///
/// 1. call [`Probe::is_enabled`] before doing telemetry-only bookkeeping
///    (window accumulation, record allocation) so a disabled probe costs
///    nothing on the hot path;
/// 2. never let the probe influence semantics — a fixed seed must produce
///    a bit-identical result whatever the probe (pinned by
///    `tests/sim_determinism.rs`).
pub trait Probe {
    /// Whether this probe wants records at all. `false` lets instrumented
    /// code skip all telemetry bookkeeping (the [`NoopSink`] fast path).
    fn is_enabled(&self) -> bool {
        true
    }

    /// A simulation window finished (its end cycle was reached, or a
    /// phase boundary / end of run truncated it).
    fn on_window(&mut self, _record: &WindowRecord) {}

    /// A solver emitted an event.
    fn on_solver_event(&mut self, _event: &SolverEvent) {}

    /// Whether the probe wants one [`PacketRecord`] per delivered packet.
    /// Per-packet streams are large; flow/heatmap aggregates are always
    /// delivered to enabled probes, so this defaults to `false`.
    fn wants_packets(&self) -> bool {
        false
    }

    /// A packet was delivered (only when [`wants_packets`]
    /// [`Probe::wants_packets`] returns `true`). Records arrive in
    /// delivery order, batched at the end of each cycle.
    fn on_packet(&mut self, _record: &PacketRecord) {}

    /// The end-of-run latency decomposition (delivered once, before
    /// [`on_heatmap`](Probe::on_heatmap)).
    fn on_flow(&mut self, _summary: &FlowSummary) {}

    /// The end-of-run spatial heatmap (delivered once, finalized).
    fn on_heatmap(&mut self, _heatmap: &HeatmapRecord) {}
}

/// A consumer of finished telemetry records (storage backends).
///
/// Implement this instead of [`Probe`] when the backend treats windows
/// and solver events uniformly; the blanket impl forwards both probe
/// callbacks here.
pub trait Sink {
    /// Consume one record. Records arrive in emission order.
    fn record(&mut self, record: &Record);

    /// See [`Probe::is_enabled`].
    fn is_enabled(&self) -> bool {
        true
    }

    /// See [`Probe::wants_packets`].
    fn wants_packets(&self) -> bool {
        false
    }
}

impl<S: Sink> Probe for S {
    fn is_enabled(&self) -> bool {
        Sink::is_enabled(self)
    }

    fn on_window(&mut self, record: &WindowRecord) {
        self.record(&Record::Window(record.clone()));
    }

    fn on_solver_event(&mut self, event: &SolverEvent) {
        self.record(&Record::Solver(event.clone()));
    }

    fn wants_packets(&self) -> bool {
        Sink::wants_packets(self)
    }

    fn on_packet(&mut self, record: &PacketRecord) {
        self.record(&Record::Packet(*record));
    }

    fn on_flow(&mut self, summary: &FlowSummary) {
        self.record(&Record::Flow(summary.clone()));
    }

    fn on_heatmap(&mut self, heatmap: &HeatmapRecord) {
        self.record(&Record::Heatmap(heatmap.clone()));
    }
}

/// The no-op default: reports itself disabled and discards everything.
///
/// `Network::run` and `Mapper::map` route through this sink, so the
/// telemetry-off path stays allocation-free and bit-identical to the
/// pre-telemetry simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&mut self, _record: &Record) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{Phase, WindowRecord};

    struct Counter {
        windows: usize,
        events: usize,
        other: usize,
    }

    impl Sink for Counter {
        fn record(&mut self, record: &Record) {
            match record {
                Record::Window(_) => self.windows += 1,
                Record::Solver(_) => self.events += 1,
                _ => self.other += 1,
            }
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        let mut noop = NoopSink;
        let probe: &mut dyn Probe = &mut noop;
        assert!(!probe.is_enabled());
        probe.on_window(&WindowRecord::empty(0, 0, 8, Phase::Warmup, 1));
        probe.on_solver_event(&SolverEvent::EvalDelta {
            edits: 1,
            objective: 1.0,
            delta: 0.0,
        });
    }

    #[test]
    fn sinks_are_probes() {
        let mut c = Counter {
            windows: 0,
            events: 0,
            other: 0,
        };
        {
            let probe: &mut dyn Probe = &mut c;
            assert!(probe.is_enabled());
            probe.on_window(&WindowRecord::empty(0, 0, 8, Phase::Measure, 1));
            probe.on_solver_event(&SolverEvent::EvalDelta {
                edits: 1,
                objective: 2.0,
                delta: -0.5,
            });
            probe.on_solver_event(&SolverEvent::EvalDelta {
                edits: 2,
                objective: 1.5,
                delta: -0.5,
            });
        }
        assert_eq!((c.windows, c.events, c.other), (1, 2, 0));
    }

    #[test]
    fn flow_and_heatmap_forward_through_blanket_impl() {
        let mut c = Counter {
            windows: 0,
            events: 0,
            other: 0,
        };
        {
            let probe: &mut dyn Probe = &mut c;
            // Opt-in hooks default off even for enabled sinks.
            assert!(!probe.wants_packets());
            probe.on_flow(&crate::histogram::FlowSummary::new(1));
            probe.on_heatmap(&crate::heatmap::HeatmapRecord::new(2, 2, 2));
        }
        assert_eq!((c.windows, c.events, c.other), (0, 0, 2));
    }
}
