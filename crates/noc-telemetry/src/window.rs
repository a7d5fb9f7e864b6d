//! Fixed-width windows over simulated cycles.
//!
//! Windows sit on the global cycle grid `[k·w, (k+1)·w)` but are
//! **truncated at phase boundaries** (end of warm-up, end of injection,
//! end of run), so every record's cycle span lies within exactly one
//! [`Phase`]. Consequences the tests pin down:
//!
//! * the first record is cut short when the warm-up is not a multiple of
//!   the window width;
//! * the record widths of the measurement phase always sum to exactly
//!   `measure_cycles`;
//! * the last record is cut at the cycle the drain actually finished.

use crate::latency::LatencyAccum;
use crate::probe::Probe;

/// Simulation phase a window belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cycles before the measurement window (excluded from the report).
    Warmup,
    /// The measured injection window.
    Measure,
    /// Post-measurement cycles: no new injections, in-flight packets
    /// drain.
    Drain,
}

impl Phase {
    /// Stable lower-case name used in the JSON-lines artifact schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Measure => "measure",
            Phase::Drain => "drain",
        }
    }

    /// Whether this is the measured injection phase — the only phase
    /// whose windows carry representative steady-state latencies (the
    /// online remap controller gates its drift detection on it).
    pub fn is_measure(self) -> bool {
        self == Phase::Measure
    }
}

/// Telemetry for one window of simulated cycles `[start_cycle,
/// end_cycle)`.
///
/// Counts cover *all* packets touching the network in the window
/// (including warm-up/drain traffic and zero-hop local packets), unlike
/// the end-of-run `SimReport`, which only accounts for measured packets.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Sequential record index (0, 1, 2, … in emission order).
    pub index: u64,
    /// First cycle covered by this window.
    pub start_cycle: u64,
    /// One past the last cycle covered (truncation can make
    /// `end_cycle - start_cycle` smaller than the configured width).
    pub end_cycle: u64,
    /// The phase every cycle of this window belongs to.
    pub phase: Phase,
    /// Packets entering the network (NI queue) in this window.
    pub injected_packets: u64,
    /// Flits those packets carry.
    pub injected_flits: u64,
    /// Packets whose tail flit ejected (or that completed locally) in
    /// this window.
    pub ejected_packets: u64,
    /// Flits those packets carried.
    pub ejected_flits: u64,
    /// Flits buffered anywhere in the network, sampled at the end of the
    /// window's last cycle.
    pub buffered_flits: usize,
    /// Live packets (queued or in flight), sampled with
    /// [`buffered_flits`](Self::buffered_flits).
    pub live_packets: usize,
    /// Latency accumulator over cache-class packets ejected in this
    /// window.
    pub cache: LatencyAccum,
    /// Latency accumulator over memory-class packets ejected in this
    /// window.
    pub memory: LatencyAccum,
    /// Per-group (application) accumulators over ejections in this
    /// window.
    pub groups: Vec<LatencyAccum>,
}

impl WindowRecord {
    /// A fresh all-zero record.
    pub fn empty(
        index: u64,
        start_cycle: u64,
        end_cycle: u64,
        phase: Phase,
        groups: usize,
    ) -> Self {
        WindowRecord {
            index,
            start_cycle,
            end_cycle,
            phase,
            injected_packets: 0,
            injected_flits: 0,
            ejected_packets: 0,
            ejected_flits: 0,
            buffered_flits: 0,
            live_packets: 0,
            cache: LatencyAccum::default(),
            memory: LatencyAccum::default(),
            groups: vec![LatencyAccum::default(); groups],
        }
    }

    /// Window width in cycles (post-truncation).
    pub fn width(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Packets injected per cycle.
    pub fn injection_rate(&self) -> f64 {
        if self.width() == 0 {
            0.0
        } else {
            self.injected_packets as f64 / self.width() as f64
        }
    }

    /// Packets ejected per cycle.
    pub fn ejection_rate(&self) -> f64 {
        if self.width() == 0 {
            0.0
        } else {
            self.ejected_packets as f64 / self.width() as f64
        }
    }

    /// Mean latency over both classes' ejections in this window.
    pub fn mean_latency(&self) -> f64 {
        let packets = self.cache.packets + self.memory.packets;
        if packets == 0 {
            0.0
        } else {
            (self.cache.total_latency + self.memory.total_latency) / packets as f64
        }
    }
}

/// Accumulates per-window counters on behalf of the simulator and flushes
/// a [`WindowRecord`] to the probe at every window/phase boundary.
///
/// The simulator drives it with [`on_inject`](Windower::on_inject) /
/// [`on_eject`](Windower::on_eject) during the cycle and one
/// [`end_cycle`](Windower::end_cycle) call per cycle; [`finish`]
/// (Windower::finish) truncates and flushes the final partial window.
#[derive(Debug)]
pub struct Windower {
    width: u64,
    num_groups: usize,
    /// First cycle of the measurement phase.
    warmup_end: u64,
    /// First cycle of the drain phase.
    inject_end: u64,
    cur: WindowRecord,
}

impl Windower {
    /// A windower for a run with the given window `width` (cycles),
    /// warm-up length and measurement length. A zero width is coerced
    /// to 1.
    pub fn new(width: u64, num_groups: usize, warmup_cycles: u64, measure_cycles: u64) -> Self {
        let width = width.max(1);
        let warmup_end = warmup_cycles;
        let inject_end = warmup_cycles + measure_cycles;
        let mut w = Windower {
            width,
            num_groups,
            warmup_end,
            inject_end,
            cur: WindowRecord::empty(0, 0, 0, Phase::Warmup, num_groups),
        };
        w.cur = WindowRecord::empty(0, 0, w.boundary_after(0), w.phase_of(0), num_groups);
        w
    }

    fn phase_of(&self, cycle: u64) -> Phase {
        if cycle < self.warmup_end {
            Phase::Warmup
        } else if cycle < self.inject_end {
            Phase::Measure
        } else {
            Phase::Drain
        }
    }

    /// The earliest of: the next grid point after `start`, and any phase
    /// boundary strictly inside `(start, grid]`.
    fn boundary_after(&self, start: u64) -> u64 {
        let mut end = (start / self.width + 1) * self.width;
        for b in [self.warmup_end, self.inject_end] {
            if start < b && b < end {
                end = b;
            }
        }
        end
    }

    /// One past the last cycle of the window currently being accumulated.
    ///
    /// The simulator's event-horizon fast-forward clamps its jumps to
    /// `current_window_end() - 1` so every window's final cycle executes
    /// normally and [`end_cycle`](Windower::end_cycle) flushes it — window
    /// spans stay exact whether or not cycles in between were skipped.
    pub fn current_window_end(&self) -> u64 {
        self.cur.end_cycle
    }

    /// A packet of `flits` flits entered the network.
    pub fn on_inject(&mut self, flits: u64) {
        self.cur.injected_packets += 1;
        self.cur.injected_flits += flits;
    }

    /// A packet finished (tail ejection, or a zero-hop local delivery).
    #[allow(clippy::too_many_arguments)]
    pub fn on_eject(
        &mut self,
        is_cache: bool,
        group: usize,
        latency: u64,
        hops: u32,
        flits: u16,
        ideal: u64,
    ) {
        self.cur.ejected_packets += 1;
        self.cur.ejected_flits += flits as u64;
        if is_cache {
            self.cur.cache.record(latency, hops, flits, ideal);
        } else {
            self.cur.memory.record(latency, hops, flits, ideal);
        }
        if let Some(g) = self.cur.groups.get_mut(group) {
            g.record(latency, hops, flits, ideal);
        }
    }

    /// Called once per simulated cycle, after all cycle effects are
    /// applied; flushes the current window when `cycle` was its last.
    pub fn end_cycle(
        &mut self,
        cycle: u64,
        buffered_flits: usize,
        live_packets: usize,
        probe: &mut dyn Probe,
    ) {
        if cycle + 1 != self.cur.end_cycle {
            return;
        }
        self.cur.buffered_flits = buffered_flits;
        self.cur.live_packets = live_packets;
        probe.on_window(&self.cur);
        let start = self.cur.end_cycle;
        self.cur = WindowRecord::empty(
            self.cur.index + 1,
            start,
            self.boundary_after(start),
            self.phase_of(start),
            self.num_groups,
        );
    }

    /// The run ended after `cycles_run` cycles: truncate and flush the
    /// final partial window (a no-op if the run ended exactly on a
    /// boundary).
    pub fn finish(
        mut self,
        cycles_run: u64,
        buffered_flits: usize,
        live_packets: usize,
        probe: &mut dyn Probe,
    ) {
        if cycles_run <= self.cur.start_cycle {
            return;
        }
        self.cur.end_cycle = cycles_run;
        self.cur.buffered_flits = buffered_flits;
        self.cur.live_packets = live_packets;
        probe.on_window(&self.cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Record, Sink};

    #[derive(Default)]
    struct Capture {
        windows: Vec<WindowRecord>,
    }

    impl Sink for Capture {
        fn record(&mut self, record: &Record) {
            if let Record::Window(w) = record {
                self.windows.push(w.clone());
            }
        }
    }

    /// Drive a windower over a run of `cycles_run` cycles with no
    /// traffic, returning the emitted records.
    fn drive(width: u64, warmup: u64, measure: u64, cycles_run: u64) -> Vec<WindowRecord> {
        let mut w = Windower::new(width, 1, warmup, measure);
        let mut sink = Capture::default();
        for c in 0..cycles_run {
            w.end_cycle(c, 0, 0, &mut sink);
        }
        w.finish(cycles_run, 0, 0, &mut sink);
        sink.windows
    }

    #[test]
    fn windows_truncate_at_phase_boundaries() {
        // warmup 500, measure 3000, run ends mid-window at 4321.
        let ws = drive(1000, 500, 3000, 4321);
        let spans: Vec<(u64, u64, Phase)> = ws
            .iter()
            .map(|w| (w.start_cycle, w.end_cycle, w.phase))
            .collect();
        assert_eq!(
            spans,
            vec![
                (0, 500, Phase::Warmup),
                (500, 1000, Phase::Measure),
                (1000, 2000, Phase::Measure),
                (2000, 3000, Phase::Measure),
                (3000, 3500, Phase::Measure),
                (3500, 4000, Phase::Drain),
                (4000, 4321, Phase::Drain),
            ]
        );
        // indices are sequential
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.index, i as u64);
        }
        // measurement-phase widths sum to exactly measure_cycles
        let measured: u64 = ws
            .iter()
            .filter(|w| w.phase == Phase::Measure)
            .map(WindowRecord::width)
            .sum();
        assert_eq!(measured, 3000);
    }

    #[test]
    fn no_warmup_and_exact_end_need_no_truncation() {
        let ws = drive(100, 0, 300, 300);
        assert_eq!(ws.len(), 3);
        assert!(ws.iter().all(|w| w.width() == 100));
        assert!(ws.iter().all(|w| w.phase == Phase::Measure));
    }

    #[test]
    fn width_larger_than_phases_still_splits() {
        let ws = drive(10_000, 500, 3000, 4000);
        let spans: Vec<(u64, u64, Phase)> = ws
            .iter()
            .map(|w| (w.start_cycle, w.end_cycle, w.phase))
            .collect();
        assert_eq!(
            spans,
            vec![
                (0, 500, Phase::Warmup),
                (500, 3500, Phase::Measure),
                (3500, 4000, Phase::Drain),
            ]
        );
    }

    #[test]
    fn counters_land_in_their_window() {
        let mut w = Windower::new(10, 2, 0, 100);
        let mut sink = Capture::default();
        for c in 0..20u64 {
            if c < 10 {
                w.on_inject(5);
            } else {
                w.on_eject(true, 1, 12, 3, 5, 12);
            }
            w.end_cycle(c, 7, 3, &mut sink);
        }
        w.finish(20, 0, 0, &mut sink);
        assert_eq!(sink.windows.len(), 2);
        let (a, b) = (&sink.windows[0], &sink.windows[1]);
        assert_eq!(a.injected_packets, 10);
        assert_eq!(a.injected_flits, 50);
        assert_eq!(a.ejected_packets, 0);
        assert!((a.injection_rate() - 1.0).abs() < 1e-12);
        assert_eq!(a.buffered_flits, 7);
        assert_eq!(a.live_packets, 3);
        assert_eq!(b.ejected_packets, 10);
        assert_eq!(b.ejected_flits, 50);
        assert_eq!(b.cache.packets, 10);
        assert_eq!(b.memory.packets, 0);
        assert_eq!(b.groups[1].packets, 10);
        assert_eq!(b.groups[0].packets, 0);
        assert!((b.mean_latency() - 12.0).abs() < 1e-12);
        assert!((b.ejection_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_run_emits_nothing() {
        assert!(drive(100, 0, 100, 0).is_empty());
    }
}
