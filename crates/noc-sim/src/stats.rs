//! Measurement accumulators and the simulation report.

use noc_model::PacketClass;

// The latency accumulator moved to `noc-telemetry` (windowed telemetry
// records and end-of-run reports share one histogram implementation);
// re-exported here so existing `noc_sim::stats::LatencyAccum` /
// `noc_sim::LatencyAccum` imports keep working.
pub use noc_telemetry::LatencyAccum;

/// Aggregate network-level counters (all simulation phases, not just the
/// measurement window).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Flits forwarded over inter-router links.
    pub link_flit_traversals: u64,
    /// Peak number of flits buffered anywhere in the network at once.
    pub peak_buffered_flits: usize,
    /// Total cycles simulated (warm-up + measure + drain).
    pub cycles_run: u64,
    /// Unidirectional inter-router links: the simulator's neighbour
    /// table, so a torus counts its wrap-around links too.
    pub num_links: usize,
    /// Peak number of packets simultaneously alive (queued at an NI or with
    /// flits in the network). Bounds the packet-table footprint.
    pub peak_live_packets: usize,
    /// Final size of the packet slab: with slot recycling this tracks
    /// `peak_live_packets`, not the total packet count.
    pub packet_slab_slots: usize,
    /// Uniform draws consumed by geometric inter-arrival sampling — one
    /// per generated packet plus one per discarded cross-epoch draw.
    /// Always 0 under `InjectionProcess::BernoulliPerCycle`.
    pub arrival_draws: u64,
    /// Cycles the event-horizon fast-forward jumped over while the network
    /// was fully quiescent (counted inside `cycles_run`). Excluded from
    /// [`semantic_eq`]: probed runs clamp jumps at telemetry window
    /// boundaries, so this describes how the run executed, not what it
    /// computed.
    ///
    /// [`semantic_eq`]: NetworkStats::semantic_eq
    pub skipped_cycles: u64,
    /// Router steps executed: visits of a buffered router with a front
    /// flit out of the router pipeline. Asleep routers (every front still
    /// in the pipeline) are skipped and not counted. Identical for plain,
    /// probed and metered runs of one configuration, but like
    /// [`skipped_cycles`](Self::skipped_cycles) it describes how the run
    /// executed, so [`semantic_eq`] leaves it out.
    ///
    /// [`semantic_eq`]: NetworkStats::semantic_eq
    pub router_steps: u64,
}

impl NetworkStats {
    /// Alias for [`link_flit_traversals`](Self::link_flit_traversals):
    /// flits forwarded over inter-router links, i.e. total flit-hops over
    /// all phases. The heatmap conservation law says the per-link counts
    /// of a probed run's `HeatmapRecord` sum to exactly this.
    pub fn flit_hops(&self) -> u64 {
        self.link_flit_traversals
    }

    /// Mean link utilization: flit-traversals per link per cycle.
    pub fn mean_link_utilization(&self) -> f64 {
        if self.cycles_run == 0 || self.num_links == 0 {
            0.0
        } else {
            self.link_flit_traversals as f64 / (self.cycles_run as f64 * self.num_links as f64)
        }
    }

    /// Equality of everything the simulation semantics determine — i.e.
    /// all counters except the fast-forward jump tally (see
    /// [`skipped_cycles`](Self::skipped_cycles)) and the router-step
    /// count.
    pub fn semantic_eq(&self, other: &NetworkStats) -> bool {
        self.link_flit_traversals == other.link_flit_traversals
            && self.peak_buffered_flits == other.peak_buffered_flits
            && self.cycles_run == other.cycles_run
            && self.num_links == other.num_links
            && self.peak_live_packets == other.peak_live_packets
            && self.packet_slab_slots == other.packet_slab_slots
            && self.arrival_draws == other.arrival_draws
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-group (application) accumulators.
    pub groups: Vec<LatencyAccum>,
    /// Per-source-tile accumulators (validating the TC/TM heatmaps from
    /// measurement).
    pub per_source: Vec<LatencyAccum>,
    /// Per-class accumulators.
    pub cache: LatencyAccum,
    pub memory: LatencyAccum,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Measured packets injected / delivered (conservation check: equal
    /// after a successful drain).
    pub injected: u64,
    pub delivered: u64,
    /// Whether the drain phase delivered every measured packet.
    pub fully_drained: bool,
    /// Network-level counters (links, buffers).
    pub network: NetworkStats,
}

impl SimReport {
    pub(crate) fn new(num_groups: usize) -> Self {
        SimReport {
            groups: vec![LatencyAccum::default(); num_groups],
            per_source: Vec::new(),
            cache: LatencyAccum::default(),
            memory: LatencyAccum::default(),
            measured_cycles: 0,
            injected: 0,
            delivered: 0,
            fully_drained: false,
            network: NetworkStats::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        group: usize,
        src: usize,
        class: PacketClass,
        latency: u64,
        hops: u32,
        flits: u16,
        ideal: u64,
    ) {
        self.groups[group].record(latency, hops, flits, ideal);
        if src < self.per_source.len() {
            self.per_source[src].record(latency, hops, flits, ideal);
        }
        match class {
            PacketClass::Cache => self.cache.record(latency, hops, flits, ideal),
            PacketClass::Memory => self.memory.record(latency, hops, flits, ideal),
        }
        self.delivered += 1;
    }

    /// Per-group APLs.
    pub fn group_apls(&self) -> Vec<f64> {
        self.groups.iter().map(LatencyAccum::apl).collect()
    }

    /// Maximum per-group APL.
    pub fn max_apl(&self) -> f64 {
        self.group_apls().into_iter().fold(0.0, f64::max)
    }

    /// Global APL over every measured packet.
    pub fn g_apl(&self) -> f64 {
        let mut all = LatencyAccum::default();
        all.merge(&self.cache);
        all.merge(&self.memory);
        all.apl()
    }

    /// Mean measured per-hop queueing latency across classes.
    pub fn mean_td_q(&self) -> f64 {
        let mut all = LatencyAccum::default();
        all.merge(&self.cache);
        all.merge(&self.memory);
        all.mean_td_q()
    }

    /// Total flit-hops (dynamic-energy proxy consumed by the power model),
    /// counting only measured packets.
    pub fn total_flit_hops(&self) -> u64 {
        self.cache.flit_hops + self.memory.flit_hops
    }

    /// Total flits injected by measured packets.
    pub fn total_flits(&self) -> u64 {
        self.cache.total_flits + self.memory.total_flits
    }

    /// Equality of everything a fixed seed determines: every accumulator
    /// (bit-for-bit, including f64 sums) and the network counters
    /// [`NetworkStats::semantic_eq`] compares. Two runs of the same seeded
    /// scenario must satisfy `a.semantic_eq(&b)` — the regression tests
    /// rely on it.
    pub fn semantic_eq(&self, other: &SimReport) -> bool {
        self.groups == other.groups
            && self.per_source == other.per_source
            && self.cache == other.cache
            && self.memory == other.memory
            && self.measured_cycles == other.measured_cycles
            && self.injected == other.injected
            && self.delivered == other.delivered
            && self.fully_drained == other.fully_drained
            && self.network.semantic_eq(&other.network)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "g-APL {:.3} | max-APL {:.3} | td_q {:.3} | {}/{} packets{}",
            self.g_apl(),
            self.max_apl(),
            self.mean_td_q(),
            self.delivered,
            self.injected,
            if self.fully_drained {
                ""
            } else {
                " (UNDRAINED)"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_classes() {
        let mut r = SimReport::new(2);
        r.record(0, 0, PacketClass::Cache, 10, 2, 1, 9);
        r.record(1, 0, PacketClass::Memory, 30, 5, 5, 25);
        assert!((r.g_apl() - 20.0).abs() < 1e-12);
        assert!((r.group_apls()[0] - 10.0).abs() < 1e-12);
        assert!((r.max_apl() - 30.0).abs() < 1e-12);
        assert_eq!(r.total_flit_hops(), 2 + 25);
        assert_eq!(r.delivered, 2);
    }
}
