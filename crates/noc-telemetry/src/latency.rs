//! The latency accumulator shared by end-of-run reports
//! (`noc-sim::stats::SimReport`) and windowed telemetry ([`WindowRecord`]).
//! Latency quantiles come from the exact
//! [`LatencyHistogram`](crate::histogram::LatencyHistogram) of a probed
//! run's flow summary.
//!
//! [`WindowRecord`]: crate::window::WindowRecord

/// Latency accumulator for one bucket (group, class, source or window).
///
/// `PartialEq` compares every counter bit-for-bit (including the f64
/// sums), which is exactly what the determinism regression tests need:
/// two runs with the same seed must produce accumulators that compare
/// equal under `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyAccum {
    pub packets: u64,
    pub total_latency: f64,
    pub total_hops: u64,
    pub total_flits: u64,
    /// Flit-hops (flits × hops), the dynamic-energy proxy.
    pub flit_hops: u64,
    /// Sum over packets of (latency − ideal)/hops, for the td_q estimate.
    queue_excess_per_hop: f64,
    routed_packets: u64,
}

impl LatencyAccum {
    /// Record a delivered packet.
    pub fn record(&mut self, latency: u64, hops: u32, flits: u16, ideal: u64) {
        self.packets += 1;
        self.total_latency += latency as f64;
        self.total_hops += hops as u64;
        self.total_flits += flits as u64;
        self.flit_hops += flits as u64 * hops as u64;
        if hops > 0 {
            self.queue_excess_per_hop += (latency.saturating_sub(ideal)) as f64 / hops as f64;
            self.routed_packets += 1;
        }
    }

    /// Average packet latency in cycles.
    pub fn apl(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_latency / self.packets as f64
        }
    }

    /// Mean per-hop queueing latency (the measured `td_q`).
    pub fn mean_td_q(&self) -> f64 {
        if self.routed_packets == 0 {
            0.0
        } else {
            self.queue_excess_per_hop / self.routed_packets as f64
        }
    }

    /// Mean hops per packet.
    pub fn mean_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets as f64
        }
    }

    /// Fold `other` into `self` (every counter and sum). The sum
    /// order of the f64 fields is `self += other`, so merging in a fixed
    /// order is deterministic.
    pub fn merge(&mut self, other: &LatencyAccum) {
        self.packets += other.packets;
        self.total_latency += other.total_latency;
        self.total_hops += other.total_hops;
        self.total_flits += other.total_flits;
        self.flit_hops += other.flit_hops;
        self.queue_excess_per_hop += other.queue_excess_per_hop;
        self.routed_packets += other.routed_packets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_math() {
        let mut a = LatencyAccum::default();
        a.record(10, 2, 5, 9); // 1 excess over 2 hops = 0.5/hop
        a.record(20, 4, 1, 20); // 0 excess
        assert_eq!(a.packets, 2);
        assert!((a.apl() - 15.0).abs() < 1e-12);
        assert!((a.mean_td_q() - 0.25).abs() < 1e-12);
        assert!((a.mean_hops() - 3.0).abs() < 1e-12);
        assert_eq!(a.flit_hops, 10 + 4);
    }

    #[test]
    fn zero_hop_packets_do_not_pollute_tdq() {
        let mut a = LatencyAccum::default();
        a.record(0, 0, 1, 0);
        assert_eq!(a.mean_td_q(), 0.0);
        assert_eq!(a.apl(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = LatencyAccum::default();
        a.record(10, 2, 5, 9);
        let mut b = LatencyAccum::default();
        b.record(20, 4, 1, 20);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.packets, 2);
        assert!((ab.apl() - 15.0).abs() < 1e-12);
        assert_eq!(ab.flit_hops, a.flit_hops + b.flit_hops);
    }
}
