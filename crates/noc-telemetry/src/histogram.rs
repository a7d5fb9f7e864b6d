//! Exact-quantile latency histograms and per-packet latency
//! decomposition (DESIGN.md §12).
//!
//! [`LatencyAccum`](crate::latency::LatencyAccum) keeps only sums and
//! counts, so it gives means but no quantiles. This module keeps the
//! **exact** multiset of observed latencies in a sparse count map, so
//! [`LatencyHistogram::quantile`] reconstructs the true
//! nearest-rank quantile — the value a sorted array of the raw per-packet
//! latencies would yield — while [`LatencyHistogram::log2_buckets`]
//! offers a compact log-bucketed summary for export. Distinct latency
//! values are few (a handful of hop/length combinations plus a queueing
//! tail), so the sparse map stays small even for multi-million-packet
//! runs.
//!
//! [`PacketRecord`] carries one delivered packet's lifecycle stamps; its
//! derived components satisfy the decomposition identity
//!
//! ```text
//! source_queue + in_network + serialization = latency
//! ```
//!
//! exactly, per packet (pinned by `tests/sim_determinism.rs`).
//! [`FlowAccum`]/[`FlowSummary`] aggregate those components per traffic
//! class and per application group.

use std::collections::BTreeMap;

/// Sparse exact latency histogram: per-value counts plus a running total.
///
/// `PartialEq` compares the full count map, so two seeded runs must
/// produce histograms that compare equal under `==` (the determinism
/// tests rely on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

/// One bucket of the log2-compressed export view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Bucket {
    /// Smallest latency in the bucket (inclusive).
    pub lo: u64,
    /// Largest latency in the bucket (inclusive).
    pub hi: u64,
    /// Packets whose latency fell in `[lo, hi]`.
    pub count: u64,
}

impl LatencyHistogram {
    /// Record one observed latency.
    pub fn record(&mut self, latency: u64) {
        *self.counts.entry(latency).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded latency.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean recorded latency (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        sum / self.total as f64
    }

    /// Exact nearest-rank quantile for `0 < q ≤ 1`: the value at index
    /// `⌈q·N⌉ - 1` of the sorted latency multiset — the smallest recorded
    /// value whose cumulative count reaches rank `⌈q·N⌉`. `q ≤ 0` yields
    /// the minimum; `None` iff the histogram is empty or `q` is NaN or
    /// above 1.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || q.is_nan() || q > 1.0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Record `count` observations of `latency` at once (the bulk form
    /// `noc-metrics` uses to rebuild a histogram from its exported
    /// sparse pairs).
    pub fn record_n(&mut self, latency: u64, count: u64) {
        if count > 0 {
            *self.counts.entry(latency).or_insert(0) += count;
            self.total += count;
        }
    }

    /// Log2-compressed view for compact export: bucket 0 holds latency 0,
    /// bucket `b ≥ 1` holds `[2^(b-1), 2^b)`. Empty buckets are omitted;
    /// `lo`/`hi` report the actually-observed extrema inside each bucket,
    /// so the view never widens the data.
    pub fn log2_buckets(&self) -> Vec<Log2Bucket> {
        let mut out: Vec<Log2Bucket> = Vec::new();
        let mut cur: Option<(u32, Log2Bucket)> = None;
        for (&v, &c) in &self.counts {
            let b = if v == 0 { 0 } else { 64 - (v.leading_zeros()) };
            match cur.as_mut() {
                Some((bucket, agg)) if *bucket == b => {
                    agg.hi = v;
                    agg.count += c;
                }
                _ => {
                    if let Some((_, done)) = cur.take() {
                        out.push(done);
                    }
                    cur = Some((
                        b,
                        Log2Bucket {
                            lo: v,
                            hi: v,
                            count: c,
                        },
                    ));
                }
            }
        }
        if let Some((_, done)) = cur {
            out.push(done);
        }
        out
    }

    /// The raw `(latency, count)` pairs in ascending latency order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// Lifecycle record of one delivered packet, as stamped by the simulator
/// when a probe is attached.
///
/// The four stamps split the packet's life at its observable transitions:
/// creation at the source NI (`enqueue_cycle`), the head flit entering
/// the router's local input port (`inject_cycle`), the head flit ejecting
/// at the destination (`head_eject_cycle`), and the tail flit ejecting
/// (`tail_eject_cycle`). Zero-hop local packets (the Eq. (2) exception)
/// carry all four stamps equal and decompose to all-zero components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Source tile index.
    pub src: usize,
    /// Destination tile index.
    pub dst: usize,
    /// `true` for the cache class, `false` for memory.
    pub cache: bool,
    /// Application group.
    pub group: usize,
    /// Length in flits.
    pub flits: u16,
    /// Hop count of the route (0 for local packets).
    pub hops: u32,
    /// Cycle the packet was created at the source NI.
    pub enqueue_cycle: u64,
    /// Cycle the head flit entered the router's local input port.
    pub inject_cycle: u64,
    /// Cycle the head flit ejected at the destination.
    pub head_eject_cycle: u64,
    /// Cycle the tail flit ejected at the destination.
    pub tail_eject_cycle: u64,
    /// Whether the packet was created during the measurement window.
    pub measured: bool,
}

impl PacketRecord {
    /// Cycles spent queued at the source NI before the head flit entered
    /// the network.
    pub fn source_queue(&self) -> u64 {
        self.inject_cycle - self.enqueue_cycle
    }

    /// Cycles the head flit spent traversing the network (pipeline, links
    /// and in-network queueing). Zero for local packets.
    pub fn in_network(&self) -> u64 {
        self.head_eject_cycle - self.inject_cycle
    }

    /// Serialization tail: cycles from head ejection through tail
    /// ejection, inclusive. 1 for a delivered single-flit packet, 0 for a
    /// zero-hop local packet (which never serializes onto a link).
    pub fn serialization(&self) -> u64 {
        if self.hops == 0 {
            0
        } else {
            self.tail_eject_cycle - self.head_eject_cycle + 1
        }
    }

    /// The packet latency as the simulator records it: `tail_eject −
    /// enqueue + 1` for routed packets, 0 for zero-hop local packets.
    /// Always exactly `source_queue() + in_network() + serialization()`.
    pub fn latency(&self) -> u64 {
        if self.hops == 0 {
            0
        } else {
            self.tail_eject_cycle - self.enqueue_cycle + 1
        }
    }
}

/// Decomposed latency totals plus an exact histogram, for one traffic
/// class or application group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowAccum {
    /// Packets recorded.
    pub packets: u64,
    /// Σ source-NI queueing cycles.
    pub source_queue: u64,
    /// Σ in-network head-traversal cycles.
    pub in_network: u64,
    /// Σ serialization cycles.
    pub serialization: u64,
    /// Exact histogram of the total per-packet latencies.
    pub histogram: LatencyHistogram,
}

impl FlowAccum {
    /// Record a delivered packet.
    pub fn record(&mut self, rec: &PacketRecord) {
        self.packets += 1;
        self.source_queue += rec.source_queue();
        self.in_network += rec.in_network();
        self.serialization += rec.serialization();
        self.histogram.record(rec.latency());
    }

    /// Mean source-queue cycles per packet.
    pub fn mean_source_queue(&self) -> f64 {
        self.mean_of(self.source_queue)
    }

    /// Mean in-network cycles per packet.
    pub fn mean_in_network(&self) -> f64 {
        self.mean_of(self.in_network)
    }

    /// Mean serialization cycles per packet.
    pub fn mean_serialization(&self) -> f64 {
        self.mean_of(self.serialization)
    }

    fn mean_of(&self, total: u64) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            total as f64 / self.packets as f64
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &FlowAccum) {
        self.packets += other.packets;
        self.source_queue += other.source_queue;
        self.in_network += other.in_network;
        self.serialization += other.serialization;
        self.histogram.merge(&other.histogram);
    }
}

/// End-of-run flow summary delivered once through
/// [`Probe::on_flow`](crate::probe::Probe::on_flow).
///
/// Covers **measured** packets only (warm-up and drain traffic excluded),
/// so its totals reconcile with the end-of-run `SimReport`: the summed
/// histogram totals equal the report's delivered-packet count, and the
/// decomposition components sum to the report's total latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowSummary {
    /// Cache-class packets.
    pub cache: FlowAccum,
    /// Memory-class packets.
    pub memory: FlowAccum,
    /// Per-application-group packets.
    pub groups: Vec<FlowAccum>,
}

impl FlowSummary {
    /// A fresh all-zero summary with `groups` application slots.
    pub fn new(groups: usize) -> Self {
        FlowSummary {
            cache: FlowAccum::default(),
            memory: FlowAccum::default(),
            groups: vec![FlowAccum::default(); groups],
        }
    }

    /// Record a delivered packet into its class and group accumulators.
    pub fn record(&mut self, rec: &PacketRecord) {
        if rec.cache {
            self.cache.record(rec);
        } else {
            self.memory.record(rec);
        }
        if let Some(g) = self.groups.get_mut(rec.group) {
            g.record(rec);
        }
    }

    /// Packets recorded across both classes.
    pub fn total_packets(&self) -> u64 {
        self.cache.packets + self.memory.packets
    }

    /// Both classes folded into one accumulator (cache first, then
    /// memory — a fixed order, so the merge is deterministic).
    pub fn merged(&self) -> FlowAccum {
        let mut all = self.cache.clone();
        all.merge(&self.memory);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_sorted_array_semantics() {
        let mut h = LatencyHistogram::default();
        let mut raw = vec![25u64, 25, 29, 25, 31, 47, 25, 29, 120, 25];
        for &v in &raw {
            h.record(v);
        }
        raw.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                Some(sorted_quantile(&raw, q)),
                "quantile {q} diverged from the sorted array"
            );
        }
        assert_eq!(h.min(), Some(25));
        assert_eq!(h.max(), Some(120));
        assert_eq!(h.total(), 10);
        assert!((h.mean() - raw.iter().sum::<u64>() as f64 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), 0.0);

        let mut one = LatencyHistogram::default();
        one.record(7);
        assert_eq!(one.quantile(0.0), Some(7)); // q ≤ 0 → minimum
        assert_eq!(one.quantile(-3.0), Some(7));
        assert_eq!(one.quantile(1.0), Some(7));
        assert_eq!(one.quantile(1.5), None);
        assert_eq!(one.quantile(f64::NAN), None);
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for v in [3u64, 5, 5] {
            a.record(v);
        }
        for v in [5u64, 9] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(3, 1), (5, 3), (9, 1)]);
    }

    #[test]
    fn log2_buckets_partition_the_counts() {
        let mut h = LatencyHistogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 100, 100] {
            h.record(v);
        }
        let buckets = h.log2_buckets();
        // 0 | 1 | [2,4) | [4,8) | [8,16) | [64,128)
        let spans: Vec<(u64, u64, u64)> = buckets.iter().map(|b| (b.lo, b.hi, b.count)).collect();
        assert_eq!(
            spans,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 8, 1),
                (100, 100, 2)
            ]
        );
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), h.total());
    }

    #[test]
    fn packet_record_decomposition_identity() {
        let routed = PacketRecord {
            src: 0,
            dst: 5,
            cache: true,
            group: 0,
            flits: 5,
            hops: 3,
            enqueue_cycle: 100,
            inject_cycle: 104,
            head_eject_cycle: 120,
            tail_eject_cycle: 124,
            measured: true,
        };
        assert_eq!(routed.source_queue(), 4);
        assert_eq!(routed.in_network(), 16);
        assert_eq!(routed.serialization(), 5);
        assert_eq!(routed.latency(), 25);
        assert_eq!(
            routed.source_queue() + routed.in_network() + routed.serialization(),
            routed.latency()
        );

        let local = PacketRecord {
            src: 2,
            dst: 2,
            cache: false,
            group: 1,
            flits: 1,
            hops: 0,
            enqueue_cycle: 50,
            inject_cycle: 50,
            head_eject_cycle: 50,
            tail_eject_cycle: 50,
            measured: true,
        };
        assert_eq!(local.latency(), 0);
        assert_eq!(
            local.source_queue() + local.in_network() + local.serialization(),
            0
        );
    }

    #[test]
    fn flow_summary_routes_classes_and_groups() {
        let mut s = FlowSummary::new(2);
        let mut rec = PacketRecord {
            src: 0,
            dst: 5,
            cache: true,
            group: 0,
            flits: 1,
            hops: 2,
            enqueue_cycle: 0,
            inject_cycle: 1,
            head_eject_cycle: 9,
            tail_eject_cycle: 9,
            measured: true,
        };
        s.record(&rec);
        rec.cache = false;
        rec.group = 1;
        s.record(&rec);
        assert_eq!(s.cache.packets, 1);
        assert_eq!(s.memory.packets, 1);
        assert_eq!(s.groups[0].packets, 1);
        assert_eq!(s.groups[1].packets, 1);
        assert_eq!(s.total_packets(), 2);
        let all = s.merged();
        assert_eq!(all.packets, 2);
        assert_eq!(all.source_queue, 2);
        assert_eq!(all.histogram.quantile(1.0), Some(10));
        assert!((all.mean_source_queue() - 1.0).abs() < 1e-12);
        assert!((all.mean_in_network() - 8.0).abs() < 1e-12);
        assert!((all.mean_serialization() - 1.0).abs() < 1e-12);
    }
}
