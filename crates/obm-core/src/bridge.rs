//! Bridge from the mapping layer to the cycle-level simulator: the traffic
//! a mapped instance induces, as a [`TrafficSpec`] ready for
//! [`Network::new`](noc_sim::Network::new).
//!
//! Thread `j` of application `i` injects from tile `π(j)` at its mean
//! cache/memory rates; simulator traffic groups are the applications, so
//! the resulting [`SimReport`](noc_sim::SimReport) exposes per-application
//! measured latencies that line up with the analytic
//! [`AplReport`](crate::AplReport).

use crate::problem::{Mapping, ObmInstance};
use noc_sim::{Schedule, SourceSpec, TrafficSpec};

/// Build the [`TrafficSpec`] induced by `mapping`: one source per thread,
/// placed on its mapped tile, grouped by application, injecting at the
/// instance's mean per-kilocycle rates.
///
/// # Panics
/// Panics if the mapping is not valid for the instance (a valid mapping is
/// injective, so it can never produce duplicate-tile traffic).
pub fn traffic_spec(inst: &ObmInstance, mapping: &Mapping) -> TrafficSpec {
    debug_assert!(mapping.is_valid_for(inst), "invalid mapping");
    let sources: Vec<SourceSpec> = (0..inst.num_threads())
        .map(|j| SourceSpec {
            tile: mapping.tile_of(j),
            group: inst.app_of_thread(j),
            cache: Schedule::per_kilocycle(inst.cache_rate(j)),
            mem: Schedule::per_kilocycle(inst.mem_rate(j)),
        })
        .collect();
    TrafficSpec::new(sources, inst.num_apps()).expect("valid mapping induces valid traffic")
}

/// Build a drifting-workload [`TrafficSpec`]: each thread's rates walk
/// through one epoch per instance in `epochs`, switching every
/// `epoch_cycles` cycles ([`Schedule::trace_per_kilocycle`]). All epochs
/// must share `mapping`'s thread count and application structure — this is
/// the same workload whose *statistics* drift, not a different workload —
/// and the sources sit on `mapping`'s tiles for the whole run (an online
/// controller retargets them mid-run via
/// [`SwapController`](noc_sim::SwapController), not via the spec).
///
/// The epoch clock starts at cycle 0, i.e. warmup burns part of the first
/// epoch; size `epoch_cycles` against warmup + measurement, not
/// measurement alone. After the last epoch the trace wraps back to the
/// first ([`Schedule::rate_at`] is periodic), so make the epochs cover
/// the whole measured span.
///
/// # Panics
/// Panics if `epochs` is empty, the epochs disagree on thread count, or
/// the mapping is invalid for the first epoch (debug builds).
pub fn piecewise_traffic_spec(
    epochs: &[&ObmInstance],
    mapping: &Mapping,
    epoch_cycles: u64,
) -> TrafficSpec {
    assert!(!epochs.is_empty(), "need at least one epoch");
    let first = epochs[0];
    debug_assert!(mapping.is_valid_for(first), "invalid mapping");
    assert!(
        epochs
            .iter()
            .all(|e| e.num_threads() == first.num_threads()),
        "epochs must agree on thread count"
    );
    let sources: Vec<SourceSpec> = (0..first.num_threads())
        .map(|j| {
            let cache: Vec<f64> = epochs.iter().map(|e| e.cache_rate(j)).collect();
            let mem: Vec<f64> = epochs.iter().map(|e| e.mem_rate(j)).collect();
            SourceSpec {
                tile: mapping.tile_of(j),
                group: first.app_of_thread(j),
                cache: Schedule::trace_per_kilocycle(epoch_cycles, &cache),
                mem: Schedule::trace_per_kilocycle(epoch_cycles, &mem),
            }
        })
        .collect();
    TrafficSpec::new(sources, first.num_apps()).expect("valid mapping induces valid traffic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Mapper, SortSelectSwap};
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn fig5_instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.05; 16])
    }

    #[test]
    fn traffic_spec_covers_every_thread_once() {
        let inst = fig5_instance();
        let mapping = SortSelectSwap::default().map(&inst, 0);
        let spec = traffic_spec(&inst, &mapping);
        assert_eq!(spec.sources().len(), inst.num_threads());
        assert_eq!(spec.num_groups(), inst.num_apps());
        let mut tiles: Vec<usize> = spec.sources().iter().map(|s| s.tile.index()).collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), inst.num_threads(), "duplicate tiles");
        for s in spec.sources() {
            assert!(s.group < inst.num_apps());
        }
    }

    #[test]
    fn piecewise_spec_walks_the_epochs() {
        let inst = fig5_instance();
        // Epoch 2 doubles every rate.
        let doubled = ObmInstance::new(
            inst.tiles().clone(),
            inst.boundaries().to_vec(),
            (0..inst.num_threads())
                .map(|j| inst.cache_rate(j) * 2.0)
                .collect(),
            (0..inst.num_threads())
                .map(|j| inst.mem_rate(j) * 2.0)
                .collect(),
        );
        let mapping = SortSelectSwap::default().map(&inst, 0);
        let spec = piecewise_traffic_spec(&[&inst, &doubled], &mapping, 5_000);
        assert_eq!(spec.sources().len(), inst.num_threads());
        for (j, s) in spec.sources().iter().enumerate() {
            assert_eq!(s.tile, mapping.tile_of(j), "sources sit on the mapping");
            let early = s.cache.rate_at(0);
            let late = s.cache.rate_at(5_000);
            assert!(
                (late - 2.0 * early).abs() < 1e-12,
                "epoch 2 doubles thread {j}"
            );
            assert!(
                (s.cache.rate_at(10_000) - early).abs() < 1e-12,
                "trace wraps around"
            );
        }
    }

    #[test]
    fn traffic_spec_feeds_the_simulator() {
        let inst = fig5_instance();
        let mapping = SortSelectSwap::default().map(&inst, 0);
        let mesh = Mesh::square(4);
        let cfg = noc_sim::SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            seed: 9,
            ..noc_sim::SimConfig::paper_defaults(mesh)
        };
        let report = noc_sim::Network::new(cfg, traffic_spec(&inst, &mapping))
            .expect("valid scenario")
            .run();
        assert!(report.delivered > 0);
        assert_eq!(report.groups.len(), inst.num_apps());
    }
}
