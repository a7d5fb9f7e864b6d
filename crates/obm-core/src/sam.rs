//! Single-Application Mapping (SAM) — the paper's Algorithm 1.
//!
//! Given one application's threads and an equal-sized set of candidate
//! tiles, find the thread-to-tile assignment minimizing the application's
//! APL. Because a thread's latency contribution depends only on its own
//! tile (uniform cache hashing + proximity memory forwarding), this is a
//! linear assignment problem over the Eq. (13) cost matrix
//! `cost_jk = c_j·TC(k) + m_j·TM(k)`, solved exactly by the Hungarian
//! method in `O(N_a³)`.

use crate::problem::ObmInstance;
use assignment::{CostMatrix, Workspace};
use noc_model::TileId;

/// Result of a SAM solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SamSolution {
    /// `assignment[t]` is the tile given to the `t`-th thread of the
    /// input slice.
    pub assignment: Vec<TileId>,
    /// Minimized APL of the application over these tiles (total latency
    /// numerator ÷ application volume).
    pub apl: f64,
}

/// Reusable buffers for [`solve_sam_into`]: the Eq. (13) cost matrix,
/// refilled per solve, and the Hungarian solver's workspace. One SSS pass
/// keeps one, so its SAM solves allocate nothing after the first. The
/// default is empty; the first solve allocates its buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct SamWorkspace {
    /// Built by the first solve, refilled in place by the rest.
    costs: Option<CostMatrix>,
    lap: Workspace,
}

/// Solve SAM for the threads `threads` (global thread indices, all from
/// the same application in the intended use, though any thread set works)
/// over candidate `tiles`. More tiles than threads is allowed — the
/// Hungarian solve then also chooses *which* tiles to use.
///
/// # Panics
/// Panics if `threads.len() > tiles.len()`, if either is empty, or if the
/// total request volume of the threads is zero.
pub fn solve_sam(inst: &ObmInstance, threads: &[usize], tiles: &[TileId]) -> SamSolution {
    let mut assignment = vec![TileId(0); threads.len()];
    let apl = solve_sam_into(
        inst,
        threads,
        tiles,
        &mut SamWorkspace::default(),
        &mut assignment,
    );
    SamSolution { assignment, apl }
}

/// [`solve_sam`] without allocating: the cost matrix and solver buffers
/// live in `ws`, and `out[t]` receives the tile given to `threads[t]`.
/// Returns the minimized APL. Bit-identical to [`solve_sam`].
///
/// # Panics
/// As [`solve_sam`], and if `out.len() != threads.len()`.
pub(crate) fn solve_sam_into(
    inst: &ObmInstance,
    threads: &[usize],
    tiles: &[TileId],
    ws: &mut SamWorkspace,
    out: &mut [TileId],
) -> f64 {
    assert!(
        threads.len() <= tiles.len(),
        "SAM needs at least as many tiles as threads"
    );
    assert!(!threads.is_empty(), "empty SAM instance");
    assert_eq!(out.len(), threads.len(), "one output slot per thread");
    let volume: f64 = threads
        .iter()
        .map(|&j| inst.cache_rate(j) + inst.mem_rate(j))
        .sum();
    assert!(volume > 0.0, "zero-volume thread set");
    // Step 1: Eq. (13) cost matrix, read from the instance's precomputed
    // flat tables (bit-identical to `placement_cost`).
    let tables = inst.eval_tables();
    let entry = |r: usize, cidx: usize| tables.cost(threads[r], tiles[cidx].index());
    let costs = match &mut ws.costs {
        Some(costs) => {
            costs.refill(threads.len(), tiles.len(), entry);
            costs
        }
        slot @ None => slot.insert(CostMatrix::from_fn(threads.len(), tiles.len(), entry)),
    };
    // Step 2: Hungarian.
    let cost = ws.lap.solve(costs);
    for (slot, &cidx) in out.iter_mut().zip(ws.lap.row_to_col()) {
        *slot = tiles[cidx];
    }
    cost / volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ObmInstance;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn instance_4x4() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    #[test]
    fn sam_puts_hot_threads_on_cheap_tiles() {
        let inst = instance_4x4();
        // App 0's threads over one corner, two edges, one center tile.
        let mesh = Mesh::square(4);
        let corner = mesh.tile(noc_model::Coord::new(0, 0));
        let e1 = mesh.tile(noc_model::Coord::new(0, 1));
        let e2 = mesh.tile(noc_model::Coord::new(1, 0));
        let center = mesh.tile(noc_model::Coord::new(1, 1));
        let sol = solve_sam(&inst, &[0, 1, 2, 3], &[corner, e1, e2, center]);
        // Optimal: rate .1 → corner, .4 → center (paper Fig 5a structure).
        assert_eq!(sol.assignment[0], corner);
        assert_eq!(sol.assignment[3], center);
        assert!((sol.apl - 10.3375).abs() < 1e-9);
    }

    #[test]
    fn sam_is_no_worse_than_any_fixed_order() {
        let inst = instance_4x4();
        let tiles: Vec<TileId> = (0..4).map(TileId).collect();
        let threads = [4usize, 5, 6, 7];
        let sol = solve_sam(&inst, &threads, &tiles);
        // compare with the identity order
        let vol: f64 = threads
            .iter()
            .map(|&j| inst.cache_rate(j) + inst.mem_rate(j))
            .sum();
        let ident: f64 = threads
            .iter()
            .zip(&tiles)
            .map(|(&j, &t)| inst.placement_cost(j, t))
            .sum::<f64>()
            / vol;
        assert!(sol.apl <= ident + 1e-12);
    }

    #[test]
    fn sam_with_memory_traffic_prefers_corner_for_memory_heavy_thread() {
        // Two threads: one cache-only, one memory-only. Tiles: a corner
        // (cheap memory, expensive cache) and a center (vice versa). The
        // memory-heavy thread must take the corner.
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(
            tl,
            vec![0, 2],
            vec![1.0, 0.0], // thread 0: cache-only
            vec![0.0, 1.0], // thread 1: memory-only
        );
        let corner = mesh.tile(noc_model::Coord::new(0, 0));
        let center = mesh.tile(noc_model::Coord::new(1, 1));
        let sol = solve_sam(&inst, &[0, 1], &[corner, center]);
        assert_eq!(sol.assignment[0], center, "cache thread → center");
        assert_eq!(sol.assignment[1], corner, "memory thread → corner (0 hops)");
    }

    #[test]
    #[should_panic]
    fn too_few_tiles_panic() {
        let inst = instance_4x4();
        let _ = solve_sam(&inst, &[0, 1], &[TileId(0)]);
    }

    #[test]
    fn surplus_tiles_are_choosable() {
        // 2 threads over 4 candidate tiles: SAM must pick the 2 cheapest
        // placements overall.
        let inst = instance_4x4();
        let tiles: Vec<TileId> = vec![TileId(0), TileId(5), TileId(6), TileId(3)];
        let sol = solve_sam(&inst, &[2, 3], &tiles);
        assert_eq!(sol.assignment.len(), 2);
        // chosen tiles must be distinct members of the candidate set
        assert_ne!(sol.assignment[0], sol.assignment[1]);
        for t in &sol.assignment {
            assert!(tiles.contains(t));
        }
        // and no worse than restricting to exactly two tiles
        let restricted = solve_sam(&inst, &[2, 3], &tiles[..2]);
        assert!(sol.apl <= restricted.apl + 1e-12);
    }

    #[test]
    fn reused_workspace_matches_solve_sam() {
        // One workspace across shrinking and growing SAM instances gives
        // the bits a fresh `solve_sam` gives.
        let inst = instance_4x4();
        let mut ws = SamWorkspace::default();
        let cases: [(&[usize], &[usize]); 4] = [
            (&[0, 1, 2, 3], &[0, 5, 10, 15]),
            (&[2, 3], &[1, 6, 11, 4, 9]),
            (&[4, 5, 6, 7, 8, 9], &[0, 1, 2, 3, 12, 13, 14, 15]),
            (&[7], &[8]),
        ];
        for (threads, tiles) in cases {
            let tiles: Vec<TileId> = tiles.iter().map(|&k| TileId(k)).collect();
            let fresh = solve_sam(&inst, threads, &tiles);
            let mut out = vec![TileId(usize::MAX); threads.len()];
            let apl = solve_sam_into(&inst, threads, &tiles, &mut ws, &mut out);
            assert_eq!(out, fresh.assignment);
            assert_eq!(apl.to_bits(), fresh.apl.to_bits());
        }
    }

    #[test]
    fn single_thread_single_tile() {
        let inst = instance_4x4();
        let sol = solve_sam(&inst, &[3], &[TileId(9)]);
        assert_eq!(sol.assignment, vec![TileId(9)]);
        let expect = inst.placement_cost(3, TileId(9)) / (inst.cache_rate(3) + inst.mem_rate(3));
        assert!((sol.apl - expect).abs() < 1e-12);
    }
}
