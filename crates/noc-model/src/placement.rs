//! Memory-controller placement and proximity-based forwarding.
//!
//! The paper's CMP places one memory controller at each of the four mesh
//! corners; every memory request is forwarded to the *nearest* controller
//! ("proximity principle"), which on a square mesh partitions the chip into
//! quadrants. [`MemoryControllers`] generalizes this to any placement so that
//! ablations (edge-centered, diamond, single controller) can reuse the same
//! machinery.

use crate::geometry::{Mesh, TileId};
use crate::layout::PlacementError;

/// A set of memory-controller tiles with nearest-controller forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryControllers {
    tiles: Vec<TileId>,
}

impl MemoryControllers {
    /// The paper's default: one controller in each corner tile.
    pub fn corners(mesh: &Mesh) -> Self {
        let mut tiles = mesh.corners().to_vec();
        tiles.sort_unstable();
        tiles.dedup();
        MemoryControllers { tiles }
    }

    /// Controllers at the middle of each of the four edges — a common
    /// alternative placement used for ablation.
    pub fn edge_centers(mesh: &Mesh) -> Self {
        let r = mesh.rows();
        let c = mesh.cols();
        let mut tiles = vec![
            mesh.tile(crate::geometry::Coord::new(0, c / 2)),
            mesh.tile(crate::geometry::Coord::new(r - 1, c / 2)),
            mesh.tile(crate::geometry::Coord::new(r / 2, 0)),
            mesh.tile(crate::geometry::Coord::new(r / 2, c - 1)),
        ];
        tiles.sort_unstable();
        tiles.dedup();
        MemoryControllers { tiles }
    }

    /// An arbitrary custom placement, validated: `tiles` must be
    /// non-empty and every tile must be on the mesh. Duplicates are
    /// deduplicated and the set is kept sorted (deterministic
    /// nearest-controller tie-breaks).
    pub fn try_custom(mesh: &Mesh, mut tiles: Vec<TileId>) -> Result<Self, PlacementError> {
        if tiles.is_empty() {
            return Err(PlacementError::NoControllers);
        }
        if let Some(&bad) = tiles.iter().find(|t| t.index() >= mesh.num_tiles()) {
            return Err(PlacementError::ControllerOutOfRange {
                tile: bad.index(),
                num_tiles: mesh.num_tiles(),
            });
        }
        tiles.sort_unstable();
        tiles.dedup();
        Ok(MemoryControllers { tiles })
    }

    /// The controller tiles, sorted and deduplicated.
    pub fn tiles(&self) -> &[TileId] {
        &self.tiles
    }

    /// The controller nearest to `from` (ties broken by lowest tile index,
    /// which is deterministic and matches a fixed quadrant assignment on
    /// even-sized square meshes).
    pub fn nearest(&self, mesh: &Mesh, from: TileId) -> TileId {
        *self
            .tiles
            .iter()
            .min_by_key(|&&mc| (mesh.hops(from, mc), mc.index()))
            .expect("non-empty controller set")
    }

    /// The controller nearest to `from` under torus distances.
    pub fn nearest_torus(&self, mesh: &Mesh, from: TileId) -> TileId {
        *self
            .tiles
            .iter()
            .min_by_key(|&&mc| (mesh.torus_hops_impl(from, mc), mc.index()))
            .expect("non-empty controller set")
    }

    /// Torus hop distance from `from` to its nearest controller.
    pub fn hops_to_nearest_torus(&self, mesh: &Mesh, from: TileId) -> usize {
        mesh.torus_hops_impl(from, self.nearest_torus(mesh, from))
    }

    /// Hop distance from `from` to its nearest controller.
    ///
    /// With corner controllers on an `n×n` mesh this equals the paper's
    /// Eq. (4): `H̄M_k = min(i−1, n−i) + min(j−1, n−j)` (1-based indices).
    pub fn hops_to_nearest(&self, mesh: &Mesh, from: TileId) -> usize {
        mesh.hops(from, self.nearest(mesh, from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    /// Direct transcription of Eq. (4) using the paper's 1-based indices.
    fn eq4(n: usize, k: usize) -> usize {
        let i = (k - 1) / n + 1;
        let j = (k - 1) % n + 1;
        (i - 1).min(n - i) + (j - 1).min(n - j)
    }

    #[test]
    fn corner_placement_matches_eq4() {
        for n in [2usize, 4, 6, 8, 10] {
            let m = Mesh::square(n);
            let mcs = MemoryControllers::corners(&m);
            for k in 1..=n * n {
                assert_eq!(
                    mcs.hops_to_nearest(&m, TileId::from_paper(k)),
                    eq4(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn corner_tiles_have_zero_distance() {
        let m = Mesh::square(8);
        let mcs = MemoryControllers::corners(&m);
        for c in m.corners() {
            assert_eq!(mcs.hops_to_nearest(&m, c), 0);
            assert_eq!(mcs.nearest(&m, c), c);
        }
    }

    #[test]
    fn quadrant_assignment_on_8x8() {
        // A tile strictly inside the top-left quadrant must use the
        // top-left controller.
        let m = Mesh::square(8);
        let mcs = MemoryControllers::corners(&m);
        let tl = m.tile(Coord::new(0, 0));
        assert_eq!(mcs.nearest(&m, m.tile(Coord::new(1, 2))), tl);
        let br = m.tile(Coord::new(7, 7));
        assert_eq!(mcs.nearest(&m, m.tile(Coord::new(6, 5))), br);
    }

    #[test]
    fn edge_centers_distinct_on_8x8() {
        let m = Mesh::square(8);
        let mcs = MemoryControllers::edge_centers(&m);
        assert_eq!(mcs.tiles().len(), 4);
    }

    #[test]
    fn custom_single_controller() {
        let m = Mesh::square(4);
        let mc = m.tile(Coord::new(2, 1));
        let mcs = MemoryControllers::try_custom(&m, vec![mc]).expect("valid");
        for t in m.tiles() {
            assert_eq!(mcs.nearest(&m, t), mc);
            assert_eq!(mcs.hops_to_nearest(&m, t), m.hops(t, mc));
        }
    }

    #[test]
    fn try_custom_rejects_bad_placements() {
        let m = Mesh::square(4);
        assert_eq!(
            MemoryControllers::try_custom(&m, vec![]),
            Err(PlacementError::NoControllers)
        );
        assert_eq!(
            MemoryControllers::try_custom(&m, vec![TileId(16)]),
            Err(PlacementError::ControllerOutOfRange {
                tile: 16,
                num_tiles: 16
            })
        );
        // Duplicates collapse; the set stays sorted.
        let mcs = MemoryControllers::try_custom(&m, vec![TileId(5), TileId(2), TileId(5)])
            .expect("valid");
        assert_eq!(mcs.tiles(), &[TileId(2), TileId(5)]);
    }
}
