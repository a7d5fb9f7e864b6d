//! Mesh geometry: tiles, coordinates and hop distances.
//!
//! The paper numbers tiles `k ∈ [1, N]` with `k = (i−1)·n + j` (Eq. 1) where
//! `i`/`j` are the 1-based row/column. Internally we use 0-based
//! [`TileId`]s in the same row-major order; [`TileId::from_paper`] and
//! [`TileId::to_paper`] convert to the paper's 1-based numbering.

/// A tile index in row-major order, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

impl TileId {
    /// Convert from the paper's 1-based tile number (Eq. 1).
    #[inline]
    pub fn from_paper(k: usize) -> Self {
        assert!(k >= 1, "paper tile numbers start at 1");
        TileId(k - 1)
    }

    /// Convert to the paper's 1-based tile number (Eq. 1).
    #[inline]
    pub fn to_paper(self) -> usize {
        self.0 + 1
    }

    /// The raw 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A (row, col) coordinate on the mesh, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// 0-based row (the paper's `i − 1`).
    pub row: usize,
    /// 0-based column (the paper's `j − 1`).
    pub col: usize,
}

impl Coord {
    /// Construct a coordinate.
    #[inline]
    pub fn new(row: usize, col: usize) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance to another coordinate (the hop count of any
    /// minimal route on a mesh).
    #[inline]
    pub fn manhattan(self, other: Coord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

/// A rectangular 2-D mesh of `rows × cols` tiles.
///
/// The paper evaluates square `n × n` meshes (8×8 in the evaluation, 4×4 in
/// the Figure 5 example); rectangular meshes are supported for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    rows: usize,
    cols: usize,
}

impl Mesh {
    /// Create a mesh with the given number of rows and columns.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        Mesh { rows, cols }
    }

    /// Create a square `n × n` mesh.
    pub fn square(n: usize) -> Self {
        Mesh::new(n, n)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles `N`.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the mesh is square (`n × n`).
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Coordinate of a tile.
    ///
    /// # Panics
    /// Panics if the tile is out of range.
    #[inline]
    pub fn coord(&self, t: TileId) -> Coord {
        assert!(t.0 < self.num_tiles(), "tile {} out of range", t.0);
        Coord::new(t.0 / self.cols, t.0 % self.cols)
    }

    /// Tile at a coordinate.
    ///
    /// # Panics
    /// Panics if the coordinate is out of range.
    #[inline]
    pub fn tile(&self, c: Coord) -> TileId {
        assert!(c.row < self.rows && c.col < self.cols, "coord out of range");
        TileId(c.row * self.cols + c.col)
    }

    /// Hop count between two tiles under minimal (e.g. XY) routing.
    #[inline]
    pub fn hops(&self, a: TileId, b: TileId) -> usize {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Iterator over all tiles in row-major order.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileId> {
        (0..self.num_tiles()).map(TileId)
    }

    /// The four corner tiles (clockwise from the top-left). For a 1×1 mesh
    /// all four entries are the single tile; degenerate meshes repeat tiles.
    pub fn corners(&self) -> [TileId; 4] {
        [
            self.tile(Coord::new(0, 0)),
            self.tile(Coord::new(0, self.cols - 1)),
            self.tile(Coord::new(self.rows - 1, self.cols - 1)),
            self.tile(Coord::new(self.rows - 1, 0)),
        ]
    }

    /// Neighbours of a tile (up, down, left, right — those that exist).
    pub fn neighbors(&self, t: TileId) -> impl Iterator<Item = TileId> + '_ {
        let c = self.coord(t);
        let mut out = [None; 4];
        if c.row > 0 {
            out[0] = Some(self.tile(Coord::new(c.row - 1, c.col)));
        }
        if c.row + 1 < self.rows {
            out[1] = Some(self.tile(Coord::new(c.row + 1, c.col)));
        }
        if c.col > 0 {
            out[2] = Some(self.tile(Coord::new(c.row, c.col - 1)));
        }
        if c.col + 1 < self.cols {
            out[3] = Some(self.tile(Coord::new(c.row, c.col + 1)));
        }
        out.into_iter().flatten()
    }

    /// Average hop count from tile `k` to *all* tiles including itself —
    /// the `H̄C_k` of Eq. (3). This is the mean cache-packet hop count
    /// because L2 banks are address-interleaved uniformly over tiles.
    pub fn avg_cache_hops(&self, k: TileId) -> f64 {
        let c = self.coord(k);
        let row_sum: usize = (0..self.rows).map(|r| r.abs_diff(c.row)).sum();
        let col_sum: usize = (0..self.cols).map(|j| j.abs_diff(c.col)).sum();
        // Σ_{r,j} (|r−row| + |j−col|) = cols·row_sum + rows·col_sum
        (self.cols * row_sum + self.rows * col_sum) as f64 / self.num_tiles() as f64
    }

    /// Hop count between two tiles on a **torus** of the same dimensions
    /// (wraparound links): per-dimension distance is
    /// `min(|Δ|, size − |Δ|)`. Body of the
    /// [`Topology`](crate::layout::Topology)-parameterized API.
    #[inline]
    pub(crate) fn torus_hops_impl(&self, a: TileId, b: TileId) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let dr = ca.row.abs_diff(cb.row);
        let dc = ca.col.abs_diff(cb.col);
        dr.min(self.rows - dr) + dc.min(self.cols - dc)
    }

    /// Average torus hop count from tile `k` to all tiles including
    /// itself — the torus analogue of Eq. (3). A torus is
    /// vertex-transitive, so this is the same for every tile: uniform
    /// cache latency by construction. Body of the
    /// [`Topology`](crate::layout::Topology)-parameterized API.
    pub(crate) fn avg_cache_hops_torus_impl(&self, k: TileId) -> f64 {
        let c = self.coord(k);
        let row_sum: usize = (0..self.rows)
            .map(|r| {
                let d = r.abs_diff(c.row);
                d.min(self.rows - d)
            })
            .sum();
        let col_sum: usize = (0..self.cols)
            .map(|j| {
                let d = j.abs_diff(c.col);
                d.min(self.cols - d)
            })
            .sum();
        (self.cols * row_sum + self.rows * col_sum) as f64 / self.num_tiles() as f64
    }

    /// Fraction of cache destinations that require network traversal
    /// (all tiles except the source itself): `(N−1)/N`. Used to weight the
    /// serialization latency, which is only paid when a packet actually
    /// enters the network.
    #[inline]
    pub fn offtile_fraction(&self) -> f64 {
        let n = self.num_tiles() as f64;
        (n - 1.0) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbering_example() {
        // "the 29-th tile in Figure 1 (where n = 8) is located at the fourth
        // row, fifth column"
        let m = Mesh::square(8);
        let t = TileId::from_paper(29);
        assert_eq!(m.coord(t), Coord::new(3, 4)); // 0-based (4th row, 5th col)
        assert_eq!(t.to_paper(), 29);
    }

    #[test]
    fn roundtrip_tile_coord() {
        let m = Mesh::new(5, 7);
        for t in m.tiles() {
            assert_eq!(m.tile(m.coord(t)), t);
        }
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let m = Mesh::square(6);
        let a = TileId(3);
        let b = TileId(27);
        let c = TileId(35);
        assert_eq!(m.hops(a, b), m.hops(b, a));
        assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
        assert_eq!(m.hops(a, a), 0);
    }

    #[test]
    fn avg_cache_hops_paper_values() {
        // Paper: on the 8×8 mesh, H̄C_1 = 7 for corner tile 1 and
        // H̄C_28 = 4 for central tile 28.
        let m = Mesh::square(8);
        assert!((m.avg_cache_hops(TileId::from_paper(1)) - 7.0).abs() < 1e-12);
        assert!((m.avg_cache_hops(TileId::from_paper(28)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn avg_cache_hops_4x4_values() {
        // Derived by hand for the Figure 5 example: corners 3.0, edges 2.5,
        // center 2.0 hops.
        let m = Mesh::square(4);
        assert!((m.avg_cache_hops(m.tile(Coord::new(0, 0))) - 3.0).abs() < 1e-12);
        assert!((m.avg_cache_hops(m.tile(Coord::new(0, 1))) - 2.5).abs() < 1e-12);
        assert!((m.avg_cache_hops(m.tile(Coord::new(1, 1))) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn corners_are_distinct_on_nontrivial_mesh() {
        let m = Mesh::square(8);
        let cs = m.corners();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(cs[i], cs[j]);
            }
        }
    }

    #[test]
    fn neighbors_counts() {
        let m = Mesh::square(4);
        assert_eq!(m.neighbors(m.tile(Coord::new(0, 0))).count(), 2); // corner
        assert_eq!(m.neighbors(m.tile(Coord::new(0, 1))).count(), 3); // edge
        assert_eq!(m.neighbors(m.tile(Coord::new(1, 1))).count(), 4); // inner
    }

    #[test]
    fn offtile_fraction() {
        let m = Mesh::square(4);
        assert!((m.offtile_fraction() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_mesh_panics() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    fn torus_hops_wrap() {
        let m = Mesh::square(4);
        let a = m.tile(Coord::new(0, 0));
        let b = m.tile(Coord::new(3, 3));
        assert_eq!(m.hops(a, b), 6);
        assert_eq!(m.torus_hops_impl(a, b), 2); // wrap both dimensions
        assert_eq!(m.torus_hops_impl(a, a), 0);
    }

    #[test]
    fn torus_is_vertex_transitive() {
        let m = Mesh::square(6);
        let first = m.avg_cache_hops_torus_impl(TileId(0));
        for t in m.tiles() {
            assert!((m.avg_cache_hops_torus_impl(t) - first).abs() < 1e-12);
        }
        // and strictly better than the mesh corner
        assert!(first < m.avg_cache_hops(TileId(0)));
    }

    #[test]
    fn rectangular_mesh_geometry() {
        let m = Mesh::new(2, 3);
        assert_eq!(m.num_tiles(), 6);
        assert!(!m.is_square());
        assert_eq!(m.coord(TileId(5)), Coord::new(1, 2));
        assert_eq!(m.hops(TileId(0), TileId(5)), 3);
    }
}
