//! The OBM problem instance and mapping representation (paper §III.B).

use noc_model::{TileId, TileLatencies};

/// An instance of the On-chip-latency Balanced Mapping problem.
///
/// * `N` tiles with latency arrays `TC(k)`, `TM(k)` ([`TileLatencies`]);
/// * `A` applications; application `i` owns the contiguous thread range
///   `boundaries[i] .. boundaries[i+1]` (the paper's `N_{i-1}+1 .. N_i`);
/// * per-thread L2-cache request rates `c` and memory-controller request
///   rates `m`.
///
/// The number of threads may be smaller than the number of tiles; the
/// paper's footnote handles that by adding zero-traffic pseudo-threads,
/// which is equivalent to simply leaving the surplus tiles unassigned —
/// that is how this implementation treats them.
#[derive(Debug, Clone)]
pub struct ObmInstance {
    tiles: TileLatencies,
    boundaries: Vec<usize>,
    c: Vec<f64>,
    m: Vec<f64>,
    /// Per-application request-volume denominators `Σ (c_j + m_j)`.
    app_volume: Vec<f64>,
    /// Per-application `1/app_volume`, precomputed so the incremental
    /// evaluator's most-called queries (`app_apl`, `max_apl`) multiply
    /// instead of divide.
    inv_app_volume: Vec<f64>,
    /// Sum of `app_volume` — the g-APL denominator. Cached at construction
    /// because `evaluate()` divides by it on the solver hot path (one call
    /// per candidate mapping), where re-summing `app_volume` every time
    /// costs an O(A) pass per evaluation.
    total_volume: f64,
    /// Per-application priority weights (all 1 in the paper's formulation).
    /// The min-max objective becomes `max_i w_i·d_i`, so an application
    /// with weight 2 is driven to half the latency of a weight-1 peer —
    /// the "differentiated services" integration the paper's §II.A points
    /// to as future work.
    weights: Vec<f64>,
    /// Lazily built flat evaluation tables (the SoA cost matrix every
    /// solver hot path reads). Cache state, not identity: excluded from
    /// `PartialEq`.
    tables: std::sync::OnceLock<crate::batch::EvalTables>,
}

impl PartialEq for ObmInstance {
    fn eq(&self, other: &Self) -> bool {
        // The `tables` cache is derived state — two instances are equal
        // iff their defining fields are, whether or not either has built
        // its tables yet.
        self.tiles == other.tiles
            && self.boundaries == other.boundaries
            && self.c == other.c
            && self.m == other.m
            && self.app_volume == other.app_volume
            && self.inv_app_volume == other.inv_app_volume
            && self.total_volume == other.total_volume
            && self.weights == other.weights
    }
}

impl ObmInstance {
    /// Build an instance.
    ///
    /// `boundaries` is `[N_0 = 0, N_1, …, N_A = num_threads]`, strictly
    /// increasing.
    ///
    /// # Panics
    /// Panics if the boundary vector is malformed, rates are negative or
    /// non-finite, rate vectors disagree in length, there are more threads
    /// than tiles, or an application has zero total request volume (its APL
    /// would be undefined).
    pub fn new(tiles: TileLatencies, boundaries: Vec<usize>, c: Vec<f64>, m: Vec<f64>) -> Self {
        assert_eq!(c.len(), m.len(), "rate vector length mismatch");
        assert!(
            boundaries.len() >= 2 && boundaries[0] == 0,
            "boundaries must start with 0 and contain at least one app"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        assert_eq!(
            *boundaries.last().unwrap(),
            c.len(),
            "last boundary must equal the thread count"
        );
        assert!(
            c.len() <= tiles.len(),
            "more threads ({}) than tiles ({})",
            c.len(),
            tiles.len()
        );
        for (j, (&cj, &mj)) in c.iter().zip(&m).enumerate() {
            assert!(
                cj.is_finite() && mj.is_finite() && cj >= 0.0 && mj >= 0.0,
                "invalid rates for thread {j}: c={cj}, m={mj}"
            );
        }
        let app_volume: Vec<f64> = boundaries
            .windows(2)
            .map(|w| (w[0]..w[1]).map(|j| c[j] + m[j]).sum())
            .collect();
        assert!(
            app_volume.iter().all(|&v| v > 0.0),
            "every application needs positive total request volume"
        );
        let weights = vec![1.0; app_volume.len()];
        let total_volume = app_volume.iter().sum();
        let inv_app_volume = app_volume.iter().map(|&v| 1.0 / v).collect();
        ObmInstance {
            tiles,
            boundaries,
            c,
            m,
            app_volume,
            inv_app_volume,
            total_volume,
            weights,
            tables: std::sync::OnceLock::new(),
        }
    }

    /// Attach per-application priority weights, switching the objective to
    /// `max_i w_i·d_i` (weighted OBM). Weight 1 everywhere recovers the
    /// paper's formulation.
    ///
    /// # Panics
    /// Panics if the weight count differs from the application count or a
    /// weight is non-positive/non-finite.
    pub fn with_app_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.num_apps(), "one weight per application");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w > 0.0),
            "weights must be positive and finite"
        );
        self.weights = weights;
        // Weights are baked into the eval tables; drop any cached build.
        self.tables = std::sync::OnceLock::new();
        self
    }

    /// Priority weight of application `i`.
    #[inline]
    pub fn app_weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Whether this instance uses non-unit weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.iter().any(|&w| w != 1.0)
    }

    /// Number of tiles `N`.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of threads (≤ tiles).
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.c.len()
    }

    /// Number of applications `A`.
    #[inline]
    pub fn num_apps(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The tile latency arrays.
    #[inline]
    pub fn tiles(&self) -> &TileLatencies {
        &self.tiles
    }

    /// Thread range of application `i`.
    #[inline]
    pub fn app_threads(&self, i: usize) -> std::ops::Range<usize> {
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// Application owning thread `j`.
    #[inline]
    pub fn app_of_thread(&self, j: usize) -> usize {
        // boundaries is short (A+1 entries); partition_point is O(log A).
        self.boundaries.partition_point(|&b| b <= j) - 1
    }

    /// Cache request rate `c_j`.
    #[inline]
    pub fn cache_rate(&self, j: usize) -> f64 {
        self.c[j]
    }

    /// Memory request rate `m_j`.
    #[inline]
    pub fn mem_rate(&self, j: usize) -> f64 {
        self.m[j]
    }

    /// Total request volume of application `i` (the APL denominator).
    #[inline]
    pub fn app_volume(&self, i: usize) -> f64 {
        self.app_volume[i]
    }

    /// Reciprocal request volume `1/app_volume(i)`, precomputed at
    /// construction.
    #[inline]
    pub fn inv_app_volume(&self, i: usize) -> f64 {
        self.inv_app_volume[i]
    }

    /// Total request volume over all applications (cached at
    /// construction).
    #[inline]
    pub fn total_volume(&self) -> f64 {
        self.total_volume
    }

    /// The flat evaluation tables for this instance, built on first use
    /// and cached for the instance's lifetime.
    pub fn eval_tables(&self) -> &crate::batch::EvalTables {
        self.tables
            .get_or_init(|| crate::batch::EvalTables::build(self))
    }

    /// Whether [`eval_tables`](Self::eval_tables) has already been built
    /// for this instance. Observability for cache-reuse tests and for
    /// callers deciding whether a clone carries warm tables.
    pub fn eval_tables_built(&self) -> bool {
        self.tables.get().is_some()
    }

    /// Latency numerator contribution of thread `j` when placed on tile
    /// `k`: `c_j·TC(k) + m_j·TM(k)` — the paper's Eq. (13) cost.
    #[inline]
    pub fn placement_cost(&self, j: usize, k: TileId) -> f64 {
        self.c[j] * self.tiles.tc(k) + self.m[j] * self.tiles.tm(k)
    }

    /// The boundary vector `[0, N_1, …, N_A]`.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }
}

/// Why an assignment vector is not an injective mapping onto a chip's
/// tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingError {
    /// Thread `thread` sits on `tile`, outside the chip's `num_tiles`
    /// tiles.
    TileOutOfRange {
        thread: usize,
        tile: TileId,
        num_tiles: usize,
    },
    /// `tile` is assigned to more than one thread.
    RepeatedTile { tile: TileId },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MappingError::TileOutOfRange {
                thread,
                tile,
                num_tiles,
            } => write!(
                f,
                "thread {thread} on tile {} out of range 0..{num_tiles}",
                tile.index()
            ),
            MappingError::RepeatedTile { tile } => {
                write!(f, "tile {} assigned twice", tile.index())
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Check that `tiles` is an injective assignment into `0..num_tiles`,
/// using `seen` as recycled scratch.
fn check_tiles(
    tiles: &[TileId],
    num_tiles: usize,
    seen: &mut Vec<bool>,
) -> Result<(), MappingError> {
    seen.clear();
    seen.resize(num_tiles, false);
    for (thread, &tile) in tiles.iter().enumerate() {
        let Some(slot) = seen.get_mut(tile.index()) else {
            return Err(MappingError::TileOutOfRange {
                thread,
                tile,
                num_tiles,
            });
        };
        if *slot {
            return Err(MappingError::RepeatedTile { tile });
        }
        *slot = true;
    }
    Ok(())
}

/// A thread-to-tile mapping `π(j) = k` — an injective assignment of every
/// thread to a tile.
#[derive(Debug, PartialEq, Eq)]
pub struct Mapping {
    thread_to_tile: Vec<TileId>,
}

// Hand-written so `clone_from` reuses the destination's buffer: solvers
// copy each new incumbent into one kept mapping.
impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping {
            thread_to_tile: self.thread_to_tile.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.thread_to_tile.clone_from(&source.thread_to_tile);
    }
}

impl Mapping {
    /// Build from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if two threads share a tile; [`try_new`](Self::try_new) is
    /// the fallible twin that also checks the tile range.
    pub fn new(thread_to_tile: Vec<TileId>) -> Self {
        let num_tiles = thread_to_tile
            .iter()
            .map(|t| t.index())
            .max()
            .map_or(0, |m| m + 1);
        Self::try_new(thread_to_tile, num_tiles).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from an assignment vector over a chip of `num_tiles` tiles,
    /// rejecting out-of-range and repeated tiles with a typed error.
    pub fn try_new(thread_to_tile: Vec<TileId>, num_tiles: usize) -> Result<Self, MappingError> {
        check_tiles(&thread_to_tile, num_tiles, &mut Vec::new())?;
        Ok(Mapping { thread_to_tile })
    }

    /// Overwrite this mapping with `tiles` in place, reusing its buffer
    /// (`seen` is the check's recycled scratch). On error the mapping is
    /// left unchanged.
    pub(crate) fn refill(
        &mut self,
        tiles: &[TileId],
        num_tiles: usize,
        seen: &mut Vec<bool>,
    ) -> Result<(), MappingError> {
        check_tiles(tiles, num_tiles, seen)?;
        self.thread_to_tile.clear();
        self.thread_to_tile.extend_from_slice(tiles);
        Ok(())
    }

    /// The identity mapping: thread `j` on tile `j`.
    pub fn identity(num_threads: usize) -> Self {
        Mapping {
            thread_to_tile: (0..num_threads).map(TileId).collect(),
        }
    }

    /// Tile of thread `j`.
    #[inline]
    pub fn tile_of(&self, j: usize) -> TileId {
        self.thread_to_tile[j]
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.thread_to_tile.len()
    }

    /// The raw assignment vector.
    pub fn as_slice(&self) -> &[TileId] {
        &self.thread_to_tile
    }

    /// Inverse view: `tile → thread` over `num_tiles` tiles (`None` for
    /// unassigned tiles).
    pub fn tile_to_thread(&self, num_tiles: usize) -> Vec<Option<usize>> {
        let mut inv = vec![None; num_tiles];
        for (j, &t) in self.thread_to_tile.iter().enumerate() {
            inv[t.index()] = Some(j);
        }
        inv
    }

    /// Reassign thread `j` to `tile` without validity checking (used by
    /// search algorithms that maintain injectivity themselves).
    #[inline]
    pub(crate) fn set_tile(&mut self, j: usize, tile: TileId) {
        self.thread_to_tile[j] = tile;
    }

    /// Swap the tiles of threads `a` and `b`.
    #[inline]
    pub fn swap_threads(&mut self, a: usize, b: usize) {
        self.thread_to_tile.swap(a, b);
    }

    /// Check injectivity and range against an instance.
    pub fn is_valid_for(&self, inst: &ObmInstance) -> bool {
        self.thread_to_tile.len() == inst.num_threads()
            && check_tiles(&self.thread_to_tile, inst.num_tiles(), &mut Vec::new()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh};

    fn tiny_instance() -> ObmInstance {
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        ObmInstance::new(
            tiles,
            vec![0, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.1, 0.2, 0.3, 0.4],
        )
    }

    #[test]
    fn instance_accessors() {
        let inst = tiny_instance();
        assert_eq!(inst.num_tiles(), 4);
        assert_eq!(inst.num_threads(), 4);
        assert_eq!(inst.num_apps(), 2);
        assert_eq!(inst.app_threads(0), 0..2);
        assert_eq!(inst.app_threads(1), 2..4);
        assert_eq!(inst.app_of_thread(0), 0);
        assert_eq!(inst.app_of_thread(1), 0);
        assert_eq!(inst.app_of_thread(2), 1);
        assert_eq!(inst.app_of_thread(3), 1);
        assert!((inst.app_volume(0) - 3.3).abs() < 1e-12);
        assert!((inst.total_volume() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn placement_cost_is_eq13() {
        let inst = tiny_instance();
        let k = TileId(0);
        let expect = 1.0 * inst.tiles().tc(k) + 0.1 * inst.tiles().tm(k);
        assert!((inst.placement_cost(0, k) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tile 0 assigned twice")]
    fn duplicate_tile_panics() {
        let _ = Mapping::new(vec![TileId(0), TileId(0)]);
    }

    #[test]
    fn try_new_rejects_range_and_repeats() {
        let ok = Mapping::try_new(vec![TileId(2), TileId(0)], 3).expect("valid");
        assert_eq!(ok.as_slice(), &[TileId(2), TileId(0)]);
        assert_eq!(
            Mapping::try_new(vec![TileId(0), TileId(3)], 3),
            Err(MappingError::TileOutOfRange {
                thread: 1,
                tile: TileId(3),
                num_tiles: 3
            })
        );
        assert_eq!(
            Mapping::try_new(vec![TileId(1), TileId(1)], 3),
            Err(MappingError::RepeatedTile { tile: TileId(1) })
        );
    }

    #[test]
    fn refill_reuses_the_buffer_and_keeps_bad_input_out() {
        let mut m = Mapping::identity(4);
        let mut seen = Vec::new();
        let before = m.as_slice().as_ptr();
        m.refill(&[TileId(3), TileId(1)], 4, &mut seen)
            .expect("valid");
        assert_eq!(m.as_slice(), &[TileId(3), TileId(1)]);
        assert_eq!(m.as_slice().as_ptr(), before, "buffer reallocated");
        assert!(m.refill(&[TileId(2), TileId(2)], 4, &mut seen).is_err());
        assert_eq!(m.as_slice(), &[TileId(3), TileId(1)]);
    }

    #[test]
    fn clone_from_matches_clone() {
        let src = Mapping::new(vec![TileId(5), TileId(2), TileId(7)]);
        let mut dst = Mapping::identity(8);
        dst.clone_from(&src);
        assert_eq!(dst, src.clone());
    }

    #[test]
    #[should_panic]
    fn zero_volume_app_panics() {
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let _ = ObmInstance::new(tiles, vec![0, 2], vec![0.0, 0.0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn too_many_threads_panics() {
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let _ = ObmInstance::new(tiles, vec![0, 5], vec![1.0; 5], vec![0.0; 5]);
    }

    #[test]
    fn mapping_inverse_view() {
        let m = Mapping::new(vec![TileId(2), TileId(0)]);
        let inv = m.tile_to_thread(4);
        assert_eq!(inv, vec![Some(1), None, Some(0), None]);
    }

    #[test]
    fn identity_mapping_valid() {
        let inst = tiny_instance();
        let m = Mapping::identity(4);
        assert!(m.is_valid_for(&inst));
        let mut bad = m.clone();
        bad.set_tile(0, TileId(1));
        assert!(!bad.is_valid_for(&inst)); // duplicate tile 1
    }

    #[test]
    fn swap_threads() {
        let mut m = Mapping::identity(3);
        m.swap_threads(0, 2);
        assert_eq!(m.tile_of(0), TileId(2));
        assert_eq!(m.tile_of(2), TileId(0));
    }
}
