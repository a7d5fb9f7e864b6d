//! Placement co-optimization (DESIGN.md §15): search over memory-controller
//! placements with the OBM solver in the inner loop.
//!
//! The paper fixes the chip — controllers in the corners of a mesh — and
//! optimizes the thread mapping. This module makes the *layout* a decision
//! variable too: an outer deterministic search proposes
//! [`ChipLayout`]s, rebuilds the `TC`/`TM` arrays with
//! [`TileLatencies::for_layout`], solves the induced OBM instance with a
//! caller-supplied inner solver, and keeps the layout whose solved
//! objective is best. Two outer strategies cover the practical range:
//!
//! * **exhaustive** — every `k`-subset of tiles, reduced by the mesh's
//!   symmetry group (D4 on square meshes, the Klein four-group on
//!   rectangles) so geometrically equivalent placements are solved once;
//! * **annealed** — simulated annealing over placements (move one
//!   controller to a free tile), with a memo table so revisited
//!   placements reuse their solved score (and the instance's PR 6
//!   [`EvalTables`](crate::batch::EvalTables) cache underneath).
//!
//! Both strategies are deterministic given the options' seeds, poll a
//! [`CancelToken`] between inner solves, and always score the
//! corner-default baseline so callers get the paper-default comparison
//! for free.

use crate::algorithms::metropolis_accept;
use crate::cancel::CancelToken;
use crate::eval::evaluate;
use crate::problem::{Mapping, ObmInstance};
use noc_metrics::{Counter, MetricsHandle};
use noc_model::{
    ChipLayout, LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies, Topology,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Outer-loop strategy for [`co_optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Score every symmetry-reduced `k`-subset of tiles.
    Exhaustive,
    /// Simulated annealing over placements with this many proposed moves.
    Annealed {
        /// Proposed controller moves (inner solves are memoized, so the
        /// number of solver calls is at most `iterations + 1`).
        iterations: usize,
    },
    /// [`Exhaustive`](SearchMode::Exhaustive) when the raw candidate count
    /// `C(num_tiles, k)` is at most `exhaustive_limit`, otherwise
    /// [`Annealed`](SearchMode::Annealed) with `sa_iterations` moves.
    Auto {
        /// Largest raw candidate count still searched exhaustively.
        exhaustive_limit: usize,
        /// Annealing budget when the limit is exceeded.
        sa_iterations: usize,
    },
}

impl Default for SearchMode {
    /// Exhaustive up to 4096 raw candidates (a 4×4 mesh with ≤ 4
    /// controllers), 400 annealing moves beyond that (an 8×8 mesh).
    fn default() -> Self {
        SearchMode::Auto {
            exhaustive_limit: 4096,
            sa_iterations: 400,
        }
    }
}

/// Options for [`co_optimize`].
#[derive(Debug, Clone)]
pub struct PlacementOptions {
    /// Number of memory controllers to place.
    pub num_controllers: usize,
    /// Topology the candidate layouts are built on.
    pub topology: Topology,
    /// Latency parameters used to rebuild `TC`/`TM` per layout.
    pub params: LatencyParams,
    /// Outer-loop strategy.
    pub mode: SearchMode,
    /// Seed for the outer annealing walk (unused by exhaustive search).
    pub seed: u64,
    /// Seed handed to the inner solver for every candidate layout (one
    /// fixed seed keeps candidate scores comparable and the whole search
    /// reproducible).
    pub inner_seed: u64,
    /// Cooperative cancellation, polled between inner solves.
    pub cancel: CancelToken,
    /// Write-only runtime metrics sink (DESIGN.md §17): the search
    /// counts scanned candidates, memo hits and fresh inner solves, and
    /// times each inner solve under the `placement/inner_solve` span.
    /// Disabled by default; never read back, so the search trajectory is
    /// unchanged by it.
    pub metrics: MetricsHandle,
}

impl PlacementOptions {
    /// Defaults: 4 controllers on a mesh, paper Table 2 latency
    /// parameters, [`SearchMode::default`], seed 1.
    pub fn new(num_controllers: usize) -> Self {
        PlacementOptions {
            num_controllers,
            topology: Topology::Mesh,
            params: LatencyParams::paper_table2(),
            mode: SearchMode::default(),
            seed: 1,
            inner_seed: 1,
            cancel: CancelToken::never(),
            metrics: MetricsHandle::disabled(),
        }
    }
}

/// A rejected or aborted placement search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementSearchError {
    /// `num_controllers` is zero.
    NoControllers,
    /// More controllers requested than the mesh has tiles.
    TooManyControllers {
        /// Requested controller count.
        requested: usize,
        /// Tiles on the mesh.
        num_tiles: usize,
    },
    /// The instance's tile count does not match the mesh.
    MeshMismatch {
        /// Tiles on the mesh being searched.
        mesh_tiles: usize,
        /// Tiles the instance's latency arrays cover.
        instance_tiles: usize,
    },
    /// The [`CancelToken`] fired before the search finished.
    Cancelled,
}

impl fmt::Display for PlacementSearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementSearchError::NoControllers => {
                write!(f, "placement search needs at least one controller")
            }
            PlacementSearchError::TooManyControllers {
                requested,
                num_tiles,
            } => write!(
                f,
                "cannot place {requested} controllers on a {num_tiles}-tile mesh"
            ),
            PlacementSearchError::MeshMismatch {
                mesh_tiles,
                instance_tiles,
            } => write!(
                f,
                "mesh has {mesh_tiles} tiles but the instance covers {instance_tiles}"
            ),
            PlacementSearchError::Cancelled => write!(f, "placement search cancelled"),
        }
    }
}

impl std::error::Error for PlacementSearchError {}

/// Result of [`co_optimize`]: the best layout found, its solved mapping,
/// and the corner-default baseline for comparison.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// Best layout found (ties broken towards the earliest candidate in
    /// deterministic search order).
    pub layout: ChipLayout,
    /// Inner solver's mapping on the best layout.
    pub mapping: Mapping,
    /// Solved objective (weighted max-APL) on the best layout.
    pub objective: f64,
    /// The corner-default baseline layout (first `k` corner tiles).
    pub baseline_layout: ChipLayout,
    /// Inner solver's mapping on the baseline layout.
    pub baseline_mapping: Mapping,
    /// Solved objective on the baseline layout.
    pub baseline_objective: f64,
    /// Distinct placements actually solved (memo hits excluded).
    pub evaluated: usize,
    /// `true` when the outer loop ran exhaustively.
    pub exhaustive: bool,
}

impl PlacementOutcome {
    /// Relative improvement of the best layout over the baseline, in
    /// percent of the baseline objective.
    pub fn gain_pct(&self) -> f64 {
        if self.baseline_objective == 0.0 {
            0.0
        } else {
            100.0 * (self.baseline_objective - self.objective) / self.baseline_objective
        }
    }
}

/// The default inner solver: the paper's sort-select-swap heuristic
/// ([`SortSelectSwap`](crate::algorithms::SortSelectSwap)), scored by
/// weighted max-APL. Plug your own closure into [`co_optimize`] to search
/// with a different solver (the portfolio engine, SA, exact).
pub fn sss_inner(inst: &ObmInstance, seed: u64) -> (Mapping, f64) {
    use crate::algorithms::{Mapper, SortSelectSwap};
    let mapping = SortSelectSwap::default().map(inst, seed);
    let objective = evaluate(inst, &mapping).max_apl;
    (mapping, objective)
}

/// The corner-default baseline placement: the first `k` tiles of the
/// paper's corner set, extended by edge centers and then ascending tile
/// index when `k` exceeds the corner count. Deterministic for every `k`.
pub fn baseline_placement(mesh: &Mesh, k: usize) -> Vec<TileId> {
    let mut tiles: Vec<TileId> = MemoryControllers::corners(mesh).tiles().to_vec();
    for &t in MemoryControllers::edge_centers(mesh).tiles() {
        if !tiles.contains(&t) {
            tiles.push(t);
        }
    }
    for t in mesh.tiles() {
        if tiles.len() >= k {
            break;
        }
        if !tiles.contains(&t) {
            tiles.push(t);
        }
    }
    tiles.truncate(k);
    tiles.sort_unstable();
    tiles
}

/// Search memory-controller placements for the one whose *solved* OBM
/// objective is lowest.
///
/// `inst` supplies the workload (application boundaries, request rates,
/// weights); its latency arrays are rebuilt per candidate layout with
/// [`TileLatencies::for_layout`], so the instance may have been built for
/// any placement. `inner` is called once per distinct candidate with the
/// induced instance and `opts.inner_seed`, and must return a mapping and
/// its objective (lower is better) — see [`sss_inner`].
///
/// Deterministic: given equal options and an `inner` that is a pure
/// function of its arguments, the outcome is identical across runs.
pub fn co_optimize<F>(
    inst: &ObmInstance,
    mesh: &Mesh,
    opts: &PlacementOptions,
    mut inner: F,
) -> Result<PlacementOutcome, PlacementSearchError>
where
    F: FnMut(&ObmInstance, u64) -> (Mapping, f64),
{
    let n = mesh.num_tiles();
    let k = opts.num_controllers;
    if k == 0 {
        return Err(PlacementSearchError::NoControllers);
    }
    if k > n {
        return Err(PlacementSearchError::TooManyControllers {
            requested: k,
            num_tiles: n,
        });
    }
    if inst.num_tiles() != n {
        return Err(PlacementSearchError::MeshMismatch {
            mesh_tiles: n,
            instance_tiles: inst.num_tiles(),
        });
    }

    // Counters are pre-resolved once so the per-candidate hot path is a
    // lock-free atomic add (or a never-taken branch when disabled).
    let mut search = Search {
        induced: inst.clone(),
        mesh,
        opts,
        inner: &mut inner,
        memo: HashMap::new(),
        key: Vec::with_capacity(k),
        evaluated: 0,
        c_candidates: opts.metrics.counter("placement_candidates_total"),
        c_memo_hits: opts.metrics.counter("placement_memo_hits_total"),
        c_inner_solves: opts.metrics.counter("placement_inner_solves_total"),
    };

    let baseline_tiles = baseline_placement(mesh, k);
    let (baseline_mapping, baseline_objective) = search.score(&baseline_tiles)?;
    let baseline_mapping = baseline_mapping.clone();
    let baseline_layout = search.layout(&baseline_tiles);

    let exhaustive = match opts.mode {
        SearchMode::Exhaustive => true,
        SearchMode::Annealed { .. } => false,
        SearchMode::Auto {
            exhaustive_limit, ..
        } => binomial(n, k).is_some_and(|c| c <= exhaustive_limit),
    };
    let (best_tiles, best_mapping, best_objective) = if exhaustive {
        search.run_exhaustive(k, &baseline_tiles, baseline_objective)?
    } else {
        let iterations = match opts.mode {
            SearchMode::Annealed { iterations } => iterations,
            SearchMode::Auto { sa_iterations, .. } => sa_iterations,
            SearchMode::Exhaustive => 0,
        };
        search.run_annealed(k, iterations, &baseline_tiles, baseline_objective)?
    };

    let layout = search.layout(&best_tiles);
    Ok(PlacementOutcome {
        layout,
        mapping: best_mapping.unwrap_or_else(|| baseline_mapping.clone()),
        objective: best_objective,
        baseline_layout,
        baseline_mapping,
        baseline_objective,
        evaluated: search.evaluated,
        exhaustive,
    })
}

/// Shared state of one `co_optimize` run.
struct Search<'a, F> {
    /// The caller's workload, moved onto each candidate layout in place
    /// ([`ObmInstance::replace_tiles`]): threads, rates, weights and the
    /// evaluation tables' workload columns are built once per search.
    induced: ObmInstance,
    mesh: &'a Mesh,
    opts: &'a PlacementOptions,
    inner: &'a mut F,
    /// Solved score per placement (sorted tile-index key); annealing
    /// revisits states, and geometric duplicates share a canonical key.
    memo: HashMap<Vec<usize>, (Mapping, f64)>,
    /// Lookup key of the placement being scored, reused across calls (a
    /// memo hit allocates nothing).
    key: Vec<usize>,
    evaluated: usize,
    /// Pre-resolved metric counters (inert when metrics are disabled).
    c_candidates: Counter,
    c_memo_hits: Counter,
    c_inner_solves: Counter,
}

impl<F> Search<'_, F>
where
    F: FnMut(&ObmInstance, u64) -> (Mapping, f64),
{
    fn layout(&self, tiles: &[TileId]) -> ChipLayout {
        let mcs = MemoryControllers::try_custom(self.mesh, tiles.to_vec())
            .expect("search proposes only in-range, non-empty placements");
        ChipLayout::try_new(*self.mesh, self.opts.topology, mcs, Vec::new())
            .expect("healthy chip: no failed links to validate")
    }

    /// Solve the instance induced by placing controllers on `tiles`
    /// (memoized). Returns the memoized mapping and objective.
    fn score(&mut self, tiles: &[TileId]) -> Result<(&Mapping, f64), PlacementSearchError> {
        self.c_candidates.inc();
        self.key.clear();
        self.key.extend(tiles.iter().map(|t| t.index()));
        if self.memo.contains_key(self.key.as_slice()) {
            self.c_memo_hits.inc();
        } else {
            if self.opts.cancel.is_cancelled() {
                return Err(PlacementSearchError::Cancelled);
            }
            let layout = self.layout(tiles);
            self.induced
                .replace_tiles(TileLatencies::for_layout(&layout, self.opts.params));
            self.c_inner_solves.inc();
            let span = self.opts.metrics.span("placement/inner_solve");
            let solved = (self.inner)(&self.induced, self.opts.inner_seed);
            drop(span);
            self.evaluated += 1;
            self.memo.insert(self.key.clone(), solved);
        }
        let (mapping, objective) = &self.memo[self.key.as_slice()];
        Ok((mapping, *objective))
    }

    /// Exhaustive outer loop over symmetry-reduced `k`-subsets, in
    /// lexicographic order (first-found wins ties).
    fn run_exhaustive(
        &mut self,
        k: usize,
        baseline: &[TileId],
        baseline_objective: f64,
    ) -> Result<(Vec<TileId>, Option<Mapping>, f64), PlacementSearchError> {
        let transforms = symmetry_transforms(self.mesh);
        let mut best_tiles = baseline.to_vec();
        let mut best_mapping = None;
        let mut best = baseline_objective;
        let n = self.mesh.num_tiles();
        let mut combo: Vec<usize> = (0..k).collect();
        let mut image = Vec::with_capacity(k);
        let mut tiles = Vec::with_capacity(k);
        loop {
            if is_canonical(&combo, &transforms, &mut image) {
                tiles.clear();
                tiles.extend(combo.iter().map(|&i| TileId(i)));
                let (mapping, objective) = self.score(&tiles)?;
                if objective < best {
                    best = objective;
                    best_mapping = Some(mapping.clone());
                    best_tiles.clone_from(&tiles);
                }
            }
            if !next_combination(&mut combo, n) {
                break;
            }
        }
        Ok((best_tiles, best_mapping, best))
    }

    /// Annealed outer loop: move one controller to a free tile per step,
    /// accept by Metropolis on the solved objective, track the best state
    /// ever seen. Starts from the baseline placement. With a controller
    /// on every tile there is no free tile to move to and the baseline is
    /// the only placement, so it is returned without proposing.
    fn run_annealed(
        &mut self,
        k: usize,
        iterations: usize,
        baseline: &[TileId],
        baseline_objective: f64,
    ) -> Result<(Vec<TileId>, Option<Mapping>, f64), PlacementSearchError> {
        let n = self.mesh.num_tiles();
        if k == n {
            return Ok((baseline.to_vec(), None, baseline_objective));
        }
        let mut rng = SmallRng::seed_from_u64(self.opts.seed);
        let mut state = baseline.to_vec();
        let mut cur = baseline_objective;
        let mut best_tiles = state.clone();
        let mut best_mapping = None;
        let mut best = cur;

        let t0 = (cur * 0.05).max(1e-9);
        let t_end = t0 * 1e-3;
        let alpha = (t_end / t0).powf(1.0 / iterations.max(1) as f64);
        let mut temp = t0;
        for _ in 0..iterations {
            if self.opts.cancel.is_cancelled() {
                return Err(PlacementSearchError::Cancelled);
            }
            // Propose: move one controller to a random unoccupied tile.
            let slot = rng.gen_range(0..k);
            let mut dst = TileId(rng.gen_range(0..n));
            while state.contains(&dst) {
                dst = TileId(rng.gen_range(0..n));
            }
            let mut cand = state.clone();
            cand[slot] = dst;
            cand.sort_unstable();
            let (mapping, objective) = self.score(&cand)?;
            let delta = objective - cur;
            if metropolis_accept(delta, temp, &mut rng) {
                state = cand;
                cur = objective;
                if cur < best {
                    best = cur;
                    best_tiles = state.clone();
                    best_mapping = Some(mapping.clone());
                }
            }
            temp *= alpha;
        }
        Ok((best_tiles, best_mapping, best))
    }
}

/// `C(n, k)`, or `None` on overflow (treated as "too many to enumerate").
fn binomial(n: usize, k: usize) -> Option<usize> {
    let k = k.min(n - k);
    let mut acc: usize = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i)? / (i + 1);
    }
    Some(acc)
}

/// Advance `combo` (strictly increasing indices) to the next `k`-subset
/// of `0..n` in lexicographic order. Returns `false` after the last one.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < n - k + i {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// The mesh's symmetry group as tile-index permutations: the dihedral
/// group D4 (8 transforms) on square meshes, `{id, flip-rows, flip-cols,
/// rotate-180}` on rectangles. Candidate placements equivalent under any
/// of these induce the same multiset of `(TC, TM)` tile profiles, so the
/// solved objective is identical and only the canonical representative
/// needs an inner solve.
fn symmetry_transforms(mesh: &Mesh) -> Vec<Vec<usize>> {
    let (rows, cols) = (mesh.rows(), mesh.cols());
    let n = mesh.num_tiles();
    let mut out = Vec::new();
    for &transpose in if rows == cols {
        &[false, true][..]
    } else {
        &[false][..]
    } {
        for flip_r in [false, true] {
            for flip_c in [false, true] {
                let perm: Vec<usize> = (0..n)
                    .map(|idx| {
                        let (mut r, mut c) = (idx / cols, idx % cols);
                        if transpose {
                            std::mem::swap(&mut r, &mut c);
                        }
                        if flip_r {
                            r = rows - 1 - r;
                        }
                        if flip_c {
                            c = cols - 1 - c;
                        }
                        r * cols + c
                    })
                    .collect();
                out.push(perm);
            }
        }
    }
    out
}

/// Whether the sorted index set `combo` is the lexicographically smallest
/// member of its symmetry orbit. `image` is reused scratch for each
/// transformed set.
fn is_canonical(combo: &[usize], transforms: &[Vec<usize>], image: &mut Vec<usize>) -> bool {
    for perm in transforms {
        image.clear();
        image.extend(combo.iter().map(|&src| perm[src]));
        image.sort_unstable();
        if image.as_slice() < combo {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_workload(mesh: &Mesh) -> ObmInstance {
        let mcs = MemoryControllers::corners(mesh);
        let tiles = TileLatencies::compute(mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.05; 16])
    }

    #[test]
    fn next_combination_enumerates_all() {
        let mut combo = vec![0, 1];
        let mut count = 1;
        while next_combination(&mut combo, 4) {
            count += 1;
        }
        assert_eq!(count, 6); // C(4,2)
        assert_eq!(combo, vec![2, 3]);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(16, 4), Some(1820));
        assert_eq!(binomial(64, 1), Some(64));
        assert_eq!(binomial(5, 0), Some(1));
    }

    #[test]
    fn square_mesh_has_eight_transforms() {
        let m = Mesh::square(4);
        let t = symmetry_transforms(&m);
        assert_eq!(t.len(), 8);
        // All transforms are permutations and the identity is present.
        assert!(t.iter().any(|p| p.iter().enumerate().all(|(i, &x)| i == x)));
        for p in &t {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rectangular_mesh_has_four_transforms() {
        let m = Mesh::new(2, 4);
        assert_eq!(symmetry_transforms(&m).len(), 4);
    }

    #[test]
    fn canonical_reduction_counts_orbits_on_4x4() {
        // Single-controller placements on a 4×4 mesh fall into 3 D4
        // orbits: corner, edge, inner.
        let m = Mesh::square(4);
        let t = symmetry_transforms(&m);
        let mut image = Vec::new();
        let canon: Vec<usize> = (0..16)
            .filter(|&i| is_canonical(&[i], &t, &mut image))
            .collect();
        assert_eq!(canon, vec![0, 1, 5]);
    }

    #[test]
    fn search_validates_inputs() {
        let mesh = Mesh::square(4);
        let inst = fig5_workload(&mesh);
        let err =
            |k: usize| co_optimize(&inst, &mesh, &PlacementOptions::new(k), sss_inner).unwrap_err();
        assert_eq!(err(0), PlacementSearchError::NoControllers);
        assert_eq!(
            err(17),
            PlacementSearchError::TooManyControllers {
                requested: 17,
                num_tiles: 16
            }
        );
        let small = Mesh::square(2);
        assert_eq!(
            co_optimize(&inst, &small, &PlacementOptions::new(1), sss_inner).unwrap_err(),
            PlacementSearchError::MeshMismatch {
                mesh_tiles: 4,
                instance_tiles: 16
            }
        );
    }

    #[test]
    fn cancelled_token_aborts_search() {
        let mesh = Mesh::square(4);
        let inst = fig5_workload(&mesh);
        let mut opts = PlacementOptions::new(1);
        opts.cancel = CancelToken::new();
        opts.cancel.cancel();
        assert_eq!(
            co_optimize(&inst, &mesh, &opts, sss_inner).unwrap_err(),
            PlacementSearchError::Cancelled
        );
    }

    #[test]
    fn exhaustive_single_mc_beats_corner_baseline() {
        // One controller on a 4×4 mesh: the corner default maximizes
        // average memory distance; the search must find a strictly
        // better (more central) tile, deterministically.
        let mesh = Mesh::square(4);
        let inst = fig5_workload(&mesh);
        let opts = PlacementOptions::new(1);
        let out = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search runs");
        assert!(out.exhaustive);
        // 3 orbit representatives: corner (= the baseline, memoized),
        // edge, inner.
        assert_eq!(out.evaluated, 3);
        assert_eq!(out.baseline_layout.controllers().tiles(), &[TileId(0)]);
        assert!(
            out.objective < out.baseline_objective,
            "search {} !< baseline {}",
            out.objective,
            out.baseline_objective
        );
        assert!(out.gain_pct() > 0.0);
        // Reproducible: same options, same outcome.
        let again = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search runs");
        assert_eq!(again.layout.controllers(), out.layout.controllers());
        assert_eq!(again.objective, out.objective);
        assert_eq!(again.mapping, out.mapping);
    }

    #[test]
    fn annealed_mode_never_loses_to_baseline() {
        let mesh = Mesh::square(4);
        let inst = fig5_workload(&mesh);
        let mut opts = PlacementOptions::new(2);
        opts.mode = SearchMode::Annealed { iterations: 40 };
        let out = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search runs");
        assert!(!out.exhaustive);
        assert!(out.objective <= out.baseline_objective);
        assert!(out.evaluated <= 41 + 1); // memoization caps inner solves
        let again = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search runs");
        assert_eq!(again.layout.controllers(), out.layout.controllers());
        assert_eq!(again.objective, out.objective);
    }

    #[test]
    fn annealed_mode_with_a_controller_on_every_tile_returns_the_baseline() {
        // k == n leaves no free tile to move a controller to, so a
        // proposal could never draw an unoccupied destination.
        let mesh = Mesh::square(4);
        let inst = fig5_workload(&mesh);
        let mut opts = PlacementOptions::new(16);
        opts.mode = SearchMode::Annealed { iterations: 5 };
        let out = co_optimize(&inst, &mesh, &opts, sss_inner).expect("search runs");
        assert!(!out.exhaustive);
        assert_eq!(out.evaluated, 1);
        assert_eq!(out.layout.controllers(), out.baseline_layout.controllers());
        assert_eq!(out.objective, out.baseline_objective);
        assert_eq!(out.mapping, out.baseline_mapping);
    }

    #[test]
    fn baseline_placement_is_deterministic_and_extends() {
        let m = Mesh::square(4);
        assert_eq!(baseline_placement(&m, 1), vec![TileId(0)]);
        assert_eq!(
            baseline_placement(&m, 4),
            vec![TileId(0), TileId(3), TileId(12), TileId(15)]
        );
        let six = baseline_placement(&m, 6);
        assert_eq!(six.len(), 6);
        assert!(six.windows(2).all(|w| w[0] < w[1]));
    }
}
