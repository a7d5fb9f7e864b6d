//! APL evaluation: per-application average packet latency (Eq. 5), the
//! min-max objective (Eq. 6–7), and the evaluation metrics g-APL / max-APL /
//! dev-APL used throughout the paper's Section V.
//!
//! [`evaluate`] computes a full report from scratch in `O(N)`.
//! [`IncrementalEvaluator`] maintains per-application latency numerators so
//! that the sliding-window search of the SSS algorithm can try a window
//! permutation in `O(window)` instead of `O(N)`; its
//! [`best_window_permutation`](IncrementalEvaluator::best_window_permutation)
//! scores a whole window's permutations from one block of costs.

use crate::problem::{Mapping, ObmInstance};
use noc_model::TileId;
use noc_telemetry::{Probe, SolverEvent};

/// Full latency report for a mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AplReport {
    /// Per-application APL `d_i` (Eq. 5), in cycles.
    pub per_app: Vec<f64>,
    /// The OBM objective: `max_i w_i·d_i` (Eq. 6; weights are all 1 in
    /// the paper's formulation, making this `max_i d_i`).
    pub max_apl: f64,
    /// `min_i d_i`.
    pub min_apl: f64,
    /// Index of the application attaining the maximum.
    pub argmax: usize,
    /// Population standard deviation of the `d_i` (the paper's dev-APL).
    pub dev_apl: f64,
    /// Global APL: total packet latency ÷ total communication volume
    /// (the paper's g-APL).
    pub g_apl: f64,
}

/// Evaluate a mapping from scratch.
///
/// # Panics
/// Panics (debug) if the mapping is not valid for the instance.
pub fn evaluate(inst: &ObmInstance, mapping: &Mapping) -> AplReport {
    debug_assert!(mapping.is_valid_for(inst), "invalid mapping");
    let a = inst.num_apps();
    let mut per_app = Vec::with_capacity(a);
    let mut total_num = 0.0;
    for i in 0..a {
        let num: f64 = inst
            .app_threads(i)
            .map(|j| inst.placement_cost(j, mapping.tile_of(j)))
            .sum();
        total_num += num;
        per_app.push(num / inst.app_volume(i));
    }
    summarize(inst, per_app, total_num)
}

pub(crate) fn summarize(inst: &ObmInstance, per_app: Vec<f64>, total_num: f64) -> AplReport {
    let (mut max_apl, mut min_apl, mut argmax) = (f64::NEG_INFINITY, f64::INFINITY, 0);
    for (i, &d) in per_app.iter().enumerate() {
        let weighted = inst.app_weight(i) * d;
        if weighted > max_apl {
            max_apl = weighted;
            argmax = i;
        }
        min_apl = min_apl.min(d);
    }
    let mean = per_app.iter().sum::<f64>() / per_app.len() as f64;
    let dev_apl =
        (per_app.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / per_app.len() as f64).sqrt();
    AplReport {
        per_app,
        max_apl,
        min_apl,
        argmax,
        dev_apl,
        g_apl: total_num / inst.total_volume(),
    }
}

/// The min-max objective `max_i w_i·(num_i / volume_i)` over
/// per-application latency numerators, volumes and weights (equal
/// lengths), or −∞ for no applications. It is what
/// [`IncrementalEvaluator::max_apl`] computes on every SA move; the SSS
/// window kernel folds the same compare over a window's applications.
///
/// A plain compare, as in [`evaluate`], rather than a fold over
/// `f64::max`, whose NaN handling costs a fix-up per application. Both
/// skip NaN and agree bit for bit on every input except which zero they
/// return when the maximum is ±0, and a −0.0 APL cannot arise: numerators
/// start as sums of non-negative costs (DESIGN.md §13.7).
#[inline]
pub fn weighted_max_apl(num: &[f64], volume: &[f64], weight: &[f64]) -> f64 {
    debug_assert!(num.len() == volume.len() && num.len() == weight.len());
    let mut max = f64::NEG_INFINITY;
    for ((&n, &v), &w) in num.iter().zip(volume).zip(weight) {
        let x = w * (n / v);
        if x > max {
            max = x;
        }
    }
    max
}

/// Maintains per-application latency numerators for a mapping under
/// incremental edits. All query methods are `O(A)` or better; all edits are
/// `O(1)` per thread moved.
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'a> {
    inst: &'a ObmInstance,
    /// The instance's flat SoA tables: cost probes are one indexed load
    /// and thread→app lookups are O(1), instead of recomputing Eq. (13)
    /// and binary-searching the boundary vector per edit.
    tables: &'a crate::batch::EvalTables,
    mapping: Mapping,
    /// tile → thread inverse view.
    inverse: Vec<Option<usize>>,
    /// Per-application latency numerators.
    app_num: Vec<f64>,
    /// Count of effective edits (moves, swaps, window permutations) since
    /// construction — exposed for solver telemetry.
    edits: u64,
    /// Reused staging buffer for window occupants, so a window
    /// permutation allocates nothing once it has grown to the window.
    window_scratch: Vec<Option<usize>>,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Build from an instance and an initial mapping.
    pub fn new(inst: &'a ObmInstance, mapping: Mapping) -> Self {
        assert!(mapping.is_valid_for(inst), "invalid mapping");
        let tables = inst.eval_tables();
        let inverse = mapping.tile_to_thread(inst.num_tiles());
        let app_num = (0..inst.num_apps())
            .map(|i| {
                inst.app_threads(i)
                    .map(|j| tables.cost(j, mapping.tile_of(j).index()))
                    .sum()
            })
            .collect();
        IncrementalEvaluator {
            inst,
            tables,
            mapping,
            inverse,
            app_num,
            edits: 0,
            window_scratch: Vec::new(),
        }
    }

    /// Number of effective edits applied since construction. A
    /// [`move_thread`](Self::move_thread) to the current tile, a
    /// [`swap_tiles`](Self::swap_tiles) of two empty (or identical) tiles,
    /// and other no-ops do not count.
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// Emit a [`SolverEvent::EvalDelta`] describing the evaluator's current
    /// state: cumulative edit count, the current objective, and the
    /// caller-supplied `delta` (objective change attributed to the most
    /// recent batch of edits).
    pub fn emit_delta(&self, probe: &mut dyn Probe, delta: f64) {
        probe.on_solver_event(&SolverEvent::EvalDelta {
            edits: self.edits,
            objective: self.max_apl(),
            delta,
        });
    }

    /// The instance this evaluator scores.
    pub fn instance(&self) -> &'a ObmInstance {
        self.inst
    }

    /// Current mapping (borrowed).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Consume the evaluator, returning the final mapping.
    pub fn into_mapping(self) -> Mapping {
        self.mapping
    }

    /// Thread currently on `tile`, if any.
    #[inline]
    pub fn thread_on(&self, tile: TileId) -> Option<usize> {
        self.inverse[tile.index()]
    }

    /// APL of application `i`.
    ///
    /// Deliberately a division, not a multiply by the precomputed
    /// [`ObmInstance::inv_app_volume`]: the reciprocal form differs by
    /// ≤1 ulp, and SA's accept test (`delta <= 0.0`) short-circuits the
    /// RNG draw, so a single flipped ulp desynchronizes the RNG stream
    /// and changes the whole trajectory (measured: the SA 5k-iteration
    /// goldens diverge under the reciprocal). The batch evaluator keeps
    /// the division for the same reason; the precomputed reciprocals are
    /// exposed via [`EvalTables`](crate::EvalTables) for consumers
    /// without a bit-identity contract. See DESIGN.md §13.
    #[inline]
    pub fn app_apl(&self, i: usize) -> f64 {
        self.app_num[i] / self.inst.app_volume(i)
    }

    /// Current objective value `max_i w_i·d_i` (Eq. 6; plain max-APL for
    /// unit weights): [`weighted_max_apl`] over the numerators.
    #[inline]
    pub fn max_apl(&self) -> f64 {
        weighted_max_apl(&self.app_num, self.tables.volumes(), self.tables.weights())
    }

    /// Sum of all applications' latency numerators (the g-APL numerator).
    pub fn total_latency(&self) -> f64 {
        self.app_num.iter().sum()
    }

    /// Current full report.
    pub fn report(&self) -> AplReport {
        let per_app: Vec<f64> = (0..self.inst.num_apps()).map(|i| self.app_apl(i)).collect();
        let total: f64 = self.app_num.iter().sum();
        summarize(self.inst, per_app, total)
    }

    /// Move thread `j` to `tile`.
    ///
    /// # Panics
    /// Panics (debug) if the tile is occupied by a different thread.
    pub fn move_thread(&mut self, j: usize, tile: TileId) {
        let old = self.mapping.tile_of(j);
        if old == tile {
            return;
        }
        debug_assert!(self.inverse[tile.index()].is_none(), "target tile occupied");
        let app = self.tables.app_of(j);
        self.app_num[app] += self.tables.cost(j, tile.index()) - self.tables.cost(j, old.index());
        self.inverse[old.index()] = None;
        self.inverse[tile.index()] = Some(j);
        self.mapping.set_tile(j, tile);
        self.edits += 1;
    }

    /// Exchange the contents of two tiles (threads, or a thread and a
    /// hole). No-op if both are empty.
    pub fn swap_tiles(&mut self, a: TileId, b: TileId) {
        if a == b {
            return;
        }
        let ta = self.inverse[a.index()];
        let tb = self.inverse[b.index()];
        match (ta, tb) {
            (Some(ja), Some(jb)) => {
                let (ia, ib) = (self.tables.app_of(ja), self.tables.app_of(jb));
                self.app_num[ia] +=
                    self.tables.cost(ja, b.index()) - self.tables.cost(ja, a.index());
                self.app_num[ib] +=
                    self.tables.cost(jb, a.index()) - self.tables.cost(jb, b.index());
                self.mapping.set_tile(ja, b);
                self.mapping.set_tile(jb, a);
                self.inverse[a.index()] = Some(jb);
                self.inverse[b.index()] = Some(ja);
                self.edits += 1;
            }
            (Some(ja), None) => self.move_thread(ja, b),
            (None, Some(jb)) => self.move_thread(jb, a),
            (None, None) => {}
        }
    }

    /// Largest window [`best_window_permutation`](Self::best_window_permutation)
    /// scores: its cost block lives in fixed-size stack arrays.
    pub const MAX_WINDOW: usize = 6;

    /// Try every candidate permutation of the window `tiles` and apply
    /// the one with the smallest objective, if it beats the current one
    /// by more than 1e-12 (so the current arrangement wins ties and the
    /// search never churns). `perms` holds the candidates flattened
    /// row-major, `tiles.len()` slots per row, in the convention of
    /// [`apply_window_permutation`](Self::apply_window_permutation).
    /// Returns `Some((new objective, objective delta))` when a
    /// permutation was kept, `None` otherwise.
    ///
    /// Each candidate is scored from the window's starting numerators,
    /// bit for bit what `apply_window_permutation(perm)` then
    /// [`max_apl`](Self::max_apl) gives on a clone, so no candidate
    /// depends on another and only the kept one changes the evaluator.
    /// The occupants and a `w × w` block of their costs on the window's
    /// tiles are loaded once. A window whose untouched applications
    /// already hold the objective within 1e-12 is skipped: no candidate
    /// can lower it. `edits` grows by 2 per candidate, skipped or not.
    ///
    /// # Panics
    /// Panics if the window is longer than [`MAX_WINDOW`](Self::MAX_WINDOW).
    pub fn best_window_permutation(
        &mut self,
        tiles: &[TileId],
        perms: &[usize],
    ) -> Option<(f64, f64)> {
        const W: usize = IncrementalEvaluator::MAX_WINDOW;
        let w = tiles.len();
        assert!(w <= W, "window of {w} tiles exceeds {W}");
        let candidates = perms.chunks_exact(w);
        self.edits += 2 * candidates.len() as u64;
        // apps[..touched]: the window's distinct applications; slot[s]:
        // the index into them of slot s's occupant (None = hole);
        // cost[s][q]: that occupant's cost on tiles[q].
        let (mut apps, mut touched) = ([0; W], 0);
        let mut slot = [None; W];
        let mut cost = [[0.0; W]; W];
        for (s, t) in tiles.iter().enumerate() {
            if let Some(j) = self.inverse[t.index()] {
                let a = self.tables.app_of(j);
                let k = apps[..touched].iter().position(|&x| x == a);
                slot[s] = Some(k.unwrap_or_else(|| {
                    apps[touched] = a;
                    touched += 1;
                    touched - 1
                }));
                for (c, tq) in cost[s].iter_mut().zip(tiles) {
                    *c = self.tables.cost(j, tq.index());
                }
            }
        }
        let apps = &apps[..touched];
        // rest: the objective over the applications no candidate moves.
        let (volumes, weights) = (self.tables.volumes(), self.tables.weights());
        let mut rest = f64::NEG_INFINITY;
        for (i, ((&n, &v), &wt)) in self.app_num.iter().zip(volumes).zip(weights).enumerate() {
            let x = wt * (n / v);
            if x > rest && !apps.contains(&i) {
                rest = x;
            }
        }
        let start_val = self.max_apl();
        // Every candidate scores at least `rest`, so none can pass the
        // `val + 1e-12 < best_val` test below. Neither side is NaN: both
        // folds skip NaN and start from −∞.
        if rest + 1e-12 >= start_val {
            return None;
        }
        // Detach every occupant in slot order, as apply does; the
        // candidates differ only in how they attach.
        let (mut detached, mut volume, mut weight) = ([0.0; W], [1.0; W], [1.0; W]);
        for (k, &a) in apps.iter().enumerate() {
            (detached[k], volume[k], weight[k]) = (self.app_num[a], volumes[a], weights[a]);
        }
        for (s, k) in slot[..w].iter().enumerate() {
            if let Some(k) = *k {
                detached[k] -= cost[s][s];
            }
        }
        let mut best_val = start_val;
        let mut best_perm: Option<&[usize]> = None;
        for perm in candidates {
            // attach occupant perm[s] to slot s, in slot order
            let mut num = detached;
            for (s, &p) in perm.iter().enumerate() {
                if let Some(k) = slot[p] {
                    num[k] += cost[p][s];
                }
            }
            let mut val = rest;
            for ((&n, &v), &wt) in num[..touched].iter().zip(&volume).zip(&weight) {
                let x = wt * (n / v);
                if x > val {
                    val = x;
                }
            }
            if val + 1e-12 < best_val {
                best_val = val;
                best_perm = Some(perm);
            }
        }
        let perm = best_perm?;
        self.apply_window_permutation(tiles, perm);
        Some((best_val, best_val - start_val))
    }

    /// Apply a permutation of the threads currently occupying `tiles`:
    /// after the call, the occupant that was on `tiles[perm[s]]` sits on
    /// `tiles[s]`. Used by the sliding-window search.
    pub fn apply_window_permutation(&mut self, tiles: &[TileId], perm: &[usize]) {
        debug_assert_eq!(tiles.len(), perm.len());
        let mut occupants = std::mem::take(&mut self.window_scratch);
        occupants.clear();
        occupants.extend(tiles.iter().map(|t| self.inverse[t.index()]));
        // Detach all first to avoid transient duplicate occupancy.
        for (&occ, &t) in occupants.iter().zip(tiles) {
            if let Some(j) = occ {
                let app = self.tables.app_of(j);
                self.app_num[app] -= self.tables.cost(j, t.index());
                self.inverse[t.index()] = None;
            }
        }
        for (&t, &p) in tiles.iter().zip(perm) {
            if let Some(j) = occupants[p] {
                let app = self.tables.app_of(j);
                self.app_num[app] += self.tables.cost(j, t.index());
                self.inverse[t.index()] = Some(j);
                self.mapping.set_tile(j, t);
            }
        }
        self.window_scratch = occupants;
        self.edits += 1;
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
    use proptest::prelude::*;

    fn instance(c: &[f64]) -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tl, vec![0, 8, 16], c.to_vec(), m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fuzz the incremental evaluator: an arbitrary sequence of tile
        /// swaps and window permutations must stay bit-consistent with
        /// from-scratch evaluation.
        #[test]
        fn incremental_consistent_under_random_ops(
            c in proptest::collection::vec(0.05f64..8.0, 16),
            ops in proptest::collection::vec((0usize..16, 0usize..16, 0usize..24), 1..60),
        ) {
            let inst = instance(&c);
            let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
            let perms = &crate::algorithms::PERMS4;
            for (i, (a, b, p)) in ops.iter().enumerate() {
                if i % 3 == 2 {
                    // window permutation over 4 distinct tiles derived
                    // from (a, b)
                    let tiles = [
                        noc_model::TileId(*a),
                        noc_model::TileId((*a + 5) % 16),
                        noc_model::TileId((*b + 9) % 16),
                        noc_model::TileId((*b + 13) % 16),
                    ];
                    let distinct = tiles
                        .iter()
                        .collect::<std::collections::HashSet<_>>()
                        .len();
                    if distinct == 4 {
                        ev.apply_window_permutation(&tiles, &perms[*p]);
                    }
                } else {
                    ev.swap_tiles(noc_model::TileId(*a), noc_model::TileId(*b));
                }
                let scratch = evaluate(&inst, ev.mapping());
                prop_assert!((scratch.max_apl - ev.max_apl()).abs() < 1e-9);
                prop_assert!(
                    (scratch.g_apl * inst.total_volume() - ev.total_latency()).abs() < 1e-6
                );
                prop_assert!(ev.mapping().is_valid_for(&inst));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    /// The paper's Figure 5 example: 4×4 mesh, four 4-thread apps with
    /// cache rates .1/.2/.3/.4 and no memory traffic.
    pub(crate) fn fig5_instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        let m = vec![0.0; 16];
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, m)
    }

    /// An optimal Figure 5(a)-style mapping: within each app, the 0.1-rate
    /// thread goes to a corner, 0.2/0.3 to edges, 0.4 to a center tile.
    fn fig5_good_mapping(inst: &ObmInstance) -> Mapping {
        let tl = inst.tiles();
        // classify tiles by TC value
        let mut corners = vec![];
        let mut edges = vec![];
        let mut centers = vec![];
        for k in 0..16 {
            let t = TileId(k);
            let tc = tl.tc(t);
            if (tc - 12.9375).abs() < 1e-9 {
                corners.push(t);
            } else if (tc - 10.9375).abs() < 1e-9 {
                edges.push(t);
            } else {
                centers.push(t);
            }
        }
        assert_eq!((corners.len(), edges.len(), centers.len()), (4, 8, 4));
        let mut assign = vec![TileId(0); 16];
        for app in 0..4 {
            assign[app * 4] = corners[app]; // rate .1
            assign[app * 4 + 1] = edges[2 * app]; // rate .2
            assign[app * 4 + 2] = edges[2 * app + 1]; // rate .3
            assign[app * 4 + 3] = centers[app]; // rate .4
        }
        Mapping::new(assign)
    }

    /// A "balanced but bad" Figure 5(b)-style mapping: rates reversed
    /// (0.4 on corners, 0.1 on centers).
    fn fig5_bad_mapping(inst: &ObmInstance) -> Mapping {
        let good = fig5_good_mapping(inst);
        let mut assign = vec![TileId(0); 16];
        for app in 0..4 {
            assign[app * 4] = good.tile_of(app * 4 + 3);
            assign[app * 4 + 1] = good.tile_of(app * 4 + 2);
            assign[app * 4 + 2] = good.tile_of(app * 4 + 1);
            assign[app * 4 + 3] = good.tile_of(app * 4);
        }
        Mapping::new(assign)
    }

    #[test]
    fn fig5_exact_apls() {
        // The paper's printed values: 10.3375 cycles for the optimal
        // mapping, 11.5375 for the equal-but-bad one.
        let inst = fig5_instance();
        let good = evaluate(&inst, &fig5_good_mapping(&inst));
        for &d in &good.per_app {
            assert!((d - 10.3375).abs() < 1e-9, "good APL {d}");
        }
        assert!(good.dev_apl < 1e-9);
        let bad = evaluate(&inst, &fig5_bad_mapping(&inst));
        for &d in &bad.per_app {
            assert!((d - 11.5375).abs() < 1e-9, "bad APL {d}");
        }
        assert!(bad.dev_apl < 1e-9);
        // Both are perfectly "balanced" by dev-APL / min-to-max, yet one is
        // 1.2 cycles worse — the paper's argument for the max-APL metric.
        assert!(bad.max_apl > good.max_apl);
    }

    #[test]
    fn report_fields_consistent() {
        let inst = fig5_instance();
        let m = Mapping::identity(16);
        let r = evaluate(&inst, &m);
        assert_eq!(r.per_app.len(), 4);
        let max = r.per_app.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = r.per_app.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(r.max_apl, max);
        assert_eq!(r.min_apl, min);
        assert_eq!(r.per_app[r.argmax], r.max_apl);
        assert!(r.g_apl > 0.0);
        // g-APL is the volume-weighted mean of per-app APLs.
        let weighted: f64 = (0..4)
            .map(|i| r.per_app[i] * inst.app_volume(i))
            .sum::<f64>()
            / inst.total_volume();
        assert!((r.g_apl - weighted).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_scratch_after_swaps() {
        let inst = fig5_instance();
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
        // A few tile swaps, cross-checking against from-scratch evaluation.
        let swaps = [(0usize, 5usize), (3, 12), (7, 7), (1, 15), (0, 3)];
        for &(a, b) in &swaps {
            ev.swap_tiles(TileId(a), TileId(b));
            let scratch = evaluate(&inst, ev.mapping());
            let inc = ev.report();
            for i in 0..4 {
                assert!(
                    (scratch.per_app[i] - inc.per_app[i]).abs() < 1e-9,
                    "app {i} diverged after swap ({a},{b})"
                );
            }
            assert!((scratch.max_apl - inc.max_apl).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_window_permutation_matches_scratch() {
        let inst = fig5_instance();
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
        let tiles = [TileId(0), TileId(4), TileId(8), TileId(12)];
        let perm = [2usize, 0, 3, 1];
        ev.apply_window_permutation(&tiles, &perm);
        let scratch = evaluate(&inst, ev.mapping());
        let inc = ev.report();
        assert!((scratch.max_apl - inc.max_apl).abs() < 1e-9);
        // Thread formerly on tiles[2]=8 must now be on tiles[0]=0.
        assert_eq!(ev.thread_on(TileId(0)), Some(8));
    }

    #[test]
    fn window_permutation_with_holes() {
        // Instance with 3 threads on 4 tiles: one window slot is a hole.
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 3], vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]);
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(3));
        assert_eq!(ev.thread_on(TileId(3)), None);
        let window = [TileId(0), TileId(1), TileId(2), TileId(3)];
        // rotate: slot s takes occupant of slot s+1
        ev.apply_window_permutation(&window, &[1, 2, 3, 0]);
        assert_eq!(ev.thread_on(TileId(0)), Some(1));
        assert_eq!(ev.thread_on(TileId(1)), Some(2));
        assert_eq!(ev.thread_on(TileId(2)), None);
        assert_eq!(ev.thread_on(TileId(3)), Some(0));
        let scratch = evaluate(&inst, ev.mapping());
        assert!((scratch.max_apl - ev.max_apl()).abs() < 1e-9);
    }

    #[test]
    fn weighted_objective_prioritizes_heavy_weight_app() {
        // Weight 2 on app 0: the objective max(w_i d_i) is minimized when
        // app 0's APL is about half the others'. Check SSS responds.
        use crate::algorithms::{Mapper, SortSelectSwap};
        let inst = fig5_instance().with_app_weights(vec![2.0, 1.0, 1.0, 1.0]);
        let m = SortSelectSwap::default().map(&inst, 0);
        let r = evaluate(&inst, &m);
        assert!(
            r.per_app[0] < r.per_app[1],
            "prioritized app not faster: {:?}",
            r.per_app
        );
        // objective = max of weighted APLs
        let expect = (0..4)
            .map(|i| inst.app_weight(i) * r.per_app[i])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((r.max_apl - expect).abs() < 1e-12);
    }

    #[test]
    fn unit_weights_preserve_plain_max() {
        let inst = fig5_instance();
        assert!(!inst.is_weighted());
        let r = evaluate(&inst, &Mapping::identity(16));
        let plain = r.per_app.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.max_apl, plain);
    }

    #[test]
    fn move_thread_to_hole() {
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 2], vec![1.0, 2.0], vec![0.1, 0.2]);
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(2));
        ev.move_thread(0, TileId(3));
        assert_eq!(ev.mapping().tile_of(0), TileId(3));
        let scratch = evaluate(&inst, ev.mapping());
        assert!((scratch.max_apl - ev.max_apl()).abs() < 1e-12);
    }

    #[test]
    fn edits_counter_counts_effective_edits_only() {
        let inst = fig5_instance();
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
        assert_eq!(ev.edits(), 0);
        ev.swap_tiles(TileId(3), TileId(3)); // same tile: no-op
        ev.move_thread(0, TileId(0)); // already there: no-op
        assert_eq!(ev.edits(), 0);
        ev.swap_tiles(TileId(0), TileId(5));
        assert_eq!(ev.edits(), 1);
        ev.apply_window_permutation(
            &[TileId(0), TileId(4), TileId(8), TileId(12)],
            &[1, 2, 3, 0],
        );
        assert_eq!(ev.edits(), 2);
    }

    #[test]
    #[should_panic(expected = "window of 7 tiles exceeds 6")]
    fn window_kernel_rejects_oversized_windows() {
        let inst = fig5_instance();
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
        let tiles: Vec<TileId> = (0..7).map(TileId).collect();
        ev.best_window_permutation(&tiles, &[]);
    }

    #[test]
    fn swap_into_hole_counts_one_edit() {
        // 2 threads on 4 tiles: a swap delegating through move_thread must
        // count exactly once; swapping two holes not at all.
        let mesh = Mesh::square(2);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 2], vec![1.0, 2.0], vec![0.1, 0.2]);
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(2));
        ev.swap_tiles(TileId(0), TileId(3)); // thread ↔ hole: one edit
        assert_eq!(ev.edits(), 1);
        ev.swap_tiles(TileId(0), TileId(2)); // hole ↔ hole: no edit
        assert_eq!(ev.edits(), 1);
    }

    #[test]
    fn emit_delta_reports_edits_and_objective() {
        use noc_telemetry::RingSink;
        let inst = fig5_instance();
        let mut ev = IncrementalEvaluator::new(&inst, Mapping::identity(16));
        ev.swap_tiles(TileId(1), TileId(14));
        let mut sink = RingSink::new(8);
        ev.emit_delta(&mut sink, -0.25);
        let events: Vec<_> = sink.solver_events().collect();
        assert_eq!(events.len(), 1);
        match events[0] {
            SolverEvent::EvalDelta {
                edits,
                objective,
                delta,
            } => {
                assert_eq!(*edits, 1);
                assert!((objective - ev.max_apl()).abs() < 1e-12);
                assert_eq!(*delta, -0.25);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
