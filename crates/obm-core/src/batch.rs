//! Batched structure-of-arrays evaluation engine.
//!
//! Every solver's inner loop is Eq. (13) placement-cost arithmetic:
//! `cost(j, k) = c_j·TC(k) + m_j·TM(k)`. Computed on demand that is three
//! scattered loads plus two multiplies per probe; across a solve the same
//! `(j, k)` pairs are probed millions of times. [`EvalTables`] flattens
//! the full `N×K` cost matrix once per instance (≤ 64×64 f64 = 32 KB —
//! comfortably L1-resident) next to structure-of-arrays copies of the
//! rate vectors, the thread→application map, and per-application volume
//! reciprocals, so a probe becomes one indexed load. (The evaluator
//! paths keep the APL *division* — see DESIGN.md §13.4: the reciprocal
//! form differs by 1 ulp and would desynchronize SA's RNG stream; the
//! reciprocals serve consumers without a bit-identity contract.)
//!
//! [`BatchEvaluator`] evaluates whole candidate batches against the
//! tables. Its kernel is chunked **over mappings**: for a fixed thread
//! `j` the cost row is shared by every mapping in the chunk, and the
//! per-lane accumulators are independent, so the inner loop is branch
//! free and the additions pipeline across lanes instead of serializing
//! into one dependent chain (the autovectorization-friendly shape; the
//! throughput measured in PR 6's CHANGES.md entry is the verification).
//!
//! # Determinism contract
//!
//! * `EvalTables` stores exactly the bits `placement_cost` would compute:
//!   the same `c[j]*tc(k) + m[j]*tm(k)` expression evaluated once at
//!   build time.
//! * [`BatchEvaluator::eval_one`], [`BatchEvaluator::eval_many`] and
//!   [`BatchEvaluator::eval_many_into`] (the buffer-recycling batch
//!   entry point — zero allocations per batch in the steady state)
//!   accumulate each application's numerator in ascending thread order —
//!   the same floating-point operations in the same order as
//!   [`evaluate`](crate::evaluate) — so their reports are bit-identical
//!   to per-mapping `evaluate()`, pinned by `tests/eval_batch.rs`.
//! * [`BatchEvaluator::eval_many_parallel`] splits the batch into
//!   fixed-size chunks regardless of worker count; workers race for
//!   chunk indices but each chunk's result lands in its own slot, so the
//!   output is bit-identical for any number of workers.

use crate::eval::{summarize, AplReport};
use crate::problem::{Mapping, ObmInstance};

/// Mappings per kernel chunk. Large enough that the per-chunk setup
/// (collecting tile slices) amortizes, small enough that the `A × CHUNK`
/// accumulator block stays in L1 alongside the cost matrix.
const CHUNK: usize = 32;

/// Mappings per parallel work unit. Fixed — never derived from the worker
/// count — so the chunk boundaries (and therefore every chunk's result)
/// are identical no matter how many workers race.
const PAR_CHUNK: usize = 256;

/// Precomputed flat evaluation tables for one [`ObmInstance`] — the
/// structure-of-arrays mirror of the instance that every solver hot path
/// reads instead of recomputing Eq. (13). Built lazily once per instance
/// via [`ObmInstance::eval_tables`].
#[derive(Debug, Clone)]
pub struct EvalTables {
    num_threads: usize,
    num_tiles: usize,
    /// Flat `N×K` placement-cost matrix: `cost[j*K + k]` holds exactly
    /// the bits of `placement_cost(j, TileId(k))`.
    cost: Vec<f64>,
    /// SoA copy of the cache request rates `c_j`.
    c: Vec<f64>,
    /// SoA copy of the memory request rates `m_j`.
    m: Vec<f64>,
    /// Thread → application index (O(1) instead of a boundary search).
    app_of: Vec<u32>,
    /// Application thread boundaries (`A+1` entries).
    app_start: Vec<u32>,
    /// Per-application request volumes (the APL denominators).
    volume: Vec<f64>,
    /// Per-application `1/volume` — turns the APL division into a
    /// multiply on the most-called query path.
    inv_volume: Vec<f64>,
    /// Per-application priority weights.
    weights: Vec<f64>,
}

impl EvalTables {
    /// Build the tables from an instance. `O(N·K)` time and space.
    pub fn build(inst: &ObmInstance) -> Self {
        let n = inst.num_threads();
        let k = inst.num_tiles();
        let a = inst.num_apps();
        let mut app_of = vec![0u32; n];
        for i in 0..a {
            for j in inst.app_threads(i) {
                app_of[j] = i as u32;
            }
        }
        let mut tables = EvalTables {
            num_threads: n,
            num_tiles: k,
            cost: Vec::with_capacity(n * k),
            c: (0..n).map(|j| inst.cache_rate(j)).collect(),
            m: (0..n).map(|j| inst.mem_rate(j)).collect(),
            app_of,
            app_start: inst.boundaries().iter().map(|&b| b as u32).collect(),
            volume: (0..a).map(|i| inst.app_volume(i)).collect(),
            inv_volume: (0..a).map(|i| inst.inv_app_volume(i)).collect(),
            weights: (0..a).map(|i| inst.app_weight(i)).collect(),
        };
        tables.refill_costs(inst.tiles());
        tables
    }

    /// Recompute the cost matrix for the same threads on other tiles, in
    /// place: `cost[j*K + k] = c_j·TC(k) + m_j·TM(k)`, the expression
    /// `placement_cost` evaluates. Used by
    /// [`ObmInstance::replace_tiles`].
    pub(crate) fn refill_costs(&mut self, tiles: &noc_model::TileLatencies) {
        self.num_tiles = tiles.len();
        self.cost.clear();
        self.cost.reserve(self.num_threads * self.num_tiles);
        for j in 0..self.num_threads {
            for t in 0..self.num_tiles {
                let k = noc_model::TileId(t);
                self.cost
                    .push(self.c[j] * tiles.tc(k) + self.m[j] * tiles.tm(k));
            }
        }
    }

    /// Number of threads `N`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Number of tiles `K`.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Number of applications `A`.
    #[inline]
    pub fn num_apps(&self) -> usize {
        self.app_start.len() - 1
    }

    /// Eq. (13) cost of thread `j` on tile index `k` — one indexed load,
    /// bit-identical to [`ObmInstance::placement_cost`].
    #[inline]
    pub fn cost(&self, j: usize, k: usize) -> f64 {
        self.cost[j * self.num_tiles + k]
    }

    /// The full cost row of thread `j` (all `K` tiles).
    #[inline]
    pub fn cost_row(&self, j: usize) -> &[f64] {
        &self.cost[j * self.num_tiles..(j + 1) * self.num_tiles]
    }

    /// Application owning thread `j` (O(1) table load).
    #[inline]
    pub fn app_of(&self, j: usize) -> usize {
        self.app_of[j] as usize
    }

    /// Thread range of application `i`.
    #[inline]
    pub fn app_range(&self, i: usize) -> std::ops::Range<usize> {
        self.app_start[i] as usize..self.app_start[i + 1] as usize
    }

    /// SoA cache request rate `c_j`.
    #[inline]
    pub fn cache_rate(&self, j: usize) -> f64 {
        self.c[j]
    }

    /// SoA memory request rate `m_j`.
    #[inline]
    pub fn mem_rate(&self, j: usize) -> f64 {
        self.m[j]
    }

    /// Request volume of application `i`.
    #[inline]
    pub fn volume(&self, i: usize) -> f64 {
        self.volume[i]
    }

    /// Reciprocal volume `1/volume_i`.
    #[inline]
    pub fn inv_volume(&self, i: usize) -> f64 {
        self.inv_volume[i]
    }

    /// Priority weight of application `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Every application's request volume, in application order.
    #[inline]
    pub(crate) fn volumes(&self) -> &[f64] {
        &self.volume
    }

    /// Every application's priority weight, in application order.
    #[inline]
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Batch evaluator over an instance's [`EvalTables`].
///
/// Construction is cheap (the tables are cached on the instance); hold
/// one for the duration of a solve and feed it candidate batches.
#[derive(Debug, Clone, Copy)]
pub struct BatchEvaluator<'a> {
    inst: &'a ObmInstance,
    tables: &'a EvalTables,
}

impl<'a> BatchEvaluator<'a> {
    /// Create an evaluator for `inst`, building the instance's tables on
    /// first use.
    pub fn new(inst: &'a ObmInstance) -> Self {
        BatchEvaluator {
            inst,
            tables: inst.eval_tables(),
        }
    }

    /// The underlying tables.
    #[inline]
    pub fn tables(&self) -> &'a EvalTables {
        self.tables
    }

    /// Evaluate one mapping — bit-identical to
    /// [`evaluate`](crate::evaluate), reading the flat cost matrix
    /// instead of recomputing Eq. (13) per thread.
    pub fn eval_one(&self, mapping: &Mapping) -> AplReport {
        debug_assert!(mapping.is_valid_for(self.inst), "invalid mapping");
        let t = self.tables;
        let k = t.num_tiles;
        let tiles = mapping.as_slice();
        let a = t.num_apps();
        let mut per_app = Vec::with_capacity(a);
        let mut total_num = 0.0;
        for i in 0..a {
            let range = t.app_range(i);
            let mut num = 0.0;
            for (j, tile) in tiles[range.clone()].iter().enumerate() {
                num += t.cost[(range.start + j) * k + tile.index()];
            }
            total_num += num;
            per_app.push(num / t.volume[i]);
        }
        summarize(self.inst, per_app, total_num)
    }

    /// Evaluate a batch of mappings. Returns one report per mapping, in
    /// order, each bit-identical to what [`evaluate`](crate::evaluate)
    /// would produce. Allocating convenience wrapper over
    /// [`eval_many_into`](Self::eval_many_into) — callers evaluating
    /// batches in a loop should hold a report buffer and use that
    /// directly.
    pub fn eval_many(&self, mappings: &[Mapping]) -> Vec<AplReport> {
        let mut out = Vec::with_capacity(mappings.len());
        self.eval_many_into(mappings, &mut out);
        out
    }

    /// Evaluate a batch of mappings into a reusable report buffer.
    ///
    /// `out` is resized to `mappings.len()`; reports already present are
    /// overwritten **in place**, reusing their `per_app` allocations, so
    /// a caller that feeds successive batches through the same buffer
    /// pays zero allocations per batch in the steady state (the per-lane
    /// `Vec` malloc is the single largest cost of the allocating path —
    /// see DESIGN.md §13). Every report is bit-identical to what
    /// [`evaluate`](crate::evaluate) would produce, whether its buffers
    /// were recycled or freshly allocated.
    pub fn eval_many_into(&self, mappings: &[Mapping], out: &mut Vec<AplReport>) {
        let t = self.tables;
        let a = t.num_apps();
        let n_apps = a as f64;
        let total_volume = self.inst.total_volume();
        out.truncate(mappings.len());
        let reuse = out.len();
        out.reserve(mappings.len() - reuse);
        let mut nums = vec![0.0f64; a * CHUNK];
        let mut lanes: Vec<&[noc_model::TileId]> = Vec::with_capacity(CHUNK);
        let mut totals = [0.0f64; CHUNK];
        let mut means = [0.0f64; CHUNK];
        let mut devs = [0.0f64; CHUNK];
        for (ci, chunk) in mappings.chunks(CHUNK).enumerate() {
            self.chunk_numerators(chunk, &mut nums, &mut lanes);
            let mc = chunk.len();
            // The whole-report statistics are computed column-wise across
            // the chunk — every loop below applies, per lane, exactly the
            // scalar operation sequence of `summarize` in the same order
            // (ascending application index), so each lane's bits match the
            // per-mapping path while the compiler vectorizes across lanes.
            totals[..mc].fill(0.0);
            for i in 0..a {
                let nrow = &nums[i * mc..(i + 1) * mc];
                for (tot, &v) in totals[..mc].iter_mut().zip(nrow) {
                    *tot += v;
                }
            }
            // Numerator → per-app APL: the same `num / volume` division.
            for i in 0..a {
                let vol = t.volume[i];
                for v in &mut nums[i * mc..(i + 1) * mc] {
                    *v /= vol;
                }
            }
            means[..mc].fill(0.0);
            for i in 0..a {
                let nrow = &nums[i * mc..(i + 1) * mc];
                for (s, &d) in means[..mc].iter_mut().zip(nrow) {
                    *s += d;
                }
            }
            for s in &mut means[..mc] {
                *s /= n_apps;
            }
            devs[..mc].fill(0.0);
            for i in 0..a {
                let nrow = &nums[i * mc..(i + 1) * mc];
                for (s, (&d, &mean)) in devs[..mc].iter_mut().zip(nrow.iter().zip(&means[..mc])) {
                    let e = d - mean;
                    *s += e * e;
                }
            }
            for s in &mut devs[..mc] {
                *s = (*s / n_apps).sqrt();
            }
            for lane in 0..mc {
                let g = ci * CHUNK + lane;
                if g < reuse && out[g].per_app.len() == a {
                    // Steady-state: overwrite the recycled report in place,
                    // fusing the per-app refill with the max/min scan.
                    let r = &mut out[g];
                    let (mut max_apl, mut min_apl, mut argmax) =
                        (f64::NEG_INFINITY, f64::INFINITY, 0);
                    for (i, slot) in r.per_app.iter_mut().enumerate() {
                        let d = nums[i * mc + lane];
                        *slot = d;
                        let weighted = t.weights[i] * d;
                        if weighted > max_apl {
                            max_apl = weighted;
                            argmax = i;
                        }
                        min_apl = min_apl.min(d);
                    }
                    r.max_apl = max_apl;
                    r.min_apl = min_apl;
                    r.argmax = argmax;
                    r.dev_apl = devs[lane];
                    r.g_apl = totals[lane] / total_volume;
                } else {
                    let mut per_app = Vec::with_capacity(a);
                    let (mut max_apl, mut min_apl, mut argmax) =
                        (f64::NEG_INFINITY, f64::INFINITY, 0);
                    for i in 0..a {
                        let d = nums[i * mc + lane];
                        per_app.push(d);
                        let weighted = t.weights[i] * d;
                        if weighted > max_apl {
                            max_apl = weighted;
                            argmax = i;
                        }
                        min_apl = min_apl.min(d);
                    }
                    let report = AplReport {
                        per_app,
                        max_apl,
                        min_apl,
                        argmax,
                        dev_apl: devs[lane],
                        g_apl: totals[lane] / total_volume,
                    };
                    if g < reuse {
                        out[g] = report;
                    } else {
                        out.push(report);
                    }
                }
            }
        }
    }

    /// Compute only the objective (`max_i w_i·d_i`) for each mapping in
    /// the batch, appending into `out` without per-report allocations.
    /// Each value is bit-identical to `evaluate(inst, m).max_apl` — the
    /// fast path for Monte-Carlo candidate pools.
    pub fn objectives_into(&self, mappings: &[Mapping], out: &mut Vec<f64>) {
        let t = self.tables;
        let a = t.num_apps();
        out.reserve(mappings.len());
        let mut nums = vec![0.0f64; a * CHUNK];
        let mut lanes: Vec<&[noc_model::TileId]> = Vec::with_capacity(CHUNK);
        for chunk in mappings.chunks(CHUNK) {
            self.chunk_numerators(chunk, &mut nums, &mut lanes);
            let mc = chunk.len();
            for lane in 0..mc {
                // Mirror `summarize`'s max scan exactly (same comparison,
                // same order) so the bits match the full report.
                let mut max_apl = f64::NEG_INFINITY;
                for i in 0..a {
                    let weighted = t.weights[i] * (nums[i * mc + lane] / t.volume[i]);
                    if weighted > max_apl {
                        max_apl = weighted;
                    }
                }
                out.push(max_apl);
            }
        }
    }

    /// [`eval_many`](Self::eval_many) with an opt-in deterministic
    /// parallel path: the batch is cut into fixed [`PAR_CHUNK`]-sized
    /// chunks (independent of `workers`) that [`crate::pool::run_indexed`]
    /// scores and returns in chunk order — so the concatenated output is
    /// bit-identical at any worker count.
    pub fn eval_many_parallel(&self, mappings: &[Mapping], workers: usize) -> Vec<AplReport> {
        let chunks: Vec<&[Mapping]> = mappings.chunks(PAR_CHUNK).collect();
        crate::pool::run_indexed(workers, chunks.len(), |i| self.eval_many(chunks[i]))
            .into_iter()
            .flatten()
            .collect()
    }

    /// The chunked kernel: per-application numerators for every mapping
    /// in `chunk`, laid out `nums[i*chunk_len + lane]`.
    ///
    /// The chunk's tile assignments are first transposed into a compact
    /// `u32` buffer (`tidx[j*chunk_len + lane]`), so the hot loop reads
    /// both its index stream and its accumulators contiguously. The loop
    /// nest is (application, thread, lane): for a fixed thread the cost
    /// row is shared across lanes and each lane's accumulator is
    /// independent, so the inner loop has no branches (the `min` clamp is
    /// a no-op for valid mappings that lets the compiler drop the
    /// bounds-check) and the additions pipeline across lanes instead of
    /// serializing into one dependent chain — while each lane still sums
    /// its threads in ascending order, preserving bit-identity with the
    /// scalar path.
    fn chunk_numerators<'b>(
        &self,
        chunk: &'b [Mapping],
        nums: &mut [f64],
        lanes: &mut Vec<&'b [noc_model::TileId]>,
    ) {
        let t = self.tables;
        let a = t.num_apps();
        let k = t.num_tiles;
        let mc = chunk.len();
        lanes.clear();
        for m in chunk {
            debug_assert!(m.is_valid_for(self.inst), "invalid mapping in batch");
            lanes.push(m.as_slice());
        }
        for i in 0..a {
            let range = t.app_range(i);
            let (start, len) = (range.start, range.len());
            let nrow = &mut nums[i * mc..(i + 1) * mc];
            let mut lane0 = 0;
            // Four lanes at a time: the accumulators live in registers
            // (four independent add chains instead of one), the per-lane
            // slices are pre-cut to the app's thread span so the `jj`
            // index needs no bounds check, and the `min` clamp is a no-op
            // for valid mappings that licenses dropping the row check.
            while lane0 + 8 <= mc {
                let s0 = &lanes[lane0][start..start + len];
                let s1 = &lanes[lane0 + 1][start..start + len];
                let s2 = &lanes[lane0 + 2][start..start + len];
                let s3 = &lanes[lane0 + 3][start..start + len];
                let s4 = &lanes[lane0 + 4][start..start + len];
                let s5 = &lanes[lane0 + 5][start..start + len];
                let s6 = &lanes[lane0 + 6][start..start + len];
                let s7 = &lanes[lane0 + 7][start..start + len];
                let mut acc = [0.0f64; 8];
                for jj in 0..len {
                    let row = &t.cost[(start + jj) * k..(start + jj + 1) * k];
                    acc[0] += row[s0[jj].index().min(k - 1)];
                    acc[1] += row[s1[jj].index().min(k - 1)];
                    acc[2] += row[s2[jj].index().min(k - 1)];
                    acc[3] += row[s3[jj].index().min(k - 1)];
                    acc[4] += row[s4[jj].index().min(k - 1)];
                    acc[5] += row[s5[jj].index().min(k - 1)];
                    acc[6] += row[s6[jj].index().min(k - 1)];
                    acc[7] += row[s7[jj].index().min(k - 1)];
                }
                nrow[lane0..lane0 + 8].copy_from_slice(&acc);
                lane0 += 8;
            }
            while lane0 < mc {
                let s = &lanes[lane0][start..start + len];
                let mut acc = 0.0f64;
                for jj in 0..len {
                    let row = &t.cost[(start + jj) * k..(start + jj + 1) * k];
                    acc += row[s[jj].index().min(k - 1)];
                }
                nrow[lane0] = acc;
                lane0 += 1;
            }
        }
    }
}

// SAFETY-free Sync/Send: BatchEvaluator is just two shared references.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies};

    fn instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let c: Vec<f64> = (0..16).map(|j| 0.1 + 0.37 * (j as f64)).collect();
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 5, 11, 16], c, m)
    }

    #[test]
    fn cost_matrix_matches_placement_cost_bitwise() {
        let inst = instance();
        let t = inst.eval_tables();
        for j in 0..inst.num_threads() {
            for k in 0..inst.num_tiles() {
                assert_eq!(
                    t.cost(j, k).to_bits(),
                    inst.placement_cost(j, TileId(k)).to_bits(),
                    "cost[{j},{k}]"
                );
            }
            assert_eq!(t.cost_row(j).len(), inst.num_tiles());
            assert_eq!(t.cache_rate(j).to_bits(), inst.cache_rate(j).to_bits());
            assert_eq!(t.mem_rate(j).to_bits(), inst.mem_rate(j).to_bits());
            assert_eq!(t.app_of(j), inst.app_of_thread(j));
        }
        for i in 0..inst.num_apps() {
            assert_eq!(t.app_range(i), inst.app_threads(i));
            assert_eq!(t.volume(i).to_bits(), inst.app_volume(i).to_bits());
            assert_eq!(
                t.inv_volume(i).to_bits(),
                (1.0 / inst.app_volume(i)).to_bits()
            );
            assert_eq!(t.weight(i).to_bits(), inst.app_weight(i).to_bits());
        }
        assert_eq!(t.num_threads(), 16);
        assert_eq!(t.num_tiles(), 16);
        assert_eq!(t.num_apps(), 3);
    }

    #[test]
    fn eval_one_and_eval_many_match_scratch_bitwise() {
        use crate::algorithms::RandomMapper;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let inst = instance();
        let be = BatchEvaluator::new(&inst);
        let mut rng = SmallRng::seed_from_u64(9);
        let batch: Vec<Mapping> = (0..100)
            .map(|_| RandomMapper::draw(&inst, &mut rng))
            .collect();
        let many = be.eval_many(&batch);
        let mut objs = Vec::new();
        be.objectives_into(&batch, &mut objs);
        for ((m, r), &obj) in batch.iter().zip(&many).zip(&objs) {
            let scratch = evaluate(&inst, m);
            let one = be.eval_one(m);
            for (x, y) in scratch.per_app.iter().zip(&r.per_app) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(scratch.max_apl.to_bits(), r.max_apl.to_bits());
            assert_eq!(scratch.min_apl.to_bits(), r.min_apl.to_bits());
            assert_eq!(scratch.dev_apl.to_bits(), r.dev_apl.to_bits());
            assert_eq!(scratch.g_apl.to_bits(), r.g_apl.to_bits());
            assert_eq!(scratch.argmax, r.argmax);
            assert_eq!(scratch.max_apl.to_bits(), one.max_apl.to_bits());
            assert_eq!(scratch.max_apl.to_bits(), obj.to_bits());
        }
    }

    #[test]
    fn parallel_path_is_worker_count_invariant() {
        use crate::algorithms::RandomMapper;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let inst = instance();
        let be = BatchEvaluator::new(&inst);
        let mut rng = SmallRng::seed_from_u64(4);
        let batch: Vec<Mapping> = (0..700)
            .map(|_| RandomMapper::draw(&inst, &mut rng))
            .collect();
        let seq = be.eval_many(&batch);
        for workers in [1usize, 2, 4] {
            let par = be.eval_many_parallel(&batch, workers);
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(
                    a.max_apl.to_bits(),
                    b.max_apl.to_bits(),
                    "workers={workers}"
                );
                for (x, y) in a.per_app.iter().zip(&b.per_app) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn spare_tiles_and_single_app_batches() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 5], vec![1.0; 5], vec![0.1; 5]);
        let be = BatchEvaluator::new(&inst);
        let maps = vec![
            Mapping::identity(5),
            Mapping::new((0..5).map(|j| TileId(15 - j)).collect()),
        ];
        for (m, r) in maps.iter().zip(be.eval_many(&maps)) {
            let scratch = evaluate(&inst, m);
            assert_eq!(scratch.max_apl.to_bits(), r.max_apl.to_bits());
        }
    }
}
