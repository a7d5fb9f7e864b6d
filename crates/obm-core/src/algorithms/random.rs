//! Uniformly random mapping — the baseline population of the paper's
//! Table 1 ("Random" column is the average over >10⁴ random mappings).

use crate::algorithms::Mapper;
use crate::problem::{Mapping, ObmInstance};
use noc_model::TileId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Draws one uniformly random injective mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomMapper;

/// Reusable buffers for [`RandomMapper::draw_into`]: the shuffled tile
/// list and the duplicate check's seen-flags.
#[derive(Debug, Clone, Default)]
pub struct DrawScratch {
    tiles: Vec<TileId>,
    seen: Vec<bool>,
}

impl RandomMapper {
    /// Draw a random mapping using an existing RNG (used by Monte-Carlo
    /// and simulated annealing for their initial states).
    pub fn draw(inst: &ObmInstance, rng: &mut SmallRng) -> Mapping {
        let mut out = Mapping::identity(0);
        RandomMapper::draw_into(inst, rng, &mut DrawScratch::default(), &mut out);
        out
    }

    /// [`draw`](Self::draw) into an existing mapping, reusing its buffer
    /// and `scratch`: no allocation once both have grown to the
    /// instance's size. Consumes exactly the RNG draws `draw` does and
    /// yields the same mapping.
    ///
    /// # Panics
    /// Panics if the drawn assignment repeats a tile (a broken shuffle).
    pub fn draw_into(
        inst: &ObmInstance,
        rng: &mut SmallRng,
        scratch: &mut DrawScratch,
        out: &mut Mapping,
    ) {
        let n = inst.num_tiles();
        scratch.tiles.clear();
        scratch.tiles.extend((0..n).map(TileId));
        scratch.tiles.shuffle(rng);
        let drawn = &scratch.tiles[..inst.num_threads()];
        if let Err(e) = out.refill(drawn, n, &mut scratch.seen) {
            panic!("RandomMapper::draw_into: {e}");
        }
    }

    /// Estimate the random-mapping averages (g-APL, max-APL, dev-APL) over
    /// `samples` draws — the "Random" row of Table 1.
    ///
    /// Scoring fans out over the host's cores via
    /// [`BatchEvaluator::eval_many_parallel`], whose fixed-chunk contract
    /// makes the reports — and therefore these averages — bit-identical
    /// at any worker count (including the serial path).
    ///
    /// [`BatchEvaluator::eval_many_parallel`]: crate::batch::BatchEvaluator::eval_many_parallel
    pub fn averages(inst: &ObmInstance, samples: usize, seed: u64) -> RandomAverages {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RandomMapper::averages_with_workers(inst, samples, seed, workers)
    }

    /// [`averages`](Self::averages) with an explicit worker count
    /// (bit-identical for any count by the evaluator's fixed-chunk
    /// contract).
    pub fn averages_with_workers(
        inst: &ObmInstance,
        samples: usize,
        seed: u64,
        workers: usize,
    ) -> RandomAverages {
        assert!(samples > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Draw the whole population up front and score it through the
        // batch evaluator (same draws, same report bits as the old
        // one-evaluate-per-draw loop).
        let mut scratch = DrawScratch::default();
        let pool: Vec<Mapping> = (0..samples)
            .map(|_| {
                let mut m = Mapping::identity(0);
                RandomMapper::draw_into(inst, &mut rng, &mut scratch, &mut m);
                m
            })
            .collect();
        let be = crate::batch::BatchEvaluator::new(inst);
        let reports = be.eval_many_parallel(&pool, workers);
        let mut sum_g = 0.0;
        let mut sum_max = 0.0;
        let mut sum_dev = 0.0;
        // Reports come back in pool order whatever the worker count, so
        // the ascending-sample summation order (and its f64 rounding) is
        // unchanged from the serial slab loop it replaces.
        for r in &reports {
            sum_g += r.g_apl;
            sum_max += r.max_apl;
            sum_dev += r.dev_apl;
        }
        let n = samples as f64;
        RandomAverages {
            samples,
            mean_g_apl: sum_g / n,
            mean_max_apl: sum_max / n,
            mean_dev_apl: sum_dev / n,
        }
    }
}

impl Mapper for RandomMapper {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        let mut rng = SmallRng::seed_from_u64(seed);
        RandomMapper::draw(inst, &mut rng)
    }
}

/// Averages of the evaluation metrics over `samples` random mappings —
/// the "Random" row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomAverages {
    pub samples: usize,
    pub mean_g_apl: f64,
    pub mean_max_apl: f64,
    pub mean_dev_apl: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn inst() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..16).map(|j| 0.1 * (j + 1) as f64).collect();
        ObmInstance::new(tiles, vec![0, 8, 16], c, vec![0.01; 16])
    }

    #[test]
    fn random_mapping_is_valid_and_seeded() {
        let inst = inst();
        let a = RandomMapper.map(&inst, 1);
        let b = RandomMapper.map(&inst, 1);
        let c = RandomMapper.map(&inst, 2);
        assert!(a.is_valid_for(&inst));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn averages_are_finite_and_ordered() {
        let inst = inst();
        let avg = RandomMapper::averages(&inst, 200, 3);
        assert!(avg.mean_g_apl > 0.0);
        assert!(avg.mean_max_apl >= avg.mean_g_apl); // max ≥ weighted mean
        assert!(avg.mean_dev_apl >= 0.0);
    }

    #[test]
    fn averages_are_worker_count_invariant() {
        let inst = inst();
        // 600 samples > 2 × PAR_CHUNK, so the parallel path actually
        // engages; the fixed-chunk contract must keep every worker count
        // bit-identical to the serial evaluation.
        let serial = RandomMapper::averages_with_workers(&inst, 600, 11, 1);
        for workers in [2, 3, 8] {
            let par = RandomMapper::averages_with_workers(&inst, 600, 11, workers);
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn fewer_threads_than_tiles() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 5], vec![1.0; 5], vec![0.0; 5]);
        let m = RandomMapper.map(&inst, 9);
        assert!(m.is_valid_for(&inst));
        assert_eq!(m.num_threads(), 5);
    }
}
