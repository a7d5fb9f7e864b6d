//! Monte-Carlo baseline for the OBM problem: draw many random mappings and
//! keep the one with the smallest max-APL (paper §V.A, comparison
//! algorithm 2; the paper uses 10⁴ draws).
//!
//! The draws are embarrassingly parallel; they are fanned out over scoped
//! crossbeam threads with per-worker RNG streams and reduced with a plain
//! min — following the data-parallel idiom of the workspace's HPC guides
//! (no shared mutable state, deterministic given the seed).

use crate::algorithms::random::{DrawScratch, RandomMapper};
use crate::algorithms::{BudgetError, Mapper};
use crate::cancel::CancelToken;
use crate::problem::{Mapping, ObmInstance};
use noc_telemetry::{NoopSink, Probe};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Samples between [`CancelToken`] polls (power of two: mask test). A draw
/// plus evaluation is much heavier than one SA move, so MC polls more
/// often than SA without measurable cost.
const CANCEL_POLL_MASK: usize = 64 - 1;

/// Monte-Carlo search over random mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    /// Number of random mappings to draw (paper: 10⁴).
    pub samples: usize,
    /// Worker threads (1 = sequential; draws are split evenly).
    pub workers: usize,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            samples: 10_000,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
        }
    }
}

impl MonteCarlo {
    /// Sequential constructor with an explicit sample budget.
    ///
    /// # Panics
    /// Panics on a zero budget; [`try_with_samples`]
    /// (MonteCarlo::try_with_samples) is the fallible twin.
    pub fn with_samples(samples: usize) -> Self {
        match Self::try_with_samples(samples) {
            Ok(mc) => mc,
            Err(e) => panic!("MonteCarlo::with_samples: {e}"),
        }
    }

    /// Fallible constructor with an explicit sample budget (the
    /// builder-validation convention: zero budgets are rejected with a
    /// typed [`BudgetError`] instead of a panic deep inside `map`).
    pub fn try_with_samples(samples: usize) -> Result<Self, BudgetError> {
        if samples == 0 {
            return Err(BudgetError::ZeroSamples);
        }
        Ok(MonteCarlo {
            samples,
            workers: 1,
        })
    }

    /// Check the configured budget (`samples` must be at least 1, or `map`
    /// would have nothing to return).
    pub fn validate(&self) -> Result<(), BudgetError> {
        if self.samples == 0 {
            return Err(BudgetError::ZeroSamples);
        }
        Ok(())
    }

    fn best_of(
        inst: &ObmInstance,
        samples: usize,
        seed: u64,
        token: &CancelToken,
    ) -> Option<(f64, Mapping)> {
        // Draws are batched at the cancellation-poll cadence and scored
        // through the batch evaluator's objective kernel: the RNG stream,
        // poll points, best-keeping order, and objective bits all match
        // the old one-draw-one-evaluate loop exactly. The pool's mappings
        // are redrawn in place and the incumbent is copied into its own
        // buffer, so the loop allocates nothing after the first batch.
        let mut rng = SmallRng::seed_from_u64(seed);
        let be = crate::batch::BatchEvaluator::new(inst);
        let mut best: Option<(f64, Mapping)> = None;
        let mut scratch = DrawScratch::default();
        let mut pool: Vec<Mapping> = Vec::with_capacity(CANCEL_POLL_MASK + 1);
        let mut objs: Vec<f64> = Vec::with_capacity(CANCEL_POLL_MASK + 1);
        let mut drawn = 0;
        while drawn < samples {
            if token.is_cancelled() {
                return None;
            }
            let quota = (samples - drawn).min(CANCEL_POLL_MASK + 1);
            pool.resize_with(quota, || Mapping::identity(0));
            for m in &mut pool {
                RandomMapper::draw_into(inst, &mut rng, &mut scratch, m);
            }
            objs.clear();
            be.objectives_into(&pool, &mut objs);
            for (m, &v) in pool.iter().zip(&objs) {
                match &mut best {
                    Some((b, bm)) if v < *b => {
                        *b = v;
                        bm.clone_from(m);
                    }
                    Some(_) => {}
                    None => best = Some((v, m.clone())),
                }
            }
            drawn += quota;
        }
        Some(best.expect("samples > 0"))
    }
}

impl Mapper for MonteCarlo {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        self.map_cancellable(inst, seed, &CancelToken::never(), &mut NoopSink)
            .expect("a never-firing token cannot cancel the search")
    }

    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        let _ = probe; // MC emits no solver events.
        if let Err(e) = self.validate() {
            panic!("MonteCarlo::map: {e}");
        }
        let workers = self.workers.max(1).min(self.samples);
        if workers == 1 {
            return MonteCarlo::best_of(inst, self.samples, seed, token).map(|(_, m)| m);
        }
        let per = self.samples / workers;
        let extra = self.samples % workers;
        // The token is shared across workers; a fired token poisons the
        // whole draw (all-or-nothing keeps the result independent of which
        // worker was interrupted).
        let results = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let quota = per + usize::from(w < extra);
                    // Distinct, deterministic RNG stream per worker.
                    let wseed =
                        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1));
                    scope.spawn(move |_| MonteCarlo::best_of(inst, quota, wseed, token))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("MC worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("crossbeam scope");
        let mut best: Option<(f64, Mapping)> = None;
        for r in results {
            let (v, m) = r?;
            if best.as_ref().is_none_or(|(b, _)| v < *b) {
                best = Some((v, m));
            }
        }
        best.map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn inst() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..16).map(|j| 0.2 + 0.1 * (j % 4) as f64).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.02; 16])
    }

    #[test]
    fn more_samples_never_worse() {
        let inst = inst();
        let small = evaluate(&inst, &MonteCarlo::with_samples(10).map(&inst, 5)).max_apl;
        // Same seed stream prefix: 1000 samples include the first 10.
        let large = evaluate(&inst, &MonteCarlo::with_samples(1000).map(&inst, 5)).max_apl;
        assert!(large <= small + 1e-12);
    }

    #[test]
    fn beats_single_random_draw_on_average() {
        let inst = inst();
        let mc = evaluate(&inst, &MonteCarlo::with_samples(500).map(&inst, 1)).max_apl;
        let avg = RandomMapper::averages(&inst, 200, 3).mean_max_apl;
        assert!(mc < avg);
    }

    #[test]
    fn try_with_samples_rejects_zero() {
        assert_eq!(
            MonteCarlo::try_with_samples(0),
            Err(BudgetError::ZeroSamples)
        );
        assert!(MonteCarlo::try_with_samples(1).is_ok());
    }

    #[test]
    #[should_panic(expected = "sample budget must be at least 1")]
    fn with_samples_zero_panics_with_message() {
        let _ = MonteCarlo::with_samples(0);
    }

    #[test]
    fn cancelled_token_yields_none_sequential_and_parallel() {
        let inst = inst();
        let fired = CancelToken::new();
        fired.cancel();
        assert!(MonteCarlo::with_samples(100)
            .map_cancellable(&inst, 2, &fired, &mut NoopSink)
            .is_none());
        let par = MonteCarlo {
            samples: 100,
            workers: 4,
        };
        assert!(par
            .map_cancellable(&inst, 2, &fired, &mut NoopSink)
            .is_none());
        // And a quiet token matches map bit-for-bit.
        assert_eq!(
            par.map_cancellable(&inst, 2, &CancelToken::never(), &mut NoopSink),
            Some(par.map(&inst, 2))
        );
    }

    #[test]
    fn parallel_matches_quality_of_sequential() {
        let inst = inst();
        let seq = evaluate(&inst, &MonteCarlo::with_samples(400).map(&inst, 2)).max_apl;
        let par = MonteCarlo {
            samples: 400,
            workers: 4,
        };
        let parv = evaluate(&inst, &par.map(&inst, 2)).max_apl;
        // Different RNG streams, but both are 400-draw minima; they should
        // land close (loose sanity bound).
        assert!((seq - parv).abs() / seq < 0.15, "seq {seq} vs par {parv}");
    }

    #[test]
    fn deterministic_given_seed_and_workers() {
        let inst = inst();
        let cfg = MonteCarlo {
            samples: 300,
            workers: 3,
        };
        assert_eq!(cfg.map(&inst, 11), cfg.map(&inst, 11));
    }
}
