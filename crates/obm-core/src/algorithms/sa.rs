//! Simulated-annealing baseline for the OBM problem (paper §V.A,
//! comparison algorithm 3).
//!
//! A "move" swaps the mapping of two randomly chosen threads (the paper's
//! definition); when the instance has spare tiles, a move may also relocate
//! a thread to a free tile. Cooling is geometric; the iteration budget is
//! the runtime knob the paper sweeps in Figure 12.

use crate::algorithms::{metropolis_accept, random::RandomMapper, BudgetError, Mapper};
use crate::cancel::CancelToken;
use crate::eval::IncrementalEvaluator;
use crate::problem::{Mapping, ObmInstance};
use noc_model::TileId;
use noc_telemetry::{NoopSink, Probe, SolverEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of [`SolverEvent::TemperatureStep`] checkpoints emitted over a
/// probed run: one every `iterations / SA_CHECKPOINTS` iterations (at
/// least one iteration apart), keeping the telemetry volume independent
/// of the iteration budget.
const SA_CHECKPOINTS: usize = 64;

/// Iterations between [`CancelToken`] polls (power of two so the check
/// compiles to a mask test; ~1k keeps cancellation latency in the tens of
/// microseconds without measurable hot-loop cost).
const CANCEL_POLL_MASK: usize = 1024 - 1;

/// Simulated annealing over thread-swap moves, minimizing max-APL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Total number of proposed moves (per restart).
    pub iterations: usize,
    /// Independent restarts (run in parallel; the best final mapping
    /// wins). 1 = the paper's plain SA.
    pub restarts: usize,
    /// Initial temperature as a fraction of the initial max-APL
    /// (self-scaling keeps the schedule meaningful across instances).
    pub initial_temp_fraction: f64,
    /// Final temperature as a fraction of the initial temperature.
    pub final_temp_fraction: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iterations: 100_000,
            restarts: 1,
            initial_temp_fraction: 0.05,
            final_temp_fraction: 1e-4,
        }
    }
}

impl SimulatedAnnealing {
    /// Constructor with an explicit iteration budget.
    ///
    /// # Panics
    /// Panics on a zero budget; [`try_with_iterations`]
    /// (SimulatedAnnealing::try_with_iterations) is the fallible twin.
    pub fn with_iterations(iterations: usize) -> Self {
        match Self::try_with_iterations(iterations) {
            Ok(sa) => sa,
            Err(e) => panic!("SimulatedAnnealing::with_iterations: {e}"),
        }
    }

    /// Fallible constructor with an explicit iteration budget (the
    /// builder-validation convention: zero budgets are rejected with a
    /// typed [`BudgetError`] instead of a panic deep inside `map`).
    pub fn try_with_iterations(iterations: usize) -> Result<Self, BudgetError> {
        if iterations == 0 {
            return Err(BudgetError::ZeroIterations);
        }
        Ok(SimulatedAnnealing {
            iterations,
            ..SimulatedAnnealing::default()
        })
    }

    /// Check the configured budgets (`iterations`, `restarts` — both must
    /// be at least 1, or `map` would have nothing to return).
    pub fn validate(&self) -> Result<(), BudgetError> {
        if self.iterations == 0 {
            return Err(BudgetError::ZeroIterations);
        }
        if self.restarts == 0 {
            return Err(BudgetError::ZeroRestarts);
        }
        Ok(())
    }
}

impl Mapper for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        self.map_probed(inst, seed, &mut NoopSink)
    }

    fn map_probed(&self, inst: &ObmInstance, seed: u64, probe: &mut dyn Probe) -> Mapping {
        self.map_cancellable(inst, seed, &CancelToken::never(), probe)
            .expect("a never-firing token cannot cancel the anneal")
    }

    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        if let Err(e) = self.validate() {
            panic!("SimulatedAnnealing::map: {e}");
        }
        if self.restarts > 1 {
            // Restarts run on pool threads, and `&mut dyn Probe` cannot
            // be shared across them (no Sync bound, and interleaved
            // events from concurrent restarts would be meaningless anyway),
            // so the parallel path emits no solver events. Probe a
            // single-restart configuration to trace the annealing schedule.
            // Parallel independent restarts with disjoint seed streams; the
            // token is shared, so one deadline stops every restart. A
            // cancelled restart poisons the whole run (all-or-nothing keeps
            // the result independent of which restart was interrupted).
            // A restart's panic is re-raised unchanged in the caller.
            let cfg = SimulatedAnnealing {
                restarts: 1,
                ..*self
            };
            let results = crate::pool::run_indexed(self.restarts, self.restarts, |r| {
                let rseed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1));
                let m = cfg.map_cancellable(inst, rseed, token, &mut NoopSink)?;
                let v = crate::eval::evaluate(inst, &m).max_apl;
                Some((v, m))
            });
            let mut best: Option<(f64, Mapping)> = None;
            for r in results {
                let (v, m) = r?;
                if best.as_ref().is_none_or(|(b, _)| v < *b) {
                    best = Some((v, m));
                }
            }
            return best.map(|(_, m)| m);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let init = RandomMapper::draw(inst, &mut rng);
        let num_tiles = inst.num_tiles();
        if num_tiles < 2 {
            // A move swaps two distinct tiles; with one tile there is none
            // to draw (the redraw below would spin forever), and the start
            // is the only mapping.
            return Some(init);
        }
        let mut ev = IncrementalEvaluator::new(inst, init);
        let mut cur = ev.max_apl();
        let mut best = cur;
        let mut best_mapping = ev.mapping().clone();

        let t0 = (cur * self.initial_temp_fraction).max(1e-9);
        let t_end = t0 * self.final_temp_fraction;
        // Geometric schedule hitting t_end exactly at the last iteration.
        let alpha = (t_end / t0).powf(1.0 / self.iterations as f64);
        let mut temp = t0;
        let enabled = probe.is_enabled();
        let checkpoint = (self.iterations / SA_CHECKPOINTS).max(1);
        let mut accepted_since_last: u64 = 0;

        for it in 0..self.iterations {
            if it & CANCEL_POLL_MASK == 0 && token.is_cancelled() {
                return None;
            }
            // Pick two distinct tiles; swapping their contents covers both
            // thread↔thread swaps and thread→hole relocations.
            let a = TileId(rng.gen_range(0..num_tiles));
            let mut b = TileId(rng.gen_range(0..num_tiles));
            while b == a {
                b = TileId(rng.gen_range(0..num_tiles));
            }
            ev.swap_tiles(a, b);
            let cand = ev.max_apl();
            let delta = cand - cur;
            if metropolis_accept(delta, temp, &mut rng) {
                cur = cand;
                accepted_since_last += 1;
                if cur < best {
                    best = cur;
                    best_mapping.clone_from(ev.mapping());
                }
            } else {
                ev.swap_tiles(a, b); // revert
            }
            temp *= alpha;
            if enabled && (it + 1).is_multiple_of(checkpoint) {
                probe.on_solver_event(&SolverEvent::TemperatureStep {
                    iteration: (it + 1) as u64,
                    temperature: temp,
                    objective: cur,
                    accepted_since_last,
                });
                accepted_since_last = 0;
            }
        }
        debug_assert!(best_mapping.is_valid_for(inst));
        let _ = best;
        Some(best_mapping)
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
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    #[test]
    fn sa_improves_over_its_random_start() {
        let inst = inst();
        let start = evaluate(&inst, &RandomMapper.map(&inst, 7)).max_apl;
        let sa = evaluate(
            &inst,
            &SimulatedAnnealing::with_iterations(20_000).map(&inst, 7),
        );
        assert!(sa.max_apl < start, "SA {} vs start {}", sa.max_apl, start);
    }

    #[test]
    fn sa_approaches_known_optimum_on_fig5() {
        // Figure 5's optimum is 10.3375 cycles for every app. SA with a
        // decent budget should get within 2%.
        let inst = inst();
        let sa = evaluate(
            &inst,
            &SimulatedAnnealing::with_iterations(50_000).map(&inst, 3),
        );
        assert!(
            sa.max_apl < 10.3375 * 1.02,
            "SA max-APL {} too far from optimum",
            sa.max_apl
        );
    }

    #[test]
    fn quality_improves_with_budget_on_average() {
        // Diminishing-returns shape of Figure 12: tiny budgets must be
        // worse than large ones when averaged over seeds.
        let inst = inst();
        let avg = |iters: usize| -> f64 {
            (0..5)
                .map(|s| {
                    evaluate(
                        &inst,
                        &SimulatedAnnealing::with_iterations(iters).map(&inst, s),
                    )
                    .max_apl
                })
                .sum::<f64>()
                / 5.0
        };
        let lo = avg(50);
        let hi = avg(20_000);
        assert!(hi < lo, "more budget should help: {hi} !< {lo}");
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = inst();
        let sa = SimulatedAnnealing::with_iterations(1000);
        assert_eq!(sa.map(&inst, 4), sa.map(&inst, 4));
    }

    #[test]
    fn restarts_never_hurt() {
        let inst = inst();
        let single = SimulatedAnnealing::with_iterations(2_000);
        let multi = SimulatedAnnealing {
            restarts: 4,
            ..single
        };
        // The multi-restart result includes seed stream 1 of the single
        // run's family; quality must be at least as good on average.
        let avg = |sa: &SimulatedAnnealing| -> f64 {
            (0..4)
                .map(|s| evaluate(&inst, &sa.map(&inst, s)).max_apl)
                .sum::<f64>()
                / 4.0
        };
        assert!(avg(&multi) <= avg(&single) + 0.05);
    }

    #[test]
    fn probed_sa_matches_map_and_checkpoints_schedule() {
        use noc_telemetry::{RingSink, SolverEvent};
        let inst = inst();
        let sa = SimulatedAnnealing::with_iterations(1_000);
        let mut sink = RingSink::new(4096);
        let probed = sa.map_probed(&inst, 4, &mut sink);
        assert_eq!(probed, sa.map(&inst, 4), "probe perturbed the anneal");
        let steps: Vec<_> = sink
            .solver_events()
            .filter_map(|e| match e {
                SolverEvent::TemperatureStep {
                    iteration,
                    temperature,
                    accepted_since_last,
                    ..
                } => Some((*iteration, *temperature, *accepted_since_last)),
                _ => None,
            })
            .collect();
        // 1000 iterations / 64 checkpoints → one event every 15 iterations.
        assert!(
            (60..=70).contains(&steps.len()),
            "unexpected checkpoint count {}",
            steps.len()
        );
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "iterations must increase");
            assert!(w[0].1 > w[1].1, "geometric cooling must decrease temp");
        }
        let accepted: u64 = steps.iter().map(|s| s.2).sum();
        assert!(accepted <= 1_000);
    }

    #[test]
    fn multi_restart_probed_emits_nothing_but_matches() {
        use noc_telemetry::RingSink;
        let inst = inst();
        let sa = SimulatedAnnealing {
            restarts: 3,
            ..SimulatedAnnealing::with_iterations(500)
        };
        let mut sink = RingSink::new(64);
        let probed = sa.map_probed(&inst, 1, &mut sink);
        assert_eq!(probed, sa.map(&inst, 1));
        assert_eq!(sink.len(), 0, "parallel restarts must not emit events");
    }

    #[test]
    fn try_with_iterations_rejects_zero() {
        assert_eq!(
            SimulatedAnnealing::try_with_iterations(0),
            Err(BudgetError::ZeroIterations)
        );
        assert!(SimulatedAnnealing::try_with_iterations(1).is_ok());
    }

    #[test]
    #[should_panic(expected = "iteration budget must be at least 1")]
    fn with_iterations_zero_panics_with_message() {
        let _ = SimulatedAnnealing::with_iterations(0);
    }

    #[test]
    fn cancelled_token_yields_none_and_quiet_token_matches_map() {
        let inst = inst();
        let sa = SimulatedAnnealing::with_iterations(1_000);
        let fired = CancelToken::new();
        fired.cancel();
        assert!(sa
            .map_cancellable(&inst, 4, &fired, &mut NoopSink)
            .is_none());
        let quiet = CancelToken::never();
        assert_eq!(
            sa.map_cancellable(&inst, 4, &quiet, &mut NoopSink),
            Some(sa.map(&inst, 4))
        );
    }

    #[test]
    fn cancelled_multi_restart_yields_none() {
        let inst = inst();
        let sa = SimulatedAnnealing {
            restarts: 3,
            ..SimulatedAnnealing::with_iterations(500)
        };
        let fired = CancelToken::new();
        fired.cancel();
        assert!(sa
            .map_cancellable(&inst, 1, &fired, &mut NoopSink)
            .is_none());
    }

    #[test]
    fn works_with_spare_tiles() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tiles, vec![0, 5, 10], vec![1.0; 10], vec![0.1; 10]);
        let m = SimulatedAnnealing::with_iterations(2000).map(&inst, 0);
        assert!(m.is_valid_for(&inst));
    }

    /// One thread on a one-tile chip. A move needs two distinct tiles, so
    /// the anneal must return its start instead of redrawing forever.
    fn one_tile_instance() -> ObmInstance {
        let tiles = TileLatencies::paper_default(&Mesh::square(1));
        ObmInstance::new(tiles, vec![0, 1], vec![1.0], vec![0.1])
    }

    #[test]
    fn one_tile_chip_returns_the_start_mapping() {
        let inst = one_tile_instance();
        let only = Mapping::new(vec![TileId(0)]);
        let sa = SimulatedAnnealing::with_iterations(1000);
        assert_eq!(sa.map(&inst, 3), only);
        let restarts = SimulatedAnnealing { restarts: 3, ..sa };
        assert_eq!(restarts.map(&inst, 3), only);
    }
}
