//! Mapping algorithms: the proposed sort-select-swap heuristic and the
//! three comparison algorithms of the paper's Section V.A (Global,
//! Monte-Carlo, simulated annealing), plus exact brute force for tiny
//! instances.

pub mod bnb;
pub mod brute;
pub mod global;
pub mod greedy;
pub mod hybrid;
pub mod mc;
pub mod random;
pub mod sa;
pub mod sss;

pub use bnb::BranchAndBound;
pub use brute::BruteForce;
pub use global::Global;
pub use greedy::BalancedGreedy;
pub use hybrid::HybridSssSa;
pub use mc::MonteCarlo;
pub use random::{DrawScratch, RandomMapper};
pub use sa::SimulatedAnnealing;
pub use sss::SortSelectSwap;

use crate::cancel::CancelToken;
use crate::objective::Objective;
use crate::problem::{Mapping, ObmInstance};
use noc_telemetry::Probe;
use rand::Rng;

/// A rejected iteration/sample budget (the builder-validation convention:
/// constructors that used to `assert!` now have `try_*` twins returning
/// this typed error; the panicking forms remain but state the violated
/// rule in their message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// A simulated-annealing iteration budget of 0 was requested.
    ZeroIterations,
    /// A Monte-Carlo sample budget of 0 was requested.
    ZeroSamples,
    /// A restart count of 0 was requested.
    ZeroRestarts,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::ZeroIterations => {
                write!(f, "iteration budget must be at least 1 (got 0)")
            }
            BudgetError::ZeroSamples => write!(f, "sample budget must be at least 1 (got 0)"),
            BudgetError::ZeroRestarts => write!(f, "restart count must be at least 1 (got 0)"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A mapping algorithm.
///
/// Randomized algorithms derive their RNG from `seed`; deterministic ones
/// ignore it. All implementations return a mapping that is valid for the
/// instance (injective, in range).
pub trait Mapper {
    /// Short display name ("Global", "MC", "SA", "SSS", …).
    fn name(&self) -> &'static str;

    /// Compute a thread-to-tile mapping.
    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping;

    /// Like [`map`](Mapper::map), additionally streaming solver telemetry
    /// ([`SolverEvent`](noc_telemetry::SolverEvent)s) to `probe`.
    ///
    /// The probe must never influence the result: for any probe,
    /// `map_probed(inst, seed, probe) == map(inst, seed)`. The default
    /// implementation emits nothing, so existing mappers are unaffected;
    /// instrumented mappers ([`SortSelectSwap`], [`SimulatedAnnealing`])
    /// override it and route `map` through a
    /// [`NoopSink`](noc_telemetry::NoopSink).
    fn map_probed(&self, inst: &ObmInstance, seed: u64, probe: &mut dyn Probe) -> Mapping {
        let _ = probe;
        self.map(inst, seed)
    }

    /// Like [`map_probed`](Mapper::map_probed), additionally polling a
    /// [`CancelToken`] so a deadline or an external cancel stops the
    /// search early. Returns `None` when the token fired before a result
    /// was produced; partial work is discarded (never a half-optimized
    /// mapping), which is what keeps portfolio merges deterministic.
    ///
    /// The token contract mirrors the probe contract: a token that never
    /// fires must not perturb the search — `map_cancellable(inst, seed,
    /// &CancelToken::never(), probe) == Some(map(inst, seed))` bit-for-bit.
    /// The default implementation checks once up front and then runs to
    /// completion; long-running mappers ([`SimulatedAnnealing`],
    /// [`MonteCarlo`], [`HybridSssSa`], [`SortSelectSwap`]) override it to
    /// poll inside their inner loops.
    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        if token.is_cancelled() {
            return None;
        }
        Some(self.map_probed(inst, seed, probe))
    }

    /// Compute a mapping optimized for an arbitrary [`Objective`].
    ///
    /// Every algorithm in this crate searches the min-max-APL landscape
    /// natively, so the default implementation runs [`map`](Mapper::map)
    /// and — when the objective is not [`MinMaxApl`]-equivalent —
    /// polishes the result with a deterministic best-improvement
    /// pairwise-exchange pass
    /// ([`refine_for_objective`](crate::objective::refine_for_objective))
    /// scored under `objective`. For `MinMaxApl` itself this is
    /// bit-identical to `map` (no refinement runs), which keeps every
    /// pre-objective golden result valid (proptested in
    /// `tests/properties.rs`).
    fn map_objective(&self, inst: &ObmInstance, seed: u64, objective: &dyn Objective) -> Mapping {
        let mapping = self.map(inst, seed);
        if objective.is_min_max_apl() {
            mapping
        } else {
            crate::objective::refine_for_objective(
                inst,
                mapping,
                objective,
                OBJECTIVE_REFINE_PASSES,
            )
        }
    }
}

/// Pass budget of the [`Mapper::map_objective`] polishing stage. Each pass
/// is one full best-improvement sweep over thread/tile exchanges; the
/// refinement stops early once a sweep finds no improving exchange, so
/// this is a ceiling, not a fixed cost.
pub const OBJECTIVE_REFINE_PASSES: usize = 32;

/// `delta/temp` beyond which [`metropolis_accept`] decides without `exp`.
const METROPOLIS_TAIL: f64 = 40.0;

/// The Metropolis acceptance test shared by the annealers (SA, the SSS+SA
/// hybrid and the annealed placement search): accept every non-worsening
/// move, and a worsening one with probability `exp(−delta/temp)`.
///
/// Bit-identical to `delta <= 0.0 || rng.gen::<f64>() < (-delta /
/// temp).exp()`, RNG stream included, for every `delta` and every `temp`
/// that is NaN or carries a clear sign bit (the annealers' temperatures
/// are positive by construction). The uniform is drawn for every
/// worsening move and only for those; the solver goldens pin that draw
/// order. Deep in the tail, `delta > 40·temp`, libm's `exp` runs only
/// when the draw is exactly 0:
///
/// - `u = (w >> 11)·2⁻⁵³`, so a non-zero `u` is at least 2⁻⁵³.
/// - `40·temp` and `delta/temp` are each rounded once, with relative
///   error at most 2⁻⁵³ (a subnormal product is exact, the quotient
///   exceeds 40, and an overflow to ∞ only makes `exp` smaller). So
///   `x = −delta/temp < −40·(1 − 2⁻⁵¹)`, and `exp(x) < 4.3·10⁻¹⁸ <
///   2⁻⁵⁷`, with room for libm's sub-ulp error.
/// - Hence `u < exp(x)` is false for every non-zero `u`, and for `u = 0`
///   the full test `0 < exp(x)` is still evaluated.
///
/// `temp = +0` lands in the tail (`exp(−∞) = 0`); NaN and infinite
/// `temp` fail the tail compare and take the full test. The tail branch
/// is a multiply and a compare: testing the quotient instead puts the
/// division ahead of the branch and measured slower. `tests/oracles.rs`
/// checks the boundary words against the expression.
#[inline]
pub fn metropolis_accept<R: Rng>(delta: f64, temp: f64, rng: &mut R) -> bool {
    if delta <= 0.0 {
        return true;
    }
    let u = rng.gen::<f64>();
    if delta > METROPOLIS_TAIL * temp {
        return u == 0.0 && (-delta / temp).exp() > 0.0;
    }
    u < (-delta / temp).exp()
}

/// All 24 permutations of 4 window slots, used by the SSS sliding-window
/// swap (Algorithm 2, Step 3) and enumerated in lexicographic order so the
/// identity comes first (ties keep the current assignment).
pub(crate) const PERMS4: [[usize; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

#[cfg(test)]
mod tests {
    use super::{Global, Mapper, PERMS4};

    #[test]
    fn default_map_probed_delegates_to_map() {
        use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
        use noc_telemetry::RingSink;
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        let inst = crate::problem::ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16]);
        // Global does not override map_probed: same result, no events.
        let mut sink = RingSink::new(8);
        assert_eq!(Global.map_probed(&inst, 0, &mut sink), Global.map(&inst, 0));
        assert_eq!(sink.len(), 0);
    }

    #[test]
    fn perms4_are_all_distinct_permutations() {
        let mut seen = std::collections::HashSet::new();
        for p in PERMS4 {
            let mut sorted = p;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3], "not a permutation: {p:?}");
            assert!(seen.insert(p), "duplicate permutation {p:?}");
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn identity_first() {
        assert_eq!(PERMS4[0], [0, 1, 2, 3]);
    }
}
