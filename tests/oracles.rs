//! Differential oracles: fast paths checked against slow, independent
//! recomputations on random instances.
//!
//! - Branch-and-bound against exhaustive enumeration (`BruteForce`) on
//!   chips of up to 9 tiles, spare tiles included: both are exact, so
//!   their optima must agree.
//! - The `MaxMinBalance` objective against a naive max − min of
//!   per-application APLs recomputed straight from Eq. (13) — the
//!   latency-balance formulation of GenMap's `LatencyBalanceEval`.

use obm::mapping::algorithms::{BranchAndBound, BruteForce, Mapper, RandomMapper};
use obm::mapping::{evaluate, CancelToken, Mapping, ObjectiveSpec, ObmInstance};
use obm::model::{Mesh, TileLatencies};
use proptest::prelude::*;

/// Strategy: a `rows × cols` mesh of at most 9 tiles with 2–3
/// applications, 0–2 spare tiles and positive rates.
fn arb_small_instance() -> impl Strategy<Value = ObmInstance> {
    (2usize..=3, 2usize..=3, 2usize..=3, 0usize..=2)
        .prop_flat_map(|(rows, cols, apps, spare)| {
            let threads = (rows * cols - spare).max(apps);
            (
                Just((rows, cols, apps)),
                proptest::collection::vec(0.01f64..10.0, threads),
                proptest::collection::vec(0.0f64..2.0, threads),
            )
        })
        .prop_map(|((rows, cols, apps), c, m)| {
            let threads = c.len();
            let bounds: Vec<usize> = (0..=apps).map(|a| a * threads / apps).collect();
            ObmInstance::new(
                TileLatencies::paper_default(&Mesh::new(rows, cols)),
                bounds,
                c,
                m,
            )
        })
}

/// Per-application APLs from the definitions alone: `Σ (c_j·TC + m_j·TM)
/// / Σ (c_j + m_j)` over each application's threads.
fn naive_apls(inst: &ObmInstance, m: &Mapping) -> Vec<f64> {
    (0..inst.num_apps())
        .map(|i| {
            let (mut num, mut vol) = (0.0, 0.0);
            for j in inst.app_threads(i) {
                let k = m.tile_of(j);
                num +=
                    inst.cache_rate(j) * inst.tiles().tc(k) + inst.mem_rate(j) * inst.tiles().tm(k);
                vol += inst.cache_rate(j) + inst.mem_rate(j);
            }
            num / vol
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Branch-and-bound proves the same optimum exhaustive search finds.
    #[test]
    fn bnb_matches_brute_force(inst in arb_small_instance()) {
        let bnb = BranchAndBound::default().solve_budgeted(&inst, &CancelToken::never(), None);
        prop_assert!(bnb.proven_optimal, "node budget hit on {} threads", inst.num_threads());
        prop_assert!(bnb.mapping.is_valid_for(&inst));
        let exact = evaluate(&inst, &BruteForce.map(&inst, 0)).max_apl;
        let got = evaluate(&inst, &bnb.mapping).max_apl;
        prop_assert!(
            (got - exact).abs() <= 1e-9 * exact,
            "BnB {got} vs brute force {exact}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `MaxMinBalance` is the spread max − min of the naive per-app APLs.
    #[test]
    fn max_min_balance_is_the_naive_apl_spread(inst in arb_small_instance(), seed in any::<u64>()) {
        let m = RandomMapper.map(&inst, seed);
        let apls = naive_apls(&inst, &m);
        let max = apls.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = apls.iter().copied().fold(f64::INFINITY, f64::min);
        let naive = max - min;
        let fast = ObjectiveSpec::MaxMinBalance.score(&inst, &m);
        prop_assert!(
            (fast - naive).abs() <= 1e-9 * max,
            "MaxMinBalance {fast} vs naive {naive}"
        );
    }
}
