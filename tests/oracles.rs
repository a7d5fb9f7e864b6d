//! Differential oracles: fast paths checked against slow, independent
//! recomputations on random instances.
//!
//! - Branch-and-bound against exhaustive enumeration (`BruteForce`) on
//!   chips of up to 9 tiles, spare tiles included: both are exact, so
//!   their optima must agree.
//! - The `MaxMinBalance` objective against a naive max − min of
//!   per-application APLs recomputed straight from Eq. (13) — the
//!   latency-balance formulation of GenMap's `LatencyBalanceEval` — with
//!   unit and with non-unit application weights.
//! - The SSS window kernel `IncrementalEvaluator::best_window_permutation`
//!   against the apply → revert search it replaced, rebuilt here from the
//!   public `apply_window_permutation`: every bit of the evaluator's state
//!   must agree after every window.
//! - `ChipLayout` hop counts and `TileLatencies::for_layout` on meshes and
//!   tori with failed links against an independent Floyd–Warshall.

use obm::mapping::algorithms::{BranchAndBound, BruteForce, Mapper, RandomMapper};
use obm::mapping::{
    evaluate, CancelToken, IncrementalEvaluator, Mapping, ObjectiveSpec, ObmInstance,
};
use obm::model::{
    ChipLayout, Coord, LatencyParams, MemoryControllers, Mesh, PlacementError, TileId,
    TileLatencies, Topology,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

/// Random application weights in `[0.25, 4)`, one per application.
fn random_weights(apps: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..apps).map(|_| rng.gen_range(0.25..4.0)).collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Weighted `MaxMinBalance` is the spread max − min of the naive
    /// per-app APLs, each scaled by its application's weight.
    #[test]
    fn weighted_max_min_balance_is_the_naive_weighted_spread(
        inst in arb_small_instance(),
        seed in any::<u64>(),
    ) {
        let inst = inst.clone().with_app_weights(random_weights(inst.num_apps(), seed));
        let m = RandomMapper.map(&inst, seed);
        let weighted: Vec<f64> = naive_apls(&inst, &m)
            .iter()
            .enumerate()
            .map(|(i, d)| inst.app_weight(i) * d)
            .collect();
        let max = weighted.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = weighted.iter().copied().fold(f64::INFINITY, f64::min);
        let naive = max - min;
        let fast = ObjectiveSpec::MaxMinBalance.score(&inst, &m);
        prop_assert!(
            (fast - naive).abs() <= 1e-9 * max,
            "weighted MaxMinBalance {fast} vs naive {naive}"
        );
    }
}

/// The window search SSS ran before the cost-block kernel: apply each
/// candidate, read the objective, revert it by applying the inverse
/// permutation, and finally apply the best one.
fn reference_best_window_permutation(
    ev: &mut IncrementalEvaluator<'_>,
    tiles: &[TileId],
    perms: &[usize],
) -> Option<(f64, f64)> {
    let w = tiles.len();
    let start_val = ev.max_apl();
    let mut best_val = start_val;
    let mut best_perm = None;
    let mut inverse = vec![0; w];
    for perm in perms.chunks_exact(w) {
        ev.apply_window_permutation(tiles, perm);
        let val = ev.max_apl();
        if val + 1e-12 < best_val {
            best_val = val;
            best_perm = Some(perm);
        }
        for (s, &p) in perm.iter().enumerate() {
            inverse[p] = s;
        }
        ev.apply_window_permutation(tiles, &inverse);
    }
    ev.apply_window_permutation(tiles, best_perm?);
    Some((best_val, best_val - start_val))
}

/// Every non-identity permutation of `0..w` in lexicographic order,
/// flattened row-major (SSS's candidate list).
fn non_identity_permutations(w: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..w).collect();
    let mut out = Vec::new();
    loop {
        // next lexicographic permutation
        let Some(i) = (1..w).rev().find(|&i| p[i - 1] < p[i]) else {
            return out;
        };
        let j = (i..w).rev().find(|&j| p[j] > p[i - 1]).unwrap();
        p.swap(i - 1, j);
        p[i..].reverse();
        out.extend_from_slice(&p);
    }
}

/// The bits of everything a window search can change.
fn evaluator_state(ev: &IncrementalEvaluator<'_>) -> (u64, u64, Vec<u64>, Mapping, u64) {
    (
        ev.max_apl().to_bits(),
        ev.total_latency().to_bits(),
        ev.report().per_app.iter().map(|d| d.to_bits()).collect(),
        ev.mapping().clone(),
        ev.edits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The cost-block window kernel leaves the evaluator bit-identical to
    /// the apply → revert search, numerator rounding drift included, on
    /// windows of 2–6 tiles over chips with spare tiles, non-unit weights
    /// and a random edit history.
    #[test]
    fn window_kernel_matches_apply_revert(
        rows in 3usize..=5,
        cols in 3usize..=5,
        apps in 2usize..=4,
        spare in 0usize..=4,
        weighted in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let num_tiles = rows * cols;
        let threads = num_tiles - spare;
        let c: Vec<f64> = (0..threads).map(|_| rng.gen_range(0.01..10.0)).collect();
        let m: Vec<f64> = (0..threads).map(|_| rng.gen_range(0.0..2.0)).collect();
        let bounds: Vec<usize> = (0..=apps).map(|a| a * threads / apps).collect();
        let mut inst = ObmInstance::new(
            TileLatencies::paper_default(&Mesh::new(rows, cols)),
            bounds,
            c,
            m,
        );
        if weighted > 0 {
            inst = inst.with_app_weights(random_weights(apps, seed ^ 1));
        }
        let mut ev = IncrementalEvaluator::new(&inst, RandomMapper.map(&inst, seed));
        let mut tiles: Vec<TileId> = (0..num_tiles).map(TileId).collect();
        // Random prior history: swaps, moves into holes, window permutations.
        for _ in 0..rng.gen_range(0..40) {
            tiles.shuffle(&mut rng);
            match rng.gen_range(0..3) {
                0 => ev.swap_tiles(tiles[0], tiles[1]),
                1 => {
                    if let Some(&hole) = tiles.iter().find(|&&t| ev.thread_on(t).is_none()) {
                        ev.move_thread(rng.gen_range(0..threads), hole);
                    }
                }
                _ => {
                    let w = rng.gen_range(2..=6);
                    let mut perm: Vec<usize> = (0..w).collect();
                    perm.shuffle(&mut rng);
                    ev.apply_window_permutation(&tiles[..w], &perm);
                }
            }
        }
        let perms: Vec<Vec<usize>> = (0..=6).map(non_identity_permutations).collect();
        let mut fast = ev.clone();
        let mut slow = ev;
        for window in 0..12 {
            let w = rng.gen_range(2..=6);
            tiles.shuffle(&mut rng);
            let got = fast.best_window_permutation(&tiles[..w], &perms[w]);
            let want = reference_best_window_permutation(&mut slow, &tiles[..w], &perms[w]);
            let bits = |r: Option<(f64, f64)>| r.map(|(o, d)| (o.to_bits(), d.to_bits()));
            prop_assert_eq!(bits(got), bits(want), "window {} of {} tiles", window, w);
            prop_assert_eq!(
                evaluator_state(&fast),
                evaluator_state(&slow),
                "window {} of {} tiles", window, w
            );
        }
    }
}

/// Every physical link of a `rows × cols` mesh or torus, once each.
fn physical_links(mesh: &Mesh, topology: Topology) -> Vec<(TileId, TileId)> {
    let (rows, cols) = (mesh.rows(), mesh.cols());
    let torus = topology == Topology::Torus;
    let mut links = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let here = mesh.tile(Coord::new(r, c));
            if c + 1 < cols || torus {
                links.push((here, mesh.tile(Coord::new(r, (c + 1) % cols))));
            }
            if r + 1 < rows || torus {
                links.push((here, mesh.tile(Coord::new((r + 1) % rows, c))));
            }
        }
    }
    links
}

/// All-pairs hop counts by Floyd–Warshall over `links` (`None` =
/// unreachable), row-major `[src][dst]`.
fn floyd_warshall(n: usize, links: &[(TileId, TileId)]) -> Vec<Option<usize>> {
    let mut d = vec![None; n * n];
    for k in 0..n {
        d[k * n + k] = Some(0);
    }
    for &(a, b) in links {
        d[a.index() * n + b.index()] = Some(1);
        d[b.index() * n + a.index()] = Some(1);
    }
    for k in 0..n {
        for i in 0..n {
            let Some(ik) = d[i * n + k] else { continue };
            for j in 0..n {
                if let Some(kj) = d[k * n + j] {
                    if d[i * n + j].is_none_or(|ij| ik + kj < ij) {
                        d[i * n + j] = Some(ik + kj);
                    }
                }
            }
        }
    }
    d
}

/// Check a connected layout's hop counts, nearest controllers and
/// latency tables against the all-pairs distances `dist`.
fn check_layout_against(layout: &ChipLayout, dist: &[Option<usize>]) {
    let mesh = layout.mesh();
    let n = mesh.num_tiles();
    let hops = |a: usize, b: usize| dist[a * n + b].unwrap();
    let params = LatencyParams::paper_table2();
    let lat = TileLatencies::for_layout(layout, params);
    for k in 0..n {
        for b in 0..n {
            assert_eq!(layout.hops(TileId(k), TileId(b)), hops(k, b), "{k} -> {b}");
        }
        let cache_hops = (0..n).map(|b| hops(k, b)).sum::<usize>() as f64 / n as f64;
        assert_eq!(lat.cache_hops(TileId(k)), cache_hops, "tile {k}");
        let tc = cache_hops * params.per_hop() + params.td_s_cache * mesh.offtile_fraction();
        assert!(
            (lat.tc(TileId(k)) - tc).abs() <= 1e-12 * tc,
            "TC of tile {k}"
        );
        let nearest = *layout
            .controllers()
            .tiles()
            .iter()
            .min_by_key(|mc| (hops(k, mc.index()), mc.index()))
            .unwrap();
        assert_eq!(layout.nearest_controller(TileId(k)), nearest, "tile {k}");
        let mem_hops = hops(k, nearest.index());
        assert_eq!(lat.mem_hops(TileId(k)), mem_hops as f64, "tile {k}");
        assert_eq!(
            lat.tm(TileId(k)),
            params.mem_packet_latency(mem_hops),
            "tile {k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random failed-link sets, `ChipLayout` hop counts, nearest
    /// controllers and `TileLatencies::for_layout` agree with shortest
    /// paths from Floyd–Warshall, and a set that cuts the chip apart is
    /// the typed `Disconnected` error naming the lowest tile that tile 0
    /// cannot reach.
    #[test]
    fn failed_link_latencies_match_floyd_warshall(
        rows in 3usize..=6,
        cols in 3usize..=6,
        torus in 0usize..2,
        fail_percent in 0usize..50,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mesh = Mesh::new(rows, cols);
        let n = mesh.num_tiles();
        let topology = if torus == 1 { Topology::Torus } else { Topology::Mesh };
        let all = physical_links(&mesh, topology);
        let mut failed = Vec::new();
        let mut surviving = Vec::new();
        for &(a, b) in &all {
            if rng.gen_range(0..100) < fail_percent {
                // either orientation, sometimes listed twice
                failed.push(if rng.gen_range(0..2) == 0 { (a, b) } else { (b, a) });
                if rng.gen_range(0..4) == 0 {
                    failed.push((b, a));
                }
            } else {
                surviving.push((a, b));
            }
        }
        failed.shuffle(&mut rng);
        let controllers: Vec<TileId> =
            (0..rng.gen_range(1..=4)).map(|_| TileId(rng.gen_range(0..n))).collect();
        let mcs = MemoryControllers::try_custom(&mesh, controllers).unwrap();
        let dist = floyd_warshall(n, &surviving);
        let result = ChipLayout::try_new(mesh, topology, mcs, failed);
        match (0..n).find(|&t| dist[t].is_none()) {
            Some(tile) => prop_assert_eq!(result, Err(PlacementError::Disconnected { tile })),
            None => check_layout_against(&result.unwrap(), &dist),
        }
    }
}
