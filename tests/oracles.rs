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
//! - Every `Objective` scored from the `IncrementalEvaluator`'s running
//!   sums against its former report-based formula applied to
//!   `ev.report()`, bit for bit, after each step of a random swap history
//!   with non-unit weights (energy, which reads only the mapping, against
//!   `ObjectiveSpec::score`).
//! - The SSS window kernel `IncrementalEvaluator::best_window_permutation`
//!   against a from-state search rebuilt here from the public
//!   `apply_window_permutation`: each candidate is applied to a clone of
//!   the evaluator and read with `max_apl`, then the best one is applied.
//!   Every bit of the evaluator's state must agree after every window,
//!   and a window that cannot lower the objective (threads of
//!   applications other than the argmax only, or holes only) returns
//!   `None` and changes nothing but the edit count.
//! - `ChipLayout` hop counts and `TileLatencies::for_layout` on meshes and
//!   tori with failed links against an independent Floyd–Warshall.
//! - The annealers' `metropolis_accept`, which skips `exp` deep in the
//!   tail, against the expression it replaced, on fixed RNG words at the
//!   decision boundary: same decision, same number of draws.
//! - One Hungarian `Workspace` reused across solves (and one refilled
//!   `CostMatrix`) against a fresh `CostMatrix::solve` per matrix, on
//!   random and tie-heavy matrices whose size changes between calls:
//!   same assignment, same cost bits.
//! - The objective fold `weighted_max_apl` (a plain compare) against the
//!   `f64::max` fold it replaced, on numerators including 0, ±∞ and NaN,
//!   and `IncrementalEvaluator::max_apl` against that fold over its own
//!   per-application APLs.

use obm::lap::{CostMatrix, Workspace};
use obm::mapping::algorithms::{
    metropolis_accept, BranchAndBound, BruteForce, Mapper, RandomMapper,
};
use obm::mapping::{
    evaluate, migration_distance, weighted_max_apl, CancelToken, Energy, IncrementalEvaluator,
    Mapping, MaxMinBalance, MigrationPenalized, MinMaxApl, Objective, ObjectiveSpec, ObmInstance,
};
use obm::model::{
    ChipLayout, Coord, LatencyParams, MemoryControllers, Mesh, PlacementError, TileId,
    TileLatencies, Topology,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each objective's evaluator score equals its former formula over
    /// `ev.report()` bitwise, at every step of a random swap history
    /// (holes included), with non-unit weights.
    #[test]
    fn evaluator_scores_match_the_report_formulas(
        inst in arb_small_instance(),
        seed in any::<u64>(),
    ) {
        let inst = inst.clone().with_app_weights(random_weights(inst.num_apps(), seed));
        let start = RandomMapper.map(&inst, seed);
        let k = inst.num_tiles();
        let migration = MigrationPenalized {
            base: MaxMinBalance,
            reference: start.clone(),
            weight: 0.25,
            mesh: Mesh::new(1, k),
        };
        let mut ev = IncrementalEvaluator::new(&inst, start);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            ev.swap_tiles(TileId(rng.gen_range(0..k)), TileId(rng.gen_range(0..k)));
            let r = ev.report();
            let min = r
                .per_app
                .iter()
                .enumerate()
                .map(|(i, &d)| inst.app_weight(i) * d)
                .fold(f64::INFINITY, f64::min);
            let balance = r.max_apl - min;
            let moved = migration_distance(&migration.mesh, &migration.reference, ev.mapping());
            for (name, got, want) in [
                ("min-max-apl", MinMaxApl.score(&ev), r.max_apl),
                ("max-min-balance", MaxMinBalance.score(&ev), balance),
                (
                    "energy",
                    Energy::default().score(&ev),
                    ObjectiveSpec::Energy.score(&inst, ev.mapping()),
                ),
                ("migration", migration.score(&ev), balance + 0.25 * moved as f64),
            ] {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} at edit {}", name, ev.edits());
            }
        }
    }
}

/// The window search from the window's starting state, with no
/// shortcut: apply each candidate to a clone, read the objective, and
/// finally apply the best one to `ev`.
fn reference_best_window_permutation(
    ev: &mut IncrementalEvaluator<'_>,
    tiles: &[TileId],
    perms: &[usize],
) -> Option<(f64, f64)> {
    let start_val = ev.max_apl();
    let mut best_val = start_val;
    let mut best_perm = None;
    for perm in perms.chunks_exact(tiles.len()) {
        let mut trial = ev.clone();
        trial.apply_window_permutation(tiles, perm);
        let val = trial.max_apl();
        if val + 1e-12 < best_val {
            best_val = val;
            best_perm = Some(perm);
        }
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

/// The bits of everything a window search can change, with `extra_edits`
/// added to the edit count: the kernel counts 2 edits per candidate,
/// which the reference's clones do not.
fn evaluator_state(
    ev: &IncrementalEvaluator<'_>,
    extra_edits: u64,
) -> (u64, u64, Vec<u64>, Mapping, u64) {
    (
        ev.max_apl().to_bits(),
        ev.total_latency().to_bits(),
        ev.report().per_app.iter().map(|d| d.to_bits()).collect(),
        ev.mapping().clone(),
        ev.edits() + extra_edits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The window kernel leaves the evaluator bit-identical to the
    /// from-state search on windows of 2–6 tiles over chips with spare
    /// tiles, non-unit weights and a random edit history, and skips the
    /// windows that cannot lower the objective without changing a bit.
    #[test]
    fn window_kernel_matches_the_from_state_search(
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
        let candidates = |w: usize| (perms[w].len() / w) as u64;
        let mut fast = ev.clone();
        let mut slow = ev;
        // candidates scored so far, 2 edits each in `fast` only
        let mut tried = 0;
        for window in 0..12 {
            let w = rng.gen_range(2..=6);
            tiles.shuffle(&mut rng);
            let got = fast.best_window_permutation(&tiles[..w], &perms[w]);
            let want = reference_best_window_permutation(&mut slow, &tiles[..w], &perms[w]);
            tried += candidates(w);
            let bits = |r: Option<(f64, f64)>| r.map(|(o, d)| (o.to_bits(), d.to_bits()));
            prop_assert_eq!(bits(got), bits(want), "window {} of {} tiles", window, w);
            prop_assert_eq!(
                evaluator_state(&fast, 0),
                evaluator_state(&slow, 2 * tried),
                "window {} of {} tiles", window, w
            );

            // A window that cannot lower the objective: threads of
            // applications other than the argmax (and holes), or holes
            // only on odd windows.
            let argmax = fast.report().argmax;
            let holes_only = window % 2 == 1;
            let skip: Vec<TileId> = tiles
                .iter()
                .copied()
                .filter(|&t| match fast.thread_on(t) {
                    None => true,
                    Some(j) => !holes_only && inst.app_of_thread(j) != argmax,
                })
                .collect();
            let w = skip.len().min(6);
            if w < 2 {
                continue;
            }
            let before = evaluator_state(&fast, 2 * candidates(w));
            let got = fast.best_window_permutation(&skip[..w], &perms[w]);
            let want = reference_best_window_permutation(&mut slow, &skip[..w], &perms[w]);
            tried += candidates(w);
            prop_assert!(got.is_none() && want.is_none(), "skip window {}: {:?}", window, got);
            prop_assert_eq!(&evaluator_state(&fast, 0), &before, "skip window {}", window);
            prop_assert_eq!(
                evaluator_state(&fast, 0),
                evaluator_state(&slow, 2 * tried),
                "skip window {}", window
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

/// An RNG that returns one fixed word forever and counts its draws.
struct FixedWord {
    word: u64,
    draws: u64,
}

impl RngCore for FixedWord {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.word
    }
}

/// The Metropolis test the annealers ran before the deep-tail shortcut.
fn reference_accept(delta: f64, temp: f64, rng: &mut impl Rng) -> bool {
    delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp()
}

/// Words whose uniform `u = (w >> 11)·2⁻⁵³` sits at the acceptance
/// boundary of `(delta, temp)`: 0, the smallest non-zero draws, the top
/// draw, and the draws next to `exp(−delta/temp)·2⁵³`; each with the
/// low 11 bits clear and set.
fn boundary_words(delta: f64, temp: f64) -> Vec<u64> {
    const TOP: u64 = (1 << 53) - 1;
    let mut mantissas = vec![0, 1, 2, 3, TOP];
    let p = (-delta / temp).exp();
    if p.is_finite() && p > 0.0 {
        let m = (p * (1u64 << 53) as f64).floor().min(TOP as f64) as u64;
        mantissas.extend((m.saturating_sub(2)..=m.saturating_add(2)).map(|k| k.min(TOP)));
    }
    mantissas
        .into_iter()
        .flat_map(|k| [k << 11, (k << 11) | 0x7ff])
        .collect()
}

/// Check `metropolis_accept` against the reference on every boundary word
/// of `(delta, temp)`: same decision, same number of draws.
fn check_metropolis(delta: f64, temp: f64) {
    for word in boundary_words(delta, temp) {
        let mut fast = FixedWord { word, draws: 0 };
        let mut slow = FixedWord { word, draws: 0 };
        assert_eq!(
            metropolis_accept(delta, temp, &mut fast),
            reference_accept(delta, temp, &mut slow),
            "delta {delta:e}, temp {temp:e}, word {word:#018x}"
        );
        assert_eq!(
            fast.draws, slow.draws,
            "draw count: delta {delta:e}, temp {temp:e}"
        );
    }
}

#[test]
fn metropolis_tail_shortcut_matches_the_reference() {
    let temps = [
        f64::from_bits(1),
        1e-310,
        f64::MIN_POSITIVE,
        1e-9,
        0.0137,
        1.0,
        3.5,
        1e300,
        f64::MAX,
        f64::INFINITY,
        0.0,
        f64::NAN,
    ];
    let fixed = [
        0.0,
        -0.0,
        f64::from_bits(1),
        1e-310,
        -1e-310,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for temp in temps {
        let tail = 40.0 * temp;
        let mut deltas = vec![tail, tail.next_up(), tail.next_down()];
        deltas.push(tail.next_up().next_up());
        deltas.push(tail.next_down().next_down());
        // Exponents from the accepting bulk through both cutoffs and the
        // point where 2⁻⁵³ first exceeds exp(x) (x ≈ −36.7) into the deep
        // tail and exp's underflow to 0.
        for k in [
            0.5, 1.0, 10.0, 29.9, 30.0, 31.0, 35.0, 36.7, 36.8, 39.99, 41.0, 745.2,
        ] {
            deltas.push(k * temp);
        }
        deltas.extend(fixed);
        for delta in deltas {
            check_metropolis(delta, temp);
        }
    }
    // Random ratios across both sides of the cutoff, at annealing-scale
    // temperatures.
    let mut rng = SmallRng::seed_from_u64(0x6d65_7472);
    for _ in 0..20_000 {
        let temp = 10f64.powf(rng.gen_range(-12.0..6.0));
        let delta = temp * rng.gen_range(0.0..60.0);
        check_metropolis(delta, temp);
    }
}

#[test]
fn reused_workspace_matches_fresh_solves() {
    let mut rng = SmallRng::seed_from_u64(0x4c41_5021);
    let mut ws = Workspace::new();
    let mut kept = CostMatrix::zeros(1, 1);
    for trial in 0..4_000 {
        // 1–8 rows, up to 3 spare columns; the shape changes every call,
        // growing and shrinking the workspace's buffers.
        let rows = rng.gen_range(1..=8);
        let cols = rows + rng.gen_range(0..=3);
        // Half the matrices draw from {0, 1, 2, 3}: many tied optima,
        // where any state leaking between solves would pick another one.
        let ties = trial % 2 == 0;
        let mut entry = |_: usize, _: usize| {
            if ties {
                f64::from(rng.gen_range(0u8..4))
            } else {
                rng.gen_range(-50.0..50.0)
            }
        };
        let m = if trial % 3 == 0 {
            kept.refill(rows, cols, &mut entry);
            kept.clone()
        } else {
            CostMatrix::from_fn(rows, cols, &mut entry)
        };
        let fresh = m.solve();
        let cost = ws.solve(&m);
        assert_eq!(
            ws.row_to_col(),
            fresh.row_to_col.as_slice(),
            "trial {trial}: {rows}x{cols}"
        );
        assert_eq!(
            cost.to_bits(),
            fresh.cost.to_bits(),
            "trial {trial}: {rows}x{cols}"
        );
    }
}

/// The objective as it was computed before the plain-compare fold.
fn max_fold(num: &[f64], volume: &[f64], weight: &[f64]) -> f64 {
    num.iter()
        .zip(volume)
        .zip(weight)
        .map(|((&n, &v), &w)| w * (n / v))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn weighted_max_apl_matches_the_f64_max_fold() {
    let specials = [0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut rng = SmallRng::seed_from_u64(0x6d61_7861);
    for trial in 0..50_000 {
        let apps = rng.gen_range(0..=8);
        let num: Vec<f64> = (0..apps)
            .map(|_| {
                if rng.gen_range(0..3) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-1e3..1e3)
                }
            })
            .collect();
        let volume: Vec<f64> = (0..apps).map(|_| rng.gen_range(0.01..100.0)).collect();
        let weight: Vec<f64> = (0..apps)
            .map(|_| {
                if trial % 2 == 0 {
                    1.0
                } else {
                    rng.gen_range(0.25..4.0)
                }
            })
            .collect();
        assert_eq!(
            weighted_max_apl(&num, &volume, &weight).to_bits(),
            max_fold(&num, &volume, &weight).to_bits(),
            "numerators {num:?}"
        );
    }
    // All-NaN and empty inputs fold to −∞ either way.
    assert_eq!(
        weighted_max_apl(&[f64::NAN; 3], &[1.0; 3], &[1.0; 3]),
        f64::NEG_INFINITY
    );
    assert_eq!(weighted_max_apl(&[], &[], &[]), f64::NEG_INFINITY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The evaluator's objective equals the `f64::max` fold over its own
    /// per-application APLs after every move of a random walk, with unit
    /// and with non-unit weights.
    #[test]
    fn evaluator_max_apl_matches_the_f64_max_fold(
        inst in arb_small_instance(),
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inst = if weighted {
            inst.clone().with_app_weights(random_weights(inst.num_apps(), seed))
        } else {
            inst
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ev = IncrementalEvaluator::new(&inst, RandomMapper.map(&inst, seed));
        let apps = inst.num_apps();
        let weight: Vec<f64> = (0..apps).map(|i| inst.app_weight(i)).collect();
        for _ in 0..50 {
            let a = TileId(rng.gen_range(0..inst.num_tiles()));
            let b = TileId(rng.gen_range(0..inst.num_tiles()));
            ev.swap_tiles(a, b);
            let apl: Vec<f64> = (0..apps).map(|i| ev.app_apl(i)).collect();
            let want = max_fold(&apl, &vec![1.0; apps], &weight);
            prop_assert_eq!(ev.max_apl().to_bits(), want.to_bits());
        }
    }
}
