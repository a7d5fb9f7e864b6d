//! The proposed **sort-select-swap** heuristic (paper §IV.B, Algorithm 2).
//!
//! 1. **Sort** all tiles by their L2-cache APL `TC(k)`.
//! 2. **Select** ("coarse tuning"): for each application, split the
//!    remaining sorted tile list into `ΔN_i` equal sections and take the
//!    middle tile of each — every application receives the same spread of
//!    cheap and expensive cache tiles — then run the Hungarian-based SAM
//!    (Algorithm 1) to place the application's threads on its tiles.
//! 3. **Swap** ("fine tuning"): slide a 4-tile window over the sorted tile
//!    list with step sizes `s = 1 .. N/4`; in each window try all 24
//!    permutations of the window occupants and greedily keep the one with
//!    the smallest max-APL. Finish with one more SAM pass per application.
//!
//! Overall complexity `O(N³)` (sort `O(N log N)`, selection + SAM `O(N³)`,
//! `O(N²)` windows × 24 permutations with `O(1)` incremental evaluation,
//! final SAM `O(N³)`).
//!
//! The window size, step-size schedule, selection rule and final SAM pass
//! are configurable so the ablation benches can quantify each design
//! choice; the defaults are exactly the paper's.

use crate::algorithms::{Mapper, PERMS4};
use crate::cancel::CancelToken;
use crate::eval::IncrementalEvaluator;
use crate::problem::{Mapping, ObmInstance};
use crate::sam::solve_sam;
use noc_model::TileId;
use noc_telemetry::{NoopSink, Probe, SolverEvent};
use std::borrow::Cow;

/// Window positions between [`CancelToken`] polls inside a step-size pass
/// (power of two: mask test). Each position tries up to 24 permutations,
/// so 256 positions is a comfortable poll cadence.
const CANCEL_POLL_MASK: usize = 256 - 1;

/// Which tile each section contributes during the select step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// The paper's rule: the middle tile of each section.
    Middle,
    /// The first (cheapest) tile of each section — biased; for ablation.
    First,
    /// The last (most expensive) tile of each section — biased; ablation.
    Last,
}

/// The sort-select-swap mapper.
#[derive(Debug, Clone, Copy)]
pub struct SortSelectSwap {
    /// Sliding-window size (paper: 4). 1 disables swapping; sizes up to
    /// [`IncrementalEvaluator::MAX_WINDOW`] (6) are supported (w!
    /// permutations are enumerated).
    pub window: usize,
    /// Largest window step size; `None` = `N / window` (the paper's
    /// schedule `s = 1 .. N/4`).
    pub max_step: Option<usize>,
    /// Run the final per-application SAM pass (paper: yes).
    pub final_sam: bool,
    /// Section selection rule (paper: middle).
    pub selection: SelectionRule,
}

impl Default for SortSelectSwap {
    fn default() -> Self {
        SortSelectSwap {
            window: 4,
            max_step: None,
            final_sam: true,
            selection: SelectionRule::Middle,
        }
    }
}

impl Mapper for SortSelectSwap {
    fn name(&self) -> &'static str {
        "SSS"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        self.map_probed(inst, seed, &mut NoopSink)
    }

    fn map_probed(&self, inst: &ObmInstance, seed: u64, probe: &mut dyn Probe) -> Mapping {
        self.map_cancellable(inst, seed, &CancelToken::never(), probe)
            .expect("a never-firing token cannot cancel SSS")
    }

    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        _seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        assert!(
            (1..=IncrementalEvaluator::MAX_WINDOW).contains(&self.window),
            "window size {} out of supported range 1..={}",
            self.window,
            IncrementalEvaluator::MAX_WINDOW
        );
        // ---- Step 1: sort tiles by TC.
        if token.is_cancelled() {
            return None;
        }
        let sorted = sorted_tiles(inst);

        // ---- Step 2: select + SAM per application (each SAM is O(N³), so
        // poll between applications).
        let mut assignment: Vec<Option<TileId>> = vec![None; inst.num_threads()];
        let mut remaining = sorted.clone();
        for i in 0..inst.num_apps() {
            if token.is_cancelled() {
                return None;
            }
            let threads: Vec<usize> = inst.app_threads(i).collect();
            let picked = select_sections(&remaining, threads.len(), self.selection);
            let tiles: Vec<TileId> = picked.iter().map(|&idx| remaining[idx]).collect();
            let sam = solve_sam(inst, &threads, &tiles);
            for (t, &tile) in threads.iter().zip(&sam.assignment) {
                assignment[*t] = Some(tile);
            }
            remove_indices(&mut remaining, &picked);
        }
        let mapping = Mapping::new(
            assignment
                .into_iter()
                .map(|t| t.expect("all threads assigned"))
                .collect(),
        );

        // ---- Step 3: greedy sliding-window swap.
        let mut ev = IncrementalEvaluator::new(inst, mapping);
        if self.window >= 2 {
            let enabled = probe.is_enabled();
            let n = sorted.len();
            let perms = window_permutations(self.window);
            // row 0, the identity, is the current arrangement
            let candidates = &perms[self.window..];
            let max_step = self.max_step.unwrap_or(n / self.window).max(1);
            let mut window_tiles = vec![TileId(0); self.window];
            for s in 1..=max_step {
                let span = (self.window - 1) * s;
                if span >= n {
                    break;
                }
                let pass_start_obj = ev.max_apl();
                for start in 0..(n - span) {
                    if start & CANCEL_POLL_MASK == 0 && token.is_cancelled() {
                        return None;
                    }
                    for (t, wt) in window_tiles.iter_mut().enumerate() {
                        *wt = sorted[start + t * s];
                    }
                    let accepted = ev.best_window_permutation(&window_tiles, candidates);
                    if enabled {
                        if let Some((objective, delta)) = accepted {
                            probe.on_solver_event(&SolverEvent::SwapAccepted {
                                window_start: start,
                                step: s as u64,
                                objective,
                                delta,
                            });
                        }
                    }
                }
                if enabled {
                    ev.emit_delta(probe, ev.max_apl() - pass_start_obj);
                }
            }
        }

        // ---- Final SAM per application on its current tiles.
        if self.final_sam {
            let mut mapping = ev.into_mapping();
            for i in 0..inst.num_apps() {
                if token.is_cancelled() {
                    return None;
                }
                let threads: Vec<usize> = inst.app_threads(i).collect();
                let tiles: Vec<TileId> = threads.iter().map(|&j| mapping.tile_of(j)).collect();
                let sam = solve_sam(inst, &threads, &tiles);
                for (t, &tile) in threads.iter().zip(&sam.assignment) {
                    mapping.set_tile(*t, tile);
                }
            }
            debug_assert!(mapping.is_valid_for(inst));
            Some(mapping)
        } else {
            Some(ev.into_mapping())
        }
    }
}

/// Tiles sorted ascending by `TC(k)`, ties broken by index (deterministic).
fn sorted_tiles(inst: &ObmInstance) -> Vec<TileId> {
    let mut tiles: Vec<TileId> = (0..inst.num_tiles()).map(TileId).collect();
    tiles.sort_by(|&a, &b| {
        inst.tiles()
            .tc(a)
            .partial_cmp(&inst.tiles().tc(b))
            .expect("finite TC")
            .then(a.index().cmp(&b.index()))
    });
    tiles
}

/// Indices (into the remaining list) of the tile chosen from each of
/// `sections` equal-length sections.
fn select_sections(remaining: &[TileId], sections: usize, rule: SelectionRule) -> Vec<usize> {
    let len = remaining.len();
    assert!(sections >= 1 && sections <= len);
    (0..sections)
        .map(|s| {
            let start = s * len / sections;
            let end = (s + 1) * len / sections;
            debug_assert!(start < end);
            match rule {
                SelectionRule::Middle => (start + end - 1) / 2,
                SelectionRule::First => start,
                SelectionRule::Last => end - 1,
            }
        })
        .collect()
}

/// Remove the (ascending) `indices` from `v`.
fn remove_indices(v: &mut Vec<TileId>, indices: &[usize]) {
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
    for &idx in indices.iter().rev() {
        v.remove(idx);
    }
}

/// The `w!` permutations of a window's slots, identity first, flattened
/// row-major with `w` entries per row. The paper's window size borrows
/// the compile-time permutation table; other sizes are enumerated once
/// per solve.
fn window_permutations(w: usize) -> Cow<'static, [usize]> {
    if w == 4 {
        Cow::Borrowed(PERMS4.as_flattened())
    } else {
        Cow::Owned(enumerate_permutations(w))
    }
}

/// All permutations of `0..w` in lexicographic order (identity first),
/// flattened row-major.
fn enumerate_permutations(w: usize) -> Vec<usize> {
    let mut rows = Vec::new();
    let mut items: Vec<usize> = (0..w).collect();
    heap_permute(&mut items, w, &mut rows);
    rows.sort();
    rows.concat()
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Global, Mapper};
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fig5_instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    fn random_8x8_instance(seed: u64) -> ObmInstance {
        let mesh = Mesh::square(8);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut c = Vec::with_capacity(64);
        for app in 0..4 {
            let scale = [0.5, 1.5, 4.0, 9.0][app];
            for _ in 0..16 {
                c.push(scale * rng.gen_range(0.2..2.0));
            }
        }
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 16, 32, 48, 64], c, m)
    }

    #[test]
    fn sss_finds_fig5_optimum() {
        // The paper's 4×4 example has a known optimum: every app at
        // 10.3375 cycles. SSS should land exactly there.
        let inst = fig5_instance();
        let r = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
        assert!(
            (r.max_apl - 10.3375).abs() < 1e-9,
            "SSS max-APL {} != 10.3375",
            r.max_apl
        );
        assert!(r.dev_apl < 1e-9, "dev-APL {}", r.dev_apl);
    }

    #[test]
    fn sss_beats_global_on_max_apl() {
        for seed in 0..3 {
            let inst = random_8x8_instance(seed);
            let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
            let glob = evaluate(&inst, &Global.map(&inst, 0));
            assert!(
                sss.max_apl <= glob.max_apl + 1e-9,
                "seed {seed}: SSS {} vs Global {}",
                sss.max_apl,
                glob.max_apl
            );
            assert!(
                sss.dev_apl < glob.dev_apl,
                "seed {seed}: SSS dev {} vs Global dev {}",
                sss.dev_apl,
                glob.dev_apl
            );
        }
    }

    #[test]
    fn sss_g_apl_close_to_global() {
        // Figure 10: SSS pays less than ~6% g-APL over the Global optimum.
        let inst = random_8x8_instance(11);
        let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
        let glob = evaluate(&inst, &Global.map(&inst, 0));
        assert!(
            sss.g_apl <= glob.g_apl * 1.06,
            "SSS g-APL {} vs Global {}",
            sss.g_apl,
            glob.g_apl
        );
    }

    #[test]
    fn sss_is_deterministic() {
        let inst = random_8x8_instance(5);
        assert_eq!(
            SortSelectSwap::default().map(&inst, 0),
            SortSelectSwap::default().map(&inst, 42)
        );
    }

    #[test]
    fn swap_step_never_hurts() {
        // With swapping disabled the result must be no better than with it.
        let inst = random_8x8_instance(7);
        let no_swap = SortSelectSwap {
            window: 1,
            ..Default::default()
        };
        let with_swap = SortSelectSwap::default();
        let a = evaluate(&inst, &no_swap.map(&inst, 0)).max_apl;
        let b = evaluate(&inst, &with_swap.map(&inst, 0)).max_apl;
        assert!(b <= a + 1e-9, "swap made things worse: {b} > {a}");
    }

    #[test]
    fn selection_rules_all_yield_valid_mappings() {
        let inst = random_8x8_instance(9);
        for rule in [
            SelectionRule::Middle,
            SelectionRule::First,
            SelectionRule::Last,
        ] {
            let cfg = SortSelectSwap {
                selection: rule,
                ..Default::default()
            };
            assert!(cfg.map(&inst, 0).is_valid_for(&inst));
        }
    }

    #[test]
    fn spare_tiles_supported() {
        // 10 threads on 16 tiles: SSS must leave 6 tiles empty and still
        // produce a valid mapping.
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tl, vec![0, 5, 10], vec![1.0; 10], vec![0.1; 10]);
        let m = SortSelectSwap::default().map(&inst, 0);
        assert!(m.is_valid_for(&inst));
    }

    #[test]
    fn select_sections_middle_of_16_into_16() {
        let tiles: Vec<TileId> = (0..16).map(TileId).collect();
        let idx = select_sections(&tiles, 16, SelectionRule::Middle);
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn select_sections_middle_of_16_into_4() {
        let tiles: Vec<TileId> = (0..16).map(TileId).collect();
        // Sections [0,4) [4,8) [8,12) [12,16); middles 1, 5, 9, 13
        // ((start+end-1)/2 with integer floor).
        let idx = select_sections(&tiles, 4, SelectionRule::Middle);
        assert_eq!(idx, vec![1, 5, 9, 13]);
    }

    #[test]
    fn permutation_table_sizes() {
        for (w, count) in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720)] {
            let perms = window_permutations(w);
            assert_eq!(perms.len(), count * w, "window {w}");
            assert_eq!(&perms[..w], (0..w).collect::<Vec<_>>(), "identity first");
        }
    }

    #[test]
    fn enumerated_perms4_match_const_table() {
        assert_eq!(enumerate_permutations(4), PERMS4.as_flattened());
    }

    #[test]
    fn probed_map_matches_map_and_emits_events() {
        use noc_telemetry::{RingSink, SolverEvent};
        let inst = random_8x8_instance(3);
        let sss = SortSelectSwap::default();
        let plain = sss.map(&inst, 0);
        let mut sink = RingSink::new(1 << 16);
        let probed = sss.map_probed(&inst, 0, &mut sink);
        assert_eq!(plain, probed, "probe perturbed the search");
        assert_eq!(sink.dropped(), 0);
        let mut swaps = 0usize;
        let mut deltas = 0usize;
        for e in sink.solver_events() {
            match e {
                SolverEvent::SwapAccepted { delta, .. } => {
                    swaps += 1;
                    assert!(*delta < 0.0, "accepted swap must improve: {delta}");
                }
                SolverEvent::EvalDelta { edits, .. } => {
                    deltas += 1;
                    assert!(*edits > 0);
                }
                other => panic!("unexpected event from SSS: {other:?}"),
            }
        }
        assert!(swaps > 0, "expected accepted swaps on a random instance");
        assert!(deltas > 0, "expected one eval-delta per step-size pass");
    }

    #[test]
    fn cancelled_token_yields_none_quiet_token_matches_map() {
        let inst = random_8x8_instance(3);
        let sss = SortSelectSwap::default();
        let fired = CancelToken::new();
        fired.cancel();
        assert!(sss
            .map_cancellable(&inst, 0, &fired, &mut NoopSink)
            .is_none());
        assert_eq!(
            sss.map_cancellable(&inst, 0, &CancelToken::never(), &mut NoopSink),
            Some(sss.map(&inst, 0))
        );
    }

    #[test]
    fn window_sizes_2_through_5_work() {
        let inst = fig5_instance();
        for w in 2..=5 {
            let cfg = SortSelectSwap {
                window: w,
                ..Default::default()
            };
            let m = cfg.map(&inst, 0);
            assert!(m.is_valid_for(&inst), "window {w}");
        }
    }
}
