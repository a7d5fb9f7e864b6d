//! Pluggable mapping objectives (DESIGN.md §14.3).
//!
//! The paper's formulation fixes one objective — minimize the maximum
//! per-application APL (Eq. 6) — but the machinery around it (SSS, the
//! portfolio, the online controller) only needs *a* scalar to minimize.
//! [`Objective`] is that seam: a pure function from an
//! [`IncrementalEvaluator`]'s state (its per-application sums, its
//! mapping, its instance) to a lower-is-better score, so the exchange
//! search [`refine_for_objective`] scores a candidate without building a
//! report.
//!
//! Implementations:
//!
//! * [`MinMaxApl`] — the paper's objective. Its score is
//!   [`IncrementalEvaluator::max_apl`], **bit-identical** to
//!   [`AplReport::max_apl`](crate::AplReport::max_apl), so every
//!   pre-existing golden stays valid when it is selected;
//!   `tests/properties.rs` pins the identity by proptest.
//! * [`MaxMinBalance`] — the spread `max − min` of the weighted
//!   per-application APLs `w_i·d_i` (plain APLs for unit weights), the
//!   "balance" criterion the paper's Figure 5 warns about: a mapping can
//!   be perfectly balanced yet uniformly slow, so this objective is for
//!   ablations, not for reproducing the paper's numbers.
//! * [`Energy`] — analytic dynamic NoC power (mW) of the induced traffic,
//!   mirroring `noc-power`'s `analytic_power` (Marcon et al.,
//!   arXiv 0710.4738 motivates energy-aware mapping objectives).
//! * [`MigrationPenalized`] — wraps any base objective and adds
//!   `weight × Σ_j manhattan(reference(j), mapping(j))`, the thread-
//!   migration cost the online [`RemapController`](crate::remap)
//!   charges a candidate remapping.
//!
//! [`ObjectiveSpec`] is the serializable / CLI-parsable selector
//! (`--objective min-max-apl|max-min-balance|energy`) that builds the
//! corresponding boxed objective.

use crate::eval::IncrementalEvaluator;
use crate::problem::{Mapping, ObmInstance};
use noc_model::Mesh;
use noc_power::PowerParams;

/// A mapping objective: evaluator state → lower-is-better scalar.
///
/// Implementations must be pure (no interior state, no randomness): the
/// portfolio engine scores candidates from multiple worker threads and
/// relies on identical inputs producing identical bits. They read the
/// evaluator's running sums and allocate nothing, so the exchange search
/// scores each candidate in place.
pub trait Objective: Send + Sync + std::fmt::Debug {
    /// Short stable name (used in logs and solver telemetry).
    fn name(&self) -> &'static str;

    /// Score the evaluator's current mapping; smaller is better.
    fn score(&self, ev: &IncrementalEvaluator<'_>) -> f64;

    /// `true` iff [`score`](Self::score) returns exactly
    /// [`IncrementalEvaluator::max_apl`] for every input — the flag the
    /// hot paths use to keep the pre-objective-API code paths (and their
    /// bit-exact goldens) when the paper's objective is selected.
    fn is_min_max_apl(&self) -> bool {
        false
    }
}

/// The paper's Eq. (6) objective: minimize `max_i w_i·d_i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMaxApl;

impl Objective for MinMaxApl {
    fn name(&self) -> &'static str {
        "min-max-apl"
    }

    fn score(&self, ev: &IncrementalEvaluator<'_>) -> f64 {
        ev.max_apl()
    }

    fn is_min_max_apl(&self) -> bool {
        true
    }
}

/// Minimize the spread of the weighted per-application APLs,
/// `max_i w_i·d_i − min_i w_i·d_i`: both ends on the scale of the Eq. (6)
/// objective, so for unit weights this is the plain `max_i d_i − min_i
/// d_i` (bit for bit, since `1.0·d == d`).
///
/// This is the "balance only" criterion the paper's Figure 5 argues
/// against: both the optimal and the uniformly-bad mapping there have
/// zero spread. Provided for ablations against [`MinMaxApl`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxMinBalance;

impl Objective for MaxMinBalance {
    fn name(&self) -> &'static str {
        "max-min-balance"
    }

    fn score(&self, ev: &IncrementalEvaluator<'_>) -> f64 {
        let inst = ev.instance();
        let min = (0..inst.num_apps())
            .map(|i| inst.app_weight(i) * ev.app_apl(i))
            .fold(f64::INFINITY, f64::min);
        ev.max_apl() - min
    }
}

/// Minimize analytic dynamic NoC power (mW) of the mapped traffic.
///
/// Computes exactly what `noc_power::analytic_power` reports as
/// `dynamic_mw` for the loads the mapping induces (per-kilocycle instance
/// rates ÷ 1000, each thread on its mapped tile): expected flit-hop
/// energy per cycle from the closed-form hop averages `H̄C`/`H̄M` of the
/// latency model. Static power is mapping-independent and omitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Energy {
    /// Technology point (defaults to [`PowerParams::dsent_45nm`]).
    pub params: PowerParams,
    /// Mean flits per packet (3.0 for the paper's even request/reply mix).
    pub flits_per_packet: f64,
}

impl Default for Energy {
    fn default() -> Self {
        Energy {
            params: PowerParams::dsent_45nm(),
            flits_per_packet: 3.0,
        }
    }
}

impl Objective for Energy {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn score(&self, ev: &IncrementalEvaluator<'_>) -> f64 {
        let (inst, mapping) = (ev.instance(), ev.mapping());
        let tl = inst.tiles();
        let n = inst.num_tiles() as f64;
        let mut energy_pj_per_cycle = 0.0;
        for j in 0..inst.num_threads() {
            let tile = mapping.tile_of(j);
            // Rates are per kilocycle in the instance; per cycle here.
            let cache_rate = inst.cache_rate(j) / 1000.0;
            let mem_rate = inst.mem_rate(j) / 1000.0;
            let hc = tl.cache_hops(tile);
            // 1/N of cache packets stay on-tile: E[routers] = hc + (N-1)/N.
            let cache_routers = hc + (n - 1.0) / n;
            energy_pj_per_cycle += cache_rate
                * self.flits_per_packet
                * (cache_routers * self.params.router_energy_pj + hc * self.params.link_energy_pj);
            let hm = tl.mem_hops(tile);
            let mem_routers = if hm > 0.0 { hm + 1.0 } else { 0.0 };
            energy_pj_per_cycle += mem_rate
                * self.flits_per_packet
                * (mem_routers * self.params.router_energy_pj + hm * self.params.link_energy_pj);
        }
        // pJ/cycle → mW at the configured clock (identical arithmetic to
        // noc_power::analytic_power, pinned by the unit test below).
        let cycle_seconds = 1.0 / (self.params.frequency_ghz * 1e9);
        energy_pj_per_cycle * 1e-12 / cycle_seconds * 1e3
    }
}

/// Wraps a base objective with a thread-migration penalty against a
/// reference mapping: `base + weight × Σ_j manhattan(ref(j), new(j))`.
///
/// The online controller scores candidate remappings with this so a
/// marginal APL gain never justifies mass migration; `weight` is in the
/// base objective's units per Manhattan hop moved.
#[derive(Debug, Clone)]
pub struct MigrationPenalized<O> {
    /// The wrapped objective.
    pub base: O,
    /// The incumbent mapping migrations are charged against.
    pub reference: Mapping,
    /// Penalty per Manhattan hop of thread movement.
    pub weight: f64,
    /// Mesh geometry the Manhattan distances live on.
    pub mesh: Mesh,
}

/// Total Manhattan distance threads travel going from `from` to `to`,
/// over the common thread-index prefix of the two mappings.
pub fn migration_distance(mesh: &Mesh, from: &Mapping, to: &Mapping) -> u64 {
    let n = from.num_threads().min(to.num_threads());
    (0..n)
        .map(|j| {
            mesh.coord(from.tile_of(j))
                .manhattan(mesh.coord(to.tile_of(j))) as u64
        })
        .sum()
}

/// Number of threads on different tiles in `from` vs `to` (common prefix).
pub fn threads_moved(from: &Mapping, to: &Mapping) -> usize {
    let n = from.num_threads().min(to.num_threads());
    (0..n).filter(|&j| from.tile_of(j) != to.tile_of(j)).count()
}

impl<O: Objective> Objective for MigrationPenalized<O> {
    fn name(&self) -> &'static str {
        "migration-penalized"
    }

    fn score(&self, ev: &IncrementalEvaluator<'_>) -> f64 {
        self.base.score(ev)
            + self.weight * migration_distance(&self.mesh, &self.reference, ev.mapping()) as f64
    }
}

/// Serializable / CLI-parsable objective selector (`--objective …`).
///
/// The default is the paper's [`MinMaxApl`]; [`Energy`] is built at the
/// default 45 nm technology point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveSpec {
    /// The paper's Eq. (6) objective (the default).
    #[default]
    MinMaxApl,
    /// Per-application APL spread (`max − min`).
    MaxMinBalance,
    /// Analytic dynamic NoC power at the default technology point.
    Energy,
}

impl ObjectiveSpec {
    /// Stable lower-case name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveSpec::MinMaxApl => "min-max-apl",
            ObjectiveSpec::MaxMinBalance => "max-min-balance",
            ObjectiveSpec::Energy => "energy",
        }
    }

    /// Build the boxed objective this spec selects.
    pub fn build(self) -> Box<dyn Objective> {
        match self {
            ObjectiveSpec::MinMaxApl => Box::new(MinMaxApl),
            ObjectiveSpec::MaxMinBalance => Box::new(MaxMinBalance),
            ObjectiveSpec::Energy => Box::new(Energy::default()),
        }
    }

    /// Whether this spec selects the paper's objective (the bit-exact
    /// fast path everywhere).
    pub fn is_min_max_apl(self) -> bool {
        self == ObjectiveSpec::MinMaxApl
    }

    /// Score `mapping` under this spec on a fresh evaluator (for
    /// [`ObjectiveSpec::MinMaxApl`], the bits of `evaluate().max_apl`).
    pub fn score(self, inst: &ObmInstance, mapping: &Mapping) -> f64 {
        self.build()
            .score(&IncrementalEvaluator::new(inst, mapping.clone()))
    }
}

impl std::fmt::Display for ObjectiveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ObjectiveSpec {
    type Err = String;

    /// Parse a CLI spelling (`min-max-apl` / `apl`, `max-min-balance` /
    /// `balance`, `energy`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "min-max-apl" | "apl" | "minmax" => Ok(ObjectiveSpec::MinMaxApl),
            "max-min-balance" | "balance" => Ok(ObjectiveSpec::MaxMinBalance),
            "energy" => Ok(ObjectiveSpec::Energy),
            other => Err(format!(
                "unknown objective '{other}' (expected min-max-apl, max-min-balance or energy)"
            )),
        }
    }
}

/// The one pairwise tile-exchange search: best-improvement descent,
/// warm-started from `start`.
///
/// Each pass scans every tile pair `(a, b)` in ascending index order,
/// swaps it in the evaluator, scores it under `obj` straight from the
/// evaluator's sums (no report, no allocation), swaps it back, and
/// finally applies the strictly best improving exchange (`total_cmp`);
/// it stops when a pass finds no strict improvement or after `max_passes`
/// passes. Ties break toward the earliest pair scanned, so the result is
/// a pure function of `(inst, start, obj)`. It is the polish stage of
/// [`Mapper::map_objective`](crate::algorithms::Mapper::map_objective)
/// and of every task in a non-min-max portfolio race, and the
/// warm-started re-solver of the online controller.
pub fn refine_for_objective(
    inst: &ObmInstance,
    start: Mapping,
    obj: &dyn Objective,
    max_passes: usize,
) -> Mapping {
    let k = inst.num_tiles();
    let mut ev = IncrementalEvaluator::new(inst, start);
    let mut current = obj.score(&ev);
    for _ in 0..max_passes {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..k {
            for b in (a + 1)..k {
                let (ta, tb) = (noc_model::TileId(a), noc_model::TileId(b));
                let before = ev.edits();
                ev.swap_tiles(ta, tb);
                if ev.edits() == before {
                    // Two holes: nothing to score, nothing to undo.
                    continue;
                }
                let s = obj.score(&ev);
                ev.swap_tiles(ta, tb);
                let improves = match best {
                    Some((_, _, bs)) => s.total_cmp(&bs) == std::cmp::Ordering::Less,
                    None => s.total_cmp(&current) == std::cmp::Ordering::Less,
                };
                if improves {
                    best = Some((a, b, s));
                }
            }
        }
        match best {
            Some((a, b, s)) => {
                ev.swap_tiles(noc_model::TileId(a), noc_model::TileId(b));
                current = s;
            }
            None => break,
        }
    }
    ev.into_mapping()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BruteForce, Global, Mapper, RandomMapper, SortSelectSwap};
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, TileId, TileLatencies};

    fn instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let c: Vec<f64> = (0..16).map(|j| 0.5 + 0.31 * j as f64).collect();
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 6, 11, 16], c, m)
    }

    /// The paper's Figure 5 setting (4×4, four apps with cache rates
    /// .1/.2/.3/.4): min-max exchange plateaus on it; optimum 10.3375.
    fn fig5() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    fn score(obj: &dyn Objective, inst: &ObmInstance, m: &Mapping) -> f64 {
        obj.score(&IncrementalEvaluator::new(inst, m.clone()))
    }

    #[test]
    fn min_max_apl_is_the_report_field_bitwise() {
        let inst = instance();
        let m = Mapping::identity(16);
        let r = evaluate(&inst, &m);
        assert_eq!(score(&MinMaxApl, &inst, &m).to_bits(), r.max_apl.to_bits());
        assert_eq!(
            ObjectiveSpec::MinMaxApl.score(&inst, &m).to_bits(),
            r.max_apl.to_bits()
        );
        assert!(MinMaxApl.is_min_max_apl());
        assert!(!MaxMinBalance.is_min_max_apl());
    }

    #[test]
    fn energy_matches_noc_power_analytic() {
        let inst = instance();
        let mesh = Mesh::square(4);
        let m = SortSelectSwap::default().map(&inst, 0);
        let obj = Energy::default();
        let loads: Vec<noc_power::PlacedLoad> = (0..inst.num_threads())
            .map(|j| noc_power::PlacedLoad {
                tile: m.tile_of(j),
                cache_rate: inst.cache_rate(j) / 1000.0,
                mem_rate: inst.mem_rate(j) / 1000.0,
            })
            .collect();
        let direct =
            noc_power::analytic_power(&obj.params, &mesh, inst.tiles(), &loads, 3.0).dynamic_mw;
        assert!((score(&obj, &inst, &m) - direct).abs() < 1e-12);
    }

    #[test]
    fn energy_prefers_central_heavy_threads() {
        // One heavy cache thread: center placement must score lower
        // (less energy) than corner placement.
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let inst = ObmInstance::new(tiles, vec![0, 1], vec![10.0], vec![0.0]);
        let obj = Energy::default();
        let corner = Mapping::new(vec![TileId(0)]);
        let center = Mapping::new(vec![TileId(5)]);
        assert!(score(&obj, &inst, &center) < score(&obj, &inst, &corner));
    }

    #[test]
    fn migration_penalty_charges_manhattan_hops() {
        let inst = instance();
        let mesh = Mesh::square(4);
        let reference = Mapping::identity(16);
        let obj = MigrationPenalized {
            base: MinMaxApl,
            reference: reference.clone(),
            weight: 0.5,
            mesh,
        };
        let r0 = evaluate(&inst, &reference);
        assert_eq!(
            score(&obj, &inst, &reference).to_bits(),
            r0.max_apl.to_bits(),
            "no movement, no penalty"
        );
        // Swap threads on tiles 0 and 15: each moves 6 Manhattan hops.
        let mut tiles: Vec<TileId> = (0..16).map(TileId).collect();
        tiles.swap(0, 15);
        let moved = Mapping::new(tiles);
        assert_eq!(migration_distance(&mesh, &reference, &moved), 12);
        assert_eq!(threads_moved(&reference, &moved), 2);
        let rm = evaluate(&inst, &moved);
        assert!((score(&obj, &inst, &moved) - (rm.max_apl + 0.5 * 12.0)).abs() < 1e-12);
    }

    #[test]
    fn spec_round_trips_and_builds() {
        for spec in [
            ObjectiveSpec::MinMaxApl,
            ObjectiveSpec::MaxMinBalance,
            ObjectiveSpec::Energy,
        ] {
            let parsed: ObjectiveSpec = spec.name().parse().expect("round trip");
            assert_eq!(parsed, spec);
            assert_eq!(spec.build().name(), spec.name());
        }
        assert_eq!(
            "balance".parse::<ObjectiveSpec>().expect("alias"),
            ObjectiveSpec::MaxMinBalance
        );
        assert!("latency".parse::<ObjectiveSpec>().is_err());
        assert_eq!(ObjectiveSpec::default(), ObjectiveSpec::MinMaxApl);
    }

    #[test]
    fn refine_never_worsens_and_is_deterministic() {
        let inst = instance();
        let start = Mapping::identity(16);
        let before = ObjectiveSpec::MaxMinBalance.score(&inst, &start);
        let a = refine_for_objective(&inst, start.clone(), &MaxMinBalance, 32);
        let b = refine_for_objective(&inst, start, &MaxMinBalance, 32);
        assert_eq!(a.as_slice(), b.as_slice(), "refinement must be pure");
        let after = ObjectiveSpec::MaxMinBalance.score(&inst, &a);
        assert!(after <= before, "refine worsened: {before} -> {after}");
        assert!(a.is_valid_for(&inst));
    }

    #[test]
    fn refine_reaches_a_local_optimum_one_more_pass_certifies() {
        // Not on Figure 5's instance: its apps tie exactly, and a fresh
        // evaluator's sums can break such a tie by an ulp.
        let inst = instance();
        let start = RandomMapper.map(&inst, 5);
        let before = evaluate(&inst, &start).max_apl;
        let local = refine_for_objective(&inst, start, &MinMaxApl, 1_000);
        let after = evaluate(&inst, &local).max_apl;
        assert!(after < before, "a random start should be improvable");
        let again = refine_for_objective(&inst, local.clone(), &MinMaxApl, 1);
        assert_eq!(again, local, "one more pass found an improving exchange");
        // SSS already hits Figure 5's optimum; the search keeps its value
        // (it may trade one exact tie for an ulp-lower one).
        let inst = fig5();
        let sss = SortSelectSwap::default().map(&inst, 0);
        let kept = refine_for_objective(&inst, sss, &MinMaxApl, 10);
        assert!((evaluate(&inst, &kept).max_apl - 10.3375).abs() < 1e-9);
    }

    #[test]
    fn refine_respects_exact_optimum_and_never_worsens_global() {
        let mesh = Mesh::new(2, 3);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let inst = ObmInstance::new(
            tl,
            vec![0, 3, 6],
            vec![1.0, 4.0, 2.0, 3.0, 5.0, 0.5],
            vec![0.1; 6],
        );
        let best = evaluate(&inst, &BruteForce.map(&inst, 0)).max_apl;
        let from_random = refine_for_objective(&inst, RandomMapper.map(&inst, 1), &MinMaxApl, 64);
        assert!(evaluate(&inst, &from_random).max_apl >= best - 1e-9);

        let inst = fig5();
        let glob = Global.map(&inst, 0);
        let refined = refine_for_objective(&inst, glob.clone(), &MinMaxApl, 64);
        assert!(evaluate(&inst, &refined).max_apl <= evaluate(&inst, &glob).max_apl);
    }
}
