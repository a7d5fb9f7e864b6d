//! Closed-loop online remapping (DESIGN.md §14): the paper's §IV.B
//! argument — SSS is fast enough to re-run whenever runtime statistics
//! drift — made executable against the simulator's own telemetry.
//!
//! [`RemapController`] implements [`noc_sim::SwapController`]: plugged
//! into [`Network::run_controlled`](noc_sim::Network::run_controlled) it
//! observes every flushed measurement window, re-estimates per-thread
//! request rates from the per-source packet counters, detects when a
//! realized per-application APL drifts past a configurable threshold
//! from its mapping-time baseline, re-solves warm-started from the
//! incumbent under a migration-penalized objective, and — when the
//! penalized score strictly improves — swaps the mapping at that window
//! boundary, mid-simulation, without draining the network.
//!
//! The controller is a deterministic state machine
//! (§14.1: `Calibrate → Monitor → {Resolve} → Cooldown → Calibrate`):
//! its decisions are a pure function of the window stream, so a fixed
//! simulation seed yields a bit-identical run, remap cycles and final
//! mapping (pinned by `tests/remap.rs`).

use crate::eval::evaluate;
use crate::objective::{
    migration_distance, refine_for_objective, threads_moved, MigrationPenalized, MinMaxApl,
};
use crate::problem::{Mapping, ObmInstance};
use noc_metrics::MetricsHandle;
use noc_model::{Mesh, TileId};
use noc_sim::SourceCounters;
use noc_telemetry::WindowRecord;

/// Tuning knobs of the online controller. All fields have conservative
/// defaults; construct with `RemapConfig::default()` and override.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapConfig {
    /// Relative per-application APL drift (vs. the post-mapping
    /// baseline) that arms a re-solve.
    pub drift_threshold: f64,
    /// Migration penalty per Manhattan hop of thread movement, in
    /// APL cycles (the [`MigrationPenalized`] weight).
    pub migration_weight: f64,
    /// Minimum packets an application must eject in a window for that
    /// window's APL to count (noise gate).
    pub min_window_packets: u64,
    /// Measurement windows averaged into the post-(re)mapping baseline.
    pub calibration_windows: u32,
    /// Measurement windows to hold off after a re-solve (accepted or
    /// not) before re-calibrating and re-arming.
    pub cooldown_windows: u32,
    /// Hard cap on accepted remaps per run.
    pub max_remaps: u32,
    /// EWMA smoothing factor for per-source rate re-estimation
    /// (`est ← α·observed + (1−α)·est`, `α ∈ (0, 1]`).
    pub rate_ewma: f64,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            drift_threshold: 0.15,
            migration_weight: 0.02,
            min_window_packets: 32,
            calibration_windows: 2,
            cooldown_windows: 2,
            max_remaps: 8,
            rate_ewma: 0.5,
        }
    }
}

/// A rejected [`RemapController`] construction.
#[derive(Debug, Clone, PartialEq)]
pub enum RemapError {
    /// The mapping is not valid for the instance.
    InvalidMapping,
    /// The mesh does not have the instance's tile count.
    MeshMismatch {
        /// Tiles on the supplied mesh.
        mesh_tiles: usize,
        /// Tiles the instance expects.
        instance_tiles: usize,
    },
    /// A config field is outside its domain (named in the message).
    BadConfig(&'static str),
}

impl std::fmt::Display for RemapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemapError::InvalidMapping => {
                write!(f, "mapping is not valid for the instance")
            }
            RemapError::MeshMismatch {
                mesh_tiles,
                instance_tiles,
            } => write!(
                f,
                "mesh has {mesh_tiles} tiles but the instance has {instance_tiles}"
            ),
            RemapError::BadConfig(what) => write!(f, "invalid remap config: {what}"),
        }
    }
}

impl std::error::Error for RemapError {}

/// One accepted mid-run mapping swap.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapEvent {
    /// Cycle the swap was applied at (the flushed window's end; packets
    /// spawned from this cycle on use the new mapping).
    pub cycle: u64,
    /// Index of the triggering [`WindowRecord`].
    pub window: u64,
    /// Application whose drift armed the re-solve.
    pub app: usize,
    /// Its realized APL in the triggering window.
    pub realized_apl: f64,
    /// Its post-mapping baseline APL.
    pub baseline_apl: f64,
    /// Relative drift `|realized − baseline| / baseline`.
    pub drift: f64,
    /// Threads on a different tile after the swap.
    pub threads_moved: usize,
    /// Total Manhattan hops those threads travelled.
    pub migration_cost: u64,
    /// Analytic max-APL of the incumbent under the re-estimated rates.
    pub predicted_before: f64,
    /// Analytic max-APL of the accepted mapping under the same rates.
    pub predicted_after: f64,
}

/// §14.1 controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Accumulating the per-app baseline over the next N windows.
    Calibrating(u32),
    /// Armed: comparing realized APLs against the baseline.
    Monitoring,
    /// Holding off after a re-solve for N more windows.
    Cooldown(u32),
}

/// Pass budget of the controller's warm-started pairwise-exchange
/// re-solve ([`refine_for_objective`]).
const REFINE_PASSES: usize = 64;

/// The closed-loop online remapping controller. See the module docs.
#[derive(Debug, Clone)]
pub struct RemapController {
    cfg: RemapConfig,
    mesh: Mesh,
    /// Mapping-time per-thread rates (per kilocycle) — the denominators
    /// of the rate re-estimation.
    base_c: Vec<f64>,
    base_m: Vec<f64>,
    /// Current instance estimate (mapping-time instance until the first
    /// accepted re-solve, then rebuilt with re-estimated rates).
    inst: ObmInstance,
    /// Incumbent mapping (what the sources currently fly under).
    mapping: Mapping,
    state: State,
    /// Per-app latency/packet sums being accumulated into a baseline.
    baseline_lat: Vec<f64>,
    baseline_pkts: Vec<u64>,
    /// Fixed per-app baseline APL (0 = app was silent while calibrating).
    baseline: Vec<f64>,
    /// Cumulative per-source (cache, memory) packet counts at the
    /// previous window.
    prev_counts: Vec<(u64, u64)>,
    /// EWMA per-source cache / memory request rate estimates
    /// (packets per kilocycle) — tracked per class so a workload whose
    /// cache/memory *mix* shifts (not just its magnitude) re-solves
    /// against the right cost model.
    est_c: Vec<f64>,
    est_m: Vec<f64>,
    events: Vec<RemapEvent>,
    /// Re-solves triggered (accepted or rejected) — solver-effort gauge.
    solves: u64,
    /// Write-only runtime metrics sink (DESIGN.md §17): `remap_*`
    /// counters, the `remap_migrated_threads` histogram and the
    /// `remap/resolve` span. Disabled by default; never read back, so
    /// controller decisions are unchanged by it.
    metrics: MetricsHandle,
}

impl RemapController {
    /// Build a controller for `inst` currently running `mapping` on
    /// `mesh`, with default tuning.
    pub fn new(inst: ObmInstance, mapping: Mapping, mesh: Mesh) -> Result<Self, RemapError> {
        Self::with_config(inst, mapping, mesh, RemapConfig::default())
    }

    /// Build a controller with explicit tuning.
    pub fn with_config(
        inst: ObmInstance,
        mapping: Mapping,
        mesh: Mesh,
        cfg: RemapConfig,
    ) -> Result<Self, RemapError> {
        if !mapping.is_valid_for(&inst) {
            return Err(RemapError::InvalidMapping);
        }
        if mesh.num_tiles() != inst.num_tiles() {
            return Err(RemapError::MeshMismatch {
                mesh_tiles: mesh.num_tiles(),
                instance_tiles: inst.num_tiles(),
            });
        }
        if !(cfg.drift_threshold > 0.0 && cfg.drift_threshold.is_finite()) {
            return Err(RemapError::BadConfig(
                "drift_threshold must be finite and > 0",
            ));
        }
        if !(cfg.migration_weight >= 0.0 && cfg.migration_weight.is_finite()) {
            return Err(RemapError::BadConfig(
                "migration_weight must be finite and >= 0",
            ));
        }
        if !(cfg.rate_ewma > 0.0 && cfg.rate_ewma <= 1.0) {
            return Err(RemapError::BadConfig("rate_ewma must be in (0, 1]"));
        }
        if cfg.calibration_windows == 0 {
            return Err(RemapError::BadConfig("calibration_windows must be >= 1"));
        }
        let n = inst.num_threads();
        let a = inst.num_apps();
        let base_c: Vec<f64> = (0..n).map(|j| inst.cache_rate(j)).collect();
        let base_m: Vec<f64> = (0..n).map(|j| inst.mem_rate(j)).collect();
        Ok(RemapController {
            cfg,
            mesh,
            est_c: base_c.clone(),
            est_m: base_m.clone(),
            base_c,
            base_m,
            inst,
            mapping,
            state: State::Calibrating(0),
            baseline_lat: vec![0.0; a],
            baseline_pkts: vec![0; a],
            baseline: vec![0.0; a],
            prev_counts: vec![(0, 0); n],
            events: Vec::new(),
            solves: 0,
            metrics: MetricsHandle::disabled(),
        })
    }

    /// Attach a runtime-metrics handle (DESIGN.md §17). The controller
    /// then counts observed windows, state transitions, re-solves and
    /// accept/reject outcomes, records migrated-thread counts in the
    /// `remap_migrated_threads` histogram, and times each re-solve under
    /// the `remap/resolve` span. Metrics never influence its decisions.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Accepted remap events, in order.
    pub fn events(&self) -> &[RemapEvent] {
        &self.events
    }

    /// Number of accepted remaps.
    pub fn remap_count(&self) -> usize {
        self.events.len()
    }

    /// Re-solves triggered, including ones whose candidate was rejected.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total Manhattan hops migrated across all accepted remaps.
    pub fn total_migration_cost(&self) -> u64 {
        self.events.iter().map(|e| e.migration_cost).sum()
    }

    /// The incumbent mapping (final mapping once the run ends).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The controller's current instance estimate (mapping-time rates
    /// until a re-solve, re-estimated rates after).
    pub fn instance(&self) -> &ObmInstance {
        &self.inst
    }

    /// Fold one window's per-source, per-class packet deltas into the
    /// EWMA rate estimates (packets per kilocycle).
    fn update_rates(&mut self, per_source: &[SourceCounters], width: u64) {
        let alpha = self.cfg.rate_ewma;
        for j in 0..self.est_c.len() {
            let (prev_c, prev_m) = self.prev_counts[j];
            let (total_c, total_m) = per_source
                .get(j)
                .map(|acc| (acc.cache.packets, acc.mem.packets))
                .unwrap_or((prev_c, prev_m));
            self.prev_counts[j] = (total_c, total_m);
            let observed_c = total_c.saturating_sub(prev_c) as f64 * 1000.0 / width as f64;
            let observed_m = total_m.saturating_sub(prev_m) as f64 * 1000.0 / width as f64;
            self.est_c[j] = alpha * observed_c + (1.0 - alpha) * self.est_c[j];
            self.est_m[j] = alpha * observed_m + (1.0 - alpha) * self.est_m[j];
        }
    }

    /// The instance with per-thread rates replaced by the current
    /// per-class estimates, each clamped to three decades around its
    /// mapping-time value (keeping every application's volume positive
    /// while letting the cache/memory *mix* drift freely — a thread that
    /// turns memory-bound re-solves against memory-bound costs).
    fn reestimated_instance(&self) -> ObmInstance {
        let n = self.inst.num_threads();
        let clamp = |est: f64, base: f64| {
            if base > 0.0 {
                est.clamp(base * 1e-3, base * 1e3)
            } else {
                est.max(0.0)
            }
        };
        let c: Vec<f64> = (0..n)
            .map(|j| clamp(self.est_c[j], self.base_c[j]))
            .collect();
        let m: Vec<f64> = (0..n)
            .map(|j| clamp(self.est_m[j], self.base_m[j]))
            .collect();
        let rebuilt = ObmInstance::new(
            self.inst.tiles().clone(),
            self.inst.boundaries().to_vec(),
            c,
            m,
        );
        if self.inst.is_weighted() {
            let weights = (0..self.inst.num_apps())
                .map(|i| self.inst.app_weight(i))
                .collect();
            rebuilt.with_app_weights(weights)
        } else {
            rebuilt
        }
    }

    /// Run the warm-started migration-penalized re-solve against the
    /// re-estimated instance. Returns the retarget vector when the
    /// candidate strictly beats the incumbent's penalized score.
    fn resolve(
        &mut self,
        trigger: (usize, f64, f64, f64),
        rec: &WindowRecord,
    ) -> Option<Vec<TileId>> {
        self.solves += 1;
        self.metrics.inc("remap_solves_total");
        let _span = self.metrics.span("remap/resolve");
        let inst = self.reestimated_instance();
        let objective = MigrationPenalized {
            base: MinMaxApl,
            reference: self.mapping.clone(),
            weight: self.cfg.migration_weight,
            mesh: self.mesh,
        };
        let incumbent_score = evaluate(&inst, &self.mapping).max_apl;
        let candidate =
            refine_for_objective(&inst, self.mapping.clone(), &objective, REFINE_PASSES);
        let moved = threads_moved(&self.mapping, &candidate);
        let report = evaluate(&inst, &candidate);
        let candidate_score = report.max_apl
            + self.cfg.migration_weight
                * migration_distance(&self.mesh, &self.mapping, &candidate) as f64;
        if moved == 0 || candidate_score.total_cmp(&incumbent_score) != std::cmp::Ordering::Less {
            self.metrics.inc("remap_rejected_total");
            return None;
        }
        self.metrics.inc("remap_accepted_total");
        self.metrics.observe("remap_migrated_threads", moved as u64);
        let (app, realized, baseline, drift) = trigger;
        self.events.push(RemapEvent {
            cycle: rec.end_cycle,
            window: rec.index,
            app,
            realized_apl: realized,
            baseline_apl: baseline,
            drift,
            threads_moved: moved,
            migration_cost: migration_distance(&self.mesh, &self.mapping, &candidate),
            predicted_before: incumbent_score,
            predicted_after: report.max_apl,
        });
        self.mapping = candidate;
        self.inst = inst;
        let tiles = (0..self.mapping.num_threads())
            .map(|j| self.mapping.tile_of(j))
            .collect();
        Some(tiles)
    }
}

impl noc_sim::SwapController for RemapController {
    fn on_window(
        &mut self,
        record: &WindowRecord,
        per_source: &[SourceCounters],
    ) -> Option<Vec<TileId>> {
        // Warmup windows carry transient latencies and no measured
        // per-source counts; drain windows carry stragglers only.
        if !record.phase.is_measure() {
            return None;
        }
        let width = record.width();
        if width == 0 {
            return None;
        }
        self.update_rates(per_source, width);
        self.metrics.inc("remap_windows_total");
        match self.state {
            State::Calibrating(seen) => {
                for (i, acc) in record.groups.iter().enumerate() {
                    if i < self.baseline_lat.len() {
                        self.baseline_lat[i] += acc.total_latency;
                        self.baseline_pkts[i] += acc.packets;
                    }
                }
                if seen + 1 >= self.cfg.calibration_windows {
                    for i in 0..self.baseline.len() {
                        self.baseline[i] = if self.baseline_pkts[i] > 0 {
                            self.baseline_lat[i] / self.baseline_pkts[i] as f64
                        } else {
                            0.0
                        };
                    }
                    self.state = State::Monitoring;
                    self.metrics.inc("remap_state_transitions_total");
                } else {
                    self.state = State::Calibrating(seen + 1);
                }
                None
            }
            State::Monitoring => {
                if self.events.len() >= self.cfg.max_remaps as usize {
                    return None;
                }
                // Worst relative drift among apps with a trusted window.
                let mut trigger: Option<(usize, f64, f64, f64)> = None;
                for (i, acc) in record.groups.iter().enumerate() {
                    if acc.packets < self.cfg.min_window_packets {
                        continue;
                    }
                    let baseline = match self.baseline.get(i) {
                        Some(&b) if b > 0.0 => b,
                        _ => continue,
                    };
                    let realized = acc.apl();
                    let drift = (realized - baseline).abs() / baseline;
                    let worse = match trigger {
                        Some((_, _, _, best)) => drift > best,
                        None => drift > self.cfg.drift_threshold,
                    };
                    if worse {
                        trigger = Some((i, realized, baseline, drift));
                    }
                }
                let t = trigger?;
                let swap = self.resolve(t, record);
                // Hold off either way: an accepted swap needs a fresh
                // baseline; a rejected one should not be retried every
                // window while the drift persists.
                self.state = State::Cooldown(self.cfg.cooldown_windows);
                self.metrics.inc("remap_state_transitions_total");
                swap
            }
            State::Cooldown(left) => {
                if left > 1 {
                    self.state = State::Cooldown(left - 1);
                } else {
                    self.baseline_lat.iter_mut().for_each(|v| *v = 0.0);
                    self.baseline_pkts.iter_mut().for_each(|v| *v = 0);
                    self.state = State::Calibrating(0);
                    self.metrics.inc("remap_state_transitions_total");
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Mapper, SortSelectSwap};
    use noc_model::{LatencyParams, MemoryControllers, TileLatencies};
    use noc_sim::SwapController;
    use noc_telemetry::Phase;

    fn instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        // Two 8-thread apps; app 0 front-loads its traffic on threads 0–3.
        let c = vec![
            40.0, 40.0, 40.0, 40.0, 4.0, 4.0, 4.0, 4.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0,
            12.0,
        ];
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 8, 16], c, m)
    }

    fn controller() -> RemapController {
        let inst = instance();
        let mapping = SortSelectSwap::default().map(&inst, 0);
        RemapController::new(inst, mapping, Mesh::square(4)).expect("valid controller")
    }

    /// A synthetic measure-phase window where app `i` ejects
    /// `pkts[i]` packets at `apl[i]` cycles average.
    fn window(index: u64, start: u64, width: u64, apl: &[f64], pkts: &[u64]) -> WindowRecord {
        let mut rec = WindowRecord::empty(index, start, start + width, Phase::Measure, apl.len());
        for (i, g) in rec.groups.iter_mut().enumerate() {
            for _ in 0..pkts[i] {
                g.record(apl[i].round() as u64, 2, 1, apl[i].round() as u64);
            }
        }
        rec
    }

    /// Per-source cumulative counters with `count` packets each,
    /// split between the classes like the test instance's rates
    /// (`m = 0.15·c`).
    fn sources(n: usize, count: u64) -> Vec<SourceCounters> {
        let mut acc = SourceCounters::default();
        let mem = count * 15 / 115;
        for _ in 0..count.saturating_sub(mem) {
            acc.cache.record(10, 2, 1, 8);
        }
        for _ in 0..mem {
            acc.mem.record(10, 2, 1, 8);
        }
        vec![acc; n]
    }

    #[test]
    fn construction_validates() {
        let inst = instance();
        let mapping = SortSelectSwap::default().map(&inst, 0);
        assert!(matches!(
            RemapController::new(instance(), Mapping::identity(3), Mesh::square(4)),
            Err(RemapError::InvalidMapping)
        ));
        assert!(matches!(
            RemapController::new(instance(), mapping.clone(), Mesh::square(8)),
            Err(RemapError::MeshMismatch { .. })
        ));
        let bad = RemapConfig {
            drift_threshold: 0.0,
            ..RemapConfig::default()
        };
        assert!(matches!(
            RemapController::with_config(inst, mapping, Mesh::square(4), bad),
            Err(RemapError::BadConfig(_))
        ));
    }

    #[test]
    fn ignores_non_measure_windows() {
        let mut ctrl = controller();
        let mut rec = window(0, 0, 1000, &[10.0, 10.0], &[100, 100]);
        rec.phase = Phase::Warmup;
        assert_eq!(ctrl.on_window(&rec, &sources(16, 50)), None);
        assert!(
            matches!(ctrl.state, State::Calibrating(0)),
            "no state advance"
        );
    }

    #[test]
    fn steady_windows_never_remap() {
        let mut ctrl = controller();
        let per_source = sources(16, 0);
        for w in 0..20 {
            let rec = window(w, w * 1000, 1000, &[10.0, 10.0], &[100, 100]);
            assert_eq!(ctrl.on_window(&rec, &per_source), None, "window {w}");
        }
        assert_eq!(ctrl.remap_count(), 0);
        assert_eq!(ctrl.solves(), 0);
    }

    #[test]
    fn drifted_app_triggers_an_accepted_swap() {
        let mut ctrl = controller();
        let start = ctrl.mapping().clone();
        // Two calibration windows at the analytic operating point.
        let calm = [10.0, 10.0];
        assert_eq!(
            ctrl.on_window(&window(0, 0, 1000, &calm, &[100, 100]), &sources(16, 30)),
            None
        );
        assert_eq!(
            ctrl.on_window(&window(1, 1000, 1000, &calm, &[100, 100]), &sources(16, 60)),
            None
        );
        // App 0's realized APL jumps 80% and its sources go hot; the
        // rate flip (heavy half ↔ light half) makes the incumbent
        // placement analytically wrong, so the re-solve must move
        // threads and return a retarget vector.
        let mut per_source = sources(16, 60);
        for (j, acc) in per_source.iter_mut().enumerate() {
            let extra = if (4..8).contains(&j) { 400 } else { 10 };
            for _ in 0..extra {
                acc.cache.record(18, 3, 1, 12);
            }
        }
        let swap = ctrl.on_window(
            &window(2, 2000, 1000, &[18.0, 10.0], &[200, 100]),
            &per_source,
        );
        let tiles = swap.expect("drift must trigger an accepted remap");
        assert_eq!(tiles.len(), 16);
        assert_eq!(ctrl.remap_count(), 1);
        let ev = &ctrl.events()[0];
        assert_eq!(ev.app, 0);
        assert_eq!(ev.cycle, 3000);
        assert!(ev.drift > 0.15);
        assert!(ev.threads_moved > 0);
        assert!(ev.migration_cost > 0);
        assert!(ev.predicted_after < ev.predicted_before);
        assert_ne!(ctrl.mapping().as_slice(), start.as_slice());
        // Cooldown: the very next drifted window must not re-trigger.
        let again = ctrl.on_window(
            &window(3, 3000, 1000, &[18.0, 10.0], &[200, 100]),
            &per_source,
        );
        assert_eq!(again, None);
        assert_eq!(ctrl.remap_count(), 1);
    }

    #[test]
    fn max_remaps_caps_accepted_swaps() {
        let inst = instance();
        let mapping = SortSelectSwap::default().map(&inst, 0);
        let cfg = RemapConfig {
            max_remaps: 0,
            ..RemapConfig::default()
        };
        let mut ctrl =
            RemapController::with_config(inst, mapping, Mesh::square(4), cfg).expect("valid");
        let calm = [10.0, 10.0];
        ctrl.on_window(&window(0, 0, 1000, &calm, &[100, 100]), &sources(16, 30));
        ctrl.on_window(&window(1, 1000, 1000, &calm, &[100, 100]), &sources(16, 60));
        let swap = ctrl.on_window(
            &window(2, 2000, 1000, &[30.0, 10.0], &[200, 100]),
            &sources(16, 90),
        );
        assert_eq!(swap, None);
        assert_eq!(ctrl.remap_count(), 0);
    }
}
