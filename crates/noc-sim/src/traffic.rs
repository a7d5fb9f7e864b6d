//! Traffic sources: per-tile injection processes and the validated
//! [`TrafficSpec`] bundle the simulator consumes.

use crate::config::ConfigError;
use noc_model::{Mesh, TileId};
use rand::distributions::Bernoulli;
use rand::Rng;

/// A time-varying packet injection rate (packets per cycle).
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Constant rate.
    Constant(f64),
    /// Piecewise-constant rate over fixed-length epochs (trace replay).
    /// Cycles beyond the last epoch wrap around, so short traces can drive
    /// long simulations.
    Piecewise { epoch_cycles: u64, rates: Vec<f64> },
}

impl Schedule {
    /// Constant schedule given a rate in requests per kilocycle (the unit
    /// used by the `workload` crate).
    pub fn per_kilocycle(rate: f64) -> Self {
        Schedule::Constant(rate / 1000.0)
    }

    /// Piecewise schedule from per-kilocycle epoch rates.
    ///
    /// Shape problems (`epoch_cycles == 0`, no rates) are not panics here:
    /// they surface as typed [`ConfigError`]s when the schedule reaches
    /// [`TrafficSpec::new`] or the simulator (see [`Schedule::validate`]).
    pub fn trace_per_kilocycle(epoch_cycles: u64, rates: &[f64]) -> Self {
        Schedule::Piecewise {
            epoch_cycles,
            rates: rates.iter().map(|r| r / 1000.0).collect(),
        }
    }

    /// Injection probability for the given cycle. Total: degenerate
    /// piecewise shapes (rejected by [`Schedule::validate`]) read as silent
    /// rather than panicking.
    pub fn rate_at(&self, cycle: u64) -> f64 {
        match self {
            Schedule::Constant(r) => *r,
            Schedule::Piecewise {
                epoch_cycles,
                rates,
            } => {
                if *epoch_cycles == 0 || rates.is_empty() {
                    return 0.0;
                }
                let epoch = (cycle / epoch_cycles) as usize % rates.len();
                rates[epoch]
            }
        }
    }

    /// Check the schedule describes a valid per-cycle arrival probability
    /// stream: rates non-negative and finite, piecewise shapes non-empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = |r: f64| {
            if r.is_nan() || r.is_infinite() || r < 0.0 {
                Err(ConfigError::BadRate(r))
            } else {
                Ok(())
            }
        };
        match self {
            Schedule::Constant(r) => check(*r),
            Schedule::Piecewise {
                epoch_cycles,
                rates,
            } => {
                if *epoch_cycles == 0 {
                    return Err(ConfigError::ZeroEpochCycles);
                }
                if rates.is_empty() {
                    return Err(ConfigError::EmptyTrace);
                }
                rates.iter().try_for_each(|&r| check(r))
            }
        }
    }

    /// First cycle at or after `cycle` where the rate may change: the end
    /// of the piecewise epoch containing `cycle`. Constant schedules never
    /// change (`u64::MAX`).
    fn epoch_end(&self, cycle: u64) -> u64 {
        match self {
            Schedule::Constant(_) => u64::MAX,
            Schedule::Piecewise { epoch_cycles, .. } => {
                if *epoch_cycles == 0 {
                    u64::MAX
                } else {
                    (cycle / epoch_cycles)
                        .saturating_add(1)
                        .saturating_mul(*epoch_cycles)
                }
            }
        }
    }

    /// The per-cycle arrival coin in force at `cycle` — `None` while the
    /// rate is 0, which draws nothing — and the first cycle it goes stale
    /// (the epoch end; `u64::MAX` for a constant schedule). Sampling the
    /// coin is bit-identical to `gen_bool(rate_at(c).min(1.0))` for every
    /// `c` in `cycle..until` (DESIGN.md §11.4).
    pub(crate) fn coin_at(&self, cycle: u64) -> (Option<Bernoulli>, u64) {
        let rate = self.rate_at(cycle);
        let coin = if rate > 0.0 {
            Bernoulli::new(rate.min(1.0)).ok()
        } else {
            None
        };
        (coin, self.epoch_end(cycle))
    }

    /// Draw the next arrival cycle in `[from, horizon)` by geometric
    /// inter-arrival sampling, or `None` if no arrival lands before
    /// `horizon`.
    ///
    /// Within a constant-rate epoch the inter-arrival gap of a Bernoulli
    /// process is geometric, so one inverse-CDF draw
    /// (`gap = floor(ln(1-u) / ln(1-p))`, `u` uniform in `[0, 1)` so the
    /// argument of the log stays in `(0, 1]`) replaces per-cycle trials
    /// exactly: `P(gap = k) = (1-p)^k · p`. A draw that lands beyond the
    /// current epoch is discarded and the sampler resamples from the next
    /// epoch's start — valid by memorylessness, and what keeps
    /// [`Schedule::Piecewise`] boundaries exact. `draws` counts uniform
    /// draws consumed (the report's `arrival_draws` telemetry).
    pub(crate) fn next_arrival(
        &self,
        mut from: u64,
        horizon: u64,
        rng: &mut impl Rng,
        draws: &mut u64,
    ) -> Option<u64> {
        loop {
            if from >= horizon {
                return None;
            }
            let p = self.rate_at(from).min(1.0);
            let epoch_end = self.epoch_end(from).min(horizon);
            if p <= 0.0 {
                from = epoch_end;
                continue;
            }
            if p >= 1.0 {
                return Some(from);
            }
            *draws += 1;
            let u: f64 = rng.gen();
            let gap = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
            // f64→u64 casts saturate, so a tail draw (u → 1) cannot wrap.
            let next = from.saturating_add(gap as u64);
            if next < epoch_end {
                return Some(next);
            }
            from = epoch_end;
        }
    }

    /// Mean rate over one period of the schedule.
    pub fn mean_rate(&self) -> f64 {
        match self {
            Schedule::Constant(r) => *r,
            Schedule::Piecewise { rates, .. } => rates.iter().sum::<f64>() / rates.len() as f64,
        }
    }
}

/// One tile's traffic description.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// The tile this source injects from.
    pub tile: TileId,
    /// Traffic group (application id) for per-application accounting.
    pub group: usize,
    /// Cache-request injection schedule.
    pub cache: Schedule,
    /// Memory-request injection schedule.
    pub mem: Schedule,
}

impl SourceSpec {
    /// A silent source (useful for unmapped tiles).
    pub fn idle(tile: TileId) -> Self {
        SourceSpec {
            tile,
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.0),
        }
    }
}

/// A validated traffic description: the sources and the number of
/// traffic groups (applications) they are partitioned into.
///
/// This is the unit `Network::new` consumes (it used to take the raw
/// `(sources, num_groups)` pair, leaving every caller to re-implement
/// the duplicate/group checks). Construction validates that groups are
/// declared, every source's group is in range, and no two sources share
/// a tile; tile-vs-mesh range is checked against the config's mesh when
/// the spec reaches the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    sources: Vec<SourceSpec>,
    num_groups: usize,
}

impl TrafficSpec {
    /// Validate and bundle a traffic description.
    pub fn new(sources: Vec<SourceSpec>, num_groups: usize) -> Result<Self, ConfigError> {
        if num_groups == 0 {
            return Err(ConfigError::NoGroups);
        }
        let mut tiles: Vec<usize> = sources.iter().map(|s| s.tile.index()).collect();
        tiles.sort_unstable();
        if let Some(w) = tiles.windows(2).find(|w| w[0] == w[1]) {
            return Err(ConfigError::DuplicateSourceTile(w[0]));
        }
        for s in &sources {
            if s.group >= num_groups {
                return Err(ConfigError::GroupOutOfRange {
                    group: s.group,
                    num_groups,
                });
            }
            s.cache.validate()?;
            s.mem.validate()?;
        }
        Ok(TrafficSpec {
            sources,
            num_groups,
        })
    }

    /// One single-group source per tile of `mesh`, all with the same
    /// schedules — the uniform-traffic pattern used by validation tests
    /// and load sweeps.
    pub fn uniform(mesh: &Mesh, cache: Schedule, mem: Schedule) -> Self {
        let sources = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: cache.clone(),
                mem: mem.clone(),
            })
            .collect();
        TrafficSpec {
            sources,
            num_groups: 1,
        }
    }

    /// The validated sources.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Number of traffic groups (applications).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Check every source tile against a mesh of `num_tiles` tiles.
    pub(crate) fn check_tiles(&self, num_tiles: usize) -> Result<(), ConfigError> {
        for s in &self.sources {
            if s.tile.index() >= num_tiles {
                return Err(ConfigError::SourceTileOutOfRange {
                    tile: s.tile.index(),
                    num_tiles,
                });
            }
        }
        Ok(())
    }

    /// Re-check every source schedule. [`TrafficSpec::new`] already did
    /// this, but [`TrafficSpec::uniform`] constructs directly, so the
    /// simulator re-validates at `Network::new`.
    pub(crate) fn check_schedules(&self) -> Result<(), ConfigError> {
        for s in &self.sources {
            s.cache.validate()?;
            s.mem.validate()?;
        }
        Ok(())
    }

    /// Decompose into the raw parts.
    pub fn into_parts(self) -> (Vec<SourceSpec>, usize) {
        (self.sources, self.num_groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = Schedule::per_kilocycle(5.0);
        assert!((s.rate_at(0) - 0.005).abs() < 1e-12);
        assert!((s.rate_at(999_999) - 0.005).abs() < 1e-12);
        assert!((s.mean_rate() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn piecewise_wraps() {
        let s = Schedule::trace_per_kilocycle(100, &[10.0, 20.0]);
        assert!((s.rate_at(0) - 0.01).abs() < 1e-12);
        assert!((s.rate_at(99) - 0.01).abs() < 1e-12);
        assert!((s.rate_at(100) - 0.02).abs() < 1e-12);
        assert!((s.rate_at(200) - 0.01).abs() < 1e-12, "wraps around");
        assert!((s.mean_rate() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn idle_source_is_silent() {
        let s = SourceSpec::idle(TileId(3));
        assert_eq!(s.cache.rate_at(42), 0.0);
        assert_eq!(s.mem.rate_at(42), 0.0);
    }

    #[test]
    fn traffic_spec_validates() {
        let ok = TrafficSpec::new(vec![SourceSpec::idle(TileId(0))], 1).expect("valid");
        assert_eq!(ok.sources().len(), 1);
        assert_eq!(ok.num_groups(), 1);

        let s = SourceSpec::idle(TileId(2));
        assert_eq!(
            TrafficSpec::new(vec![s.clone(), s.clone()], 1).unwrap_err(),
            ConfigError::DuplicateSourceTile(2)
        );
        assert_eq!(
            TrafficSpec::new(vec![s.clone()], 0).unwrap_err(),
            ConfigError::NoGroups
        );
        let mut grouped = s;
        grouped.group = 3;
        assert_eq!(
            TrafficSpec::new(vec![grouped], 2).unwrap_err(),
            ConfigError::GroupOutOfRange {
                group: 3,
                num_groups: 2
            }
        );
    }

    #[test]
    fn uniform_covers_the_mesh() {
        let mesh = Mesh::square(4);
        let spec =
            TrafficSpec::uniform(&mesh, Schedule::per_kilocycle(5.0), Schedule::Constant(0.0));
        assert_eq!(spec.sources().len(), 16);
        assert_eq!(spec.num_groups(), 1);
        assert!(spec.sources().iter().all(|s| s.group == 0));
        let (sources, groups) = spec.into_parts();
        assert_eq!((sources.len(), groups), (16, 1));
    }

    #[test]
    fn schedule_validation_rejects_bad_shapes() {
        assert_eq!(
            Schedule::Constant(-0.1).validate().unwrap_err(),
            ConfigError::BadRate(-0.1)
        );
        assert!(Schedule::Constant(f64::NAN).validate().is_err());
        assert!(Schedule::Constant(f64::INFINITY).validate().is_err());
        assert_eq!(
            Schedule::trace_per_kilocycle(0, &[1.0])
                .validate()
                .unwrap_err(),
            ConfigError::ZeroEpochCycles
        );
        assert_eq!(
            Schedule::trace_per_kilocycle(10, &[])
                .validate()
                .unwrap_err(),
            ConfigError::EmptyTrace
        );
        assert!(Schedule::trace_per_kilocycle(10, &[1.0, -2.0])
            .validate()
            .is_err());
        assert_eq!(Schedule::Constant(0.5).validate(), Ok(()));
        assert_eq!(
            Schedule::trace_per_kilocycle(10, &[1.0, 2.0]).validate(),
            Ok(())
        );
        // Degenerate shapes read as silent instead of panicking.
        assert_eq!(Schedule::trace_per_kilocycle(0, &[1.0]).rate_at(5), 0.0);
        assert_eq!(Schedule::trace_per_kilocycle(10, &[]).rate_at(5), 0.0);
        // TrafficSpec::new propagates schedule validation.
        let mut bad = SourceSpec::idle(TileId(0));
        bad.mem = Schedule::Constant(-1.0);
        assert_eq!(
            TrafficSpec::new(vec![bad], 1).unwrap_err(),
            ConfigError::BadRate(-1.0)
        );
    }

    #[test]
    fn next_arrival_respects_horizon_and_zero_rates() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut draws = 0u64;
        assert_eq!(
            Schedule::Constant(0.0).next_arrival(0, 1_000_000, &mut rng, &mut draws),
            None
        );
        assert_eq!(
            Schedule::Constant(0.5).next_arrival(10, 10, &mut rng, &mut draws),
            None,
            "from == horizon"
        );
        assert_eq!(draws, 0, "no uniform spent on degenerate cases");
        // A saturated rate arrives immediately, without a draw.
        assert_eq!(
            Schedule::Constant(1.0).next_arrival(7, 100, &mut rng, &mut draws),
            Some(7)
        );
        assert_eq!(draws, 0);
    }

    #[test]
    fn next_arrival_matches_geometric_distribution() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut draws = 0u64;
        let p = 0.25;
        let s = Schedule::Constant(p);
        let n = 40_000u64;
        let (mut sum, mut zero) = (0u64, 0u64);
        for _ in 0..n {
            let gap = s
                .next_arrival(0, u64::MAX, &mut rng, &mut draws)
                .expect("p > 0");
            sum += gap;
            zero += u64::from(gap == 0);
        }
        assert_eq!(draws, n, "one uniform per arrival");
        // E[gap] = (1-p)/p = 3; P(gap = 0) = p. Both within ~5 sigma.
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean gap {mean}");
        let frac0 = zero as f64 / n as f64;
        assert!((frac0 - p).abs() < 0.011, "P(gap=0) {frac0}");
    }

    #[test]
    fn next_arrival_skips_silent_epochs_exactly() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut draws = 0u64;
        // Rate 1.0 in odd epochs only: the first arrival from cycle 0 must
        // be exactly the start of the first saturated epoch.
        let s = Schedule::Piecewise {
            epoch_cycles: 50,
            rates: vec![0.0, 1.0],
        };
        assert_eq!(s.next_arrival(0, 1_000, &mut rng, &mut draws), Some(50));
        assert_eq!(draws, 0);
        // From inside the silent epoch, same answer.
        assert_eq!(s.next_arrival(17, 1_000, &mut rng, &mut draws), Some(50));
        // A horizon inside the silent epoch yields nothing.
        assert_eq!(s.next_arrival(100, 150, &mut rng, &mut draws), None);
        assert_eq!(draws, 0);
    }

    #[test]
    fn tile_range_checked_against_mesh() {
        let spec = TrafficSpec::new(vec![SourceSpec::idle(TileId(99))], 1).expect("valid shape");
        assert_eq!(
            spec.check_tiles(16).unwrap_err(),
            ConfigError::SourceTileOutOfRange {
                tile: 99,
                num_tiles: 16
            }
        );
        assert_eq!(spec.check_tiles(100), Ok(()));
    }
}
