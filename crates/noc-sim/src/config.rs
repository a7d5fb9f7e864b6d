//! Simulator configuration (paper Table 2 defaults): the [`SimConfig`]
//! struct and the [`ConfigError`] type every constructor-path validation
//! reports through.
//!
//! Configurations are plain data with public fields, written as struct
//! updates of [`SimConfig::paper_defaults`] or mutated in place; validity
//! is checked *at the boundary* — by [`SimConfig::validate`], called from
//! [`Network::new`](crate::network::Network::new) — and reported as typed
//! [`ConfigError`]s instead of panics, so callers (CLI, sweeps, property
//! tests) can surface bad parameters without crashing.

use noc_model::{ChipLayout, MemoryControllers, Mesh, Topology};
use std::fmt;

/// Maximum arbitration slots (`ports × total VCs`) supported by the
/// router's u64 occupancy bitmask.
pub(crate) const MAX_ARBITRATION_SLOTS: usize = 64;

/// Ports per router (4 mesh neighbours + local).
pub(crate) const NUM_PORTS: usize = 5;

/// Dimension-order routing variant used by the routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// X first, then Y (the paper's choice).
    Xy,
    /// Y first, then X (ablation).
    Yx,
}

/// How traffic sources turn their [`Schedule`](crate::traffic::Schedule)
/// rates into packet arrival cycles.
///
/// Both processes produce the same arrival *distribution* — independent
/// per-cycle arrivals with probability `rate_at(cycle)` — but consume the
/// RNG differently, so their streams are not bit-identical (each mode pins
/// its own goldens in `tests/sim_determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionProcess {
    /// One Bernoulli trial per source, class and cycle. The historical
    /// default; kept so existing seeded runs stay bit-identical.
    #[default]
    BernoulliPerCycle,
    /// Geometric inter-arrival sampling: one uniform draw per *packet*
    /// (inverse CDF of the inter-arrival gap), with a min-heap of pending
    /// arrivals and an event-horizon fast-forward that jumps the main loop
    /// over fully quiescent stretches. Exact for constant-rate epochs by
    /// memorylessness; `Schedule::Piecewise` boundaries resample. Orders of
    /// magnitude faster at the paper's low loads.
    Geometric,
}

impl std::str::FromStr for InjectionProcess {
    type Err = String;

    /// Parse a CLI spelling: `bernoulli` or `geometric`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bernoulli" => Ok(InjectionProcess::BernoulliPerCycle),
            "geometric" => Ok(InjectionProcess::Geometric),
            other => Err(format!(
                "unknown injection process '{other}' (expected bernoulli or geometric)"
            )),
        }
    }
}

/// A rejected simulator configuration or traffic description.
///
/// Returned by [`SimConfig::validate`],
/// [`TrafficSpec::new`](crate::traffic::TrafficSpec::new) and
/// [`Network::new`](crate::network::Network::new); these paths never
/// panic on bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `ports × total VCs` exceeds the 64-slot arbitration bitmask.
    VcOverflow { ports: usize, total_vcs: usize },
    /// `vcs_per_class` is zero (each class needs at least one VC).
    ZeroVcs,
    /// `buffer_depth` is zero (credit-based flow control needs a buffer).
    ZeroBufferDepth,
    /// `long_flits` is zero (a packet has at least a head flit).
    ZeroLongFlits,
    /// `long_fraction` is not a probability in `[0, 1]`.
    BadLongFraction(f64),
    /// `telemetry_window` is zero.
    BadWindow,
    /// `measure_cycles` is zero (nothing would be measured).
    ZeroMeasureCycles,
    /// A traffic source references a tile outside the mesh.
    SourceTileOutOfRange { tile: usize, num_tiles: usize },
    /// Two traffic sources share a tile.
    DuplicateSourceTile(usize),
    /// A traffic source's group id is not below the group count.
    GroupOutOfRange { group: usize, num_groups: usize },
    /// The traffic declares zero groups.
    NoGroups,
    /// A schedule rate is negative or NaN (not a probability density).
    BadRate(f64),
    /// A piecewise schedule with zero-length epochs.
    ZeroEpochCycles,
    /// A piecewise schedule with no epochs at all.
    EmptyTrace,
    /// A mid-run retarget vector whose length does not match the number
    /// of traffic sources (see
    /// [`SwapController`](crate::network::SwapController)).
    RetargetLength {
        /// Tiles in the rejected retarget vector.
        got: usize,
        /// Traffic sources the network actually has.
        expected: usize,
    },
    /// [`SimConfig::for_layout`] was given a [`ChipLayout`] with failed
    /// links. The cycle-level router only implements dimension-order
    /// routing, which cannot detour around a dead link; failed-link
    /// layouts are an analytic-model-only feature.
    FailedLinksUnsupported {
        /// Number of failed links in the rejected layout.
        num_links: usize,
    },
    /// The mesh has more tiles than a flit's 16-bit destination field can
    /// address.
    MeshTooLarge {
        /// Tiles in the rejected mesh.
        num_tiles: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::VcOverflow { ports, total_vcs } => write!(
                f,
                "{ports} ports x {total_vcs} total VCs exceeds the \
                 {MAX_ARBITRATION_SLOTS}-slot arbitration mask \
                 (reduce vcs_per_class)"
            ),
            ConfigError::ZeroVcs => write!(f, "vcs_per_class must be at least 1"),
            ConfigError::ZeroBufferDepth => write!(f, "buffer_depth must be at least 1 flit"),
            ConfigError::ZeroLongFlits => write!(f, "long_flits must be at least 1"),
            ConfigError::BadLongFraction(p) => {
                write!(f, "long_fraction {p} is not a probability in [0, 1]")
            }
            ConfigError::BadWindow => write!(f, "telemetry_window must be at least 1 cycle"),
            ConfigError::ZeroMeasureCycles => write!(f, "measure_cycles must be at least 1"),
            ConfigError::SourceTileOutOfRange { tile, num_tiles } => {
                write!(
                    f,
                    "source tile {tile} out of range (mesh has {num_tiles} tiles)"
                )
            }
            ConfigError::DuplicateSourceTile(tile) => {
                write!(f, "two traffic sources share tile {tile}")
            }
            ConfigError::GroupOutOfRange { group, num_groups } => {
                write!(
                    f,
                    "source group {group} out of range ({num_groups} groups declared)"
                )
            }
            ConfigError::NoGroups => write!(f, "traffic must declare at least one group"),
            ConfigError::BadRate(r) => {
                write!(
                    f,
                    "schedule rate {r} is not a non-negative finite probability"
                )
            }
            ConfigError::ZeroEpochCycles => {
                write!(f, "piecewise schedule epochs must be at least 1 cycle")
            }
            ConfigError::EmptyTrace => {
                write!(f, "piecewise schedule needs at least one epoch rate")
            }
            ConfigError::RetargetLength { got, expected } => {
                write!(
                    f,
                    "retarget vector has {got} tiles but the network has {expected} sources"
                )
            }
            ConfigError::FailedLinksUnsupported { num_links } => {
                write!(
                    f,
                    "layout has {num_links} failed link(s); the cycle-level simulator \
                     only routes on healthy chips (failed links are analytic-only)"
                )
            }
            ConfigError::MeshTooLarge { num_tiles } => {
                write!(
                    f,
                    "mesh has {num_tiles} tiles, more than the 65536 a flit's \
                     16-bit destination field can address"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the cycle-level simulation.
///
/// Fields are public — sweeps and tests write them directly — and the
/// simulator validates on construction
/// ([`Network::new`](crate::network::Network::new)):
///
/// ```
/// use noc_model::Mesh;
/// use noc_sim::SimConfig;
///
/// let mesh = Mesh::square(8);
/// let cfg = SimConfig {
///     warmup_cycles: 1_000,
///     measure_cycles: 10_000,
///     seed: 7,
///     ..SimConfig::paper_defaults(mesh)
/// };
/// assert_eq!(cfg.validate(), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The mesh to simulate.
    pub mesh: Mesh,
    /// Network topology: plain mesh (paper default) or torus with
    /// wraparound links. Torus runs use the shortest-direction
    /// dimension-order router, which is only deadlock-free at the low
    /// loads used for validation (see `noc_model::routing::route_xy_torus`).
    pub topology: Topology,
    /// Memory-controller placement (Table 2: one per corner).
    pub controllers: MemoryControllers,
    /// Router pipeline depth in cycles (Table 2: 3-stage).
    pub router_stages: u64,
    /// Link traversal latency in cycles (1).
    pub link_cycles: u64,
    /// Virtual channels per traffic class (Table 2: 3 VCs per class).
    pub vcs_per_class: usize,
    /// Input buffer depth per VC in flits (Table 2: 5).
    pub buffer_depth: usize,
    /// Flits in a long (data) packet (Table 2: 5 = head + 64B/128b).
    pub long_flits: u16,
    /// Fraction of generated packets that are long data packets
    /// (request/reply mix; 0.5 by default).
    pub long_fraction: f64,
    /// Warm-up cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up.
    pub measure_cycles: u64,
    /// Drain: after measurement, keep simulating (no new injections) until
    /// all measured packets arrive, up to this many extra cycles.
    pub max_drain_cycles: u64,
    /// RNG seed for traffic generation.
    pub seed: u64,
    /// How sources turn schedule rates into arrival cycles (default:
    /// [`InjectionProcess::BernoulliPerCycle`], which preserves the
    /// historical RNG stream bit-for-bit; sweeps use
    /// [`InjectionProcess::Geometric`] for the event-horizon fast path).
    pub injection: InjectionProcess,
    /// Dimension-order routing variant (paper: XY).
    pub routing: RoutingKind,
    /// Enforce the physical crossbar's one-flit-per-input-port limit in
    /// switch allocation (true = canonical router; false models an
    /// idealized input-speedup-∞ switch for ablation).
    pub crossbar_input_limit: bool,
    /// Telemetry window width in cycles (only read when a run is probed;
    /// see `Network::run_probed`).
    pub telemetry_window: u64,
    /// Inert: the simulator has run single-threaded since its row-band
    /// shard engine was removed (it was never faster than the serial
    /// loop; DESIGN.md §16.5), and no value of this field changes a run.
    /// It stays only because the repository benchmark still assigns it;
    /// it goes when that benchmark drops its 2-shard variant.
    pub shards: usize,
}

impl SimConfig {
    /// Paper Table 2 defaults on the given mesh.
    pub fn paper_defaults(mesh: Mesh) -> Self {
        let controllers = MemoryControllers::corners(&mesh);
        SimConfig {
            mesh,
            topology: Topology::Mesh,
            controllers,
            router_stages: 3,
            link_cycles: 1,
            vcs_per_class: 3,
            buffer_depth: 5,
            long_flits: 5,
            long_fraction: 0.5,
            warmup_cycles: 10_000,
            measure_cycles: 100_000,
            max_drain_cycles: 50_000,
            seed: 1,
            injection: InjectionProcess::BernoulliPerCycle,
            routing: RoutingKind::Xy,
            crossbar_input_limit: true,
            telemetry_window: 1_000,
            shards: 1,
        }
    }

    /// Paper defaults specialized to a [`ChipLayout`]: the layout's mesh,
    /// topology and controller placement become the simulated chip, so a
    /// latency table built with `TileLatencies::for_layout` can be
    /// cross-validated by simulation on the *same* layout.
    ///
    /// Layouts with failed links are rejected
    /// ([`ConfigError::FailedLinksUnsupported`]): the dimension-order
    /// router cannot detour, so rerouted-distance layouts stay an
    /// analytic-model-only feature.
    pub fn for_layout(layout: &ChipLayout) -> Result<Self, ConfigError> {
        if !layout.failed_links().is_empty() {
            return Err(ConfigError::FailedLinksUnsupported {
                num_links: layout.failed_links().len(),
            });
        }
        let mut cfg = SimConfig::paper_defaults(*layout.mesh());
        cfg.topology = layout.topology();
        cfg.controllers = layout.controllers().clone();
        Ok(cfg)
    }

    /// Total VCs per input port (2 traffic classes).
    pub fn total_vcs(&self) -> usize {
        2 * self.vcs_per_class
    }

    /// Uncontended per-hop latency (router pipeline + link). At least one
    /// cycle: deliveries land after the router pass, so even a zero-stage
    /// router over a zero-cycle link moves a flit one hop per cycle.
    pub fn per_hop_cycles(&self) -> u64 {
        (self.router_stages + self.link_cycles).max(1)
    }

    /// Check every structural invariant the simulator relies on.
    ///
    /// Called by [`Network::new`](crate::network::Network::new); the error
    /// names the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_class == 0 {
            return Err(ConfigError::ZeroVcs);
        }
        if NUM_PORTS * self.total_vcs() > MAX_ARBITRATION_SLOTS {
            return Err(ConfigError::VcOverflow {
                ports: NUM_PORTS,
                total_vcs: self.total_vcs(),
            });
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        if self.long_flits == 0 {
            return Err(ConfigError::ZeroLongFlits);
        }
        if !(0.0..=1.0).contains(&self.long_fraction) || self.long_fraction.is_nan() {
            return Err(ConfigError::BadLongFraction(self.long_fraction));
        }
        if self.measure_cycles == 0 {
            return Err(ConfigError::ZeroMeasureCycles);
        }
        if self.telemetry_window == 0 {
            return Err(ConfigError::BadWindow);
        }
        if self.mesh.num_tiles() > u16::MAX as usize + 1 {
            return Err(ConfigError::MeshTooLarge {
                num_tiles: self.mesh.num_tiles(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let cfg = SimConfig::paper_defaults(Mesh::square(8));
        assert_eq!(cfg.topology, Topology::Mesh);
        assert_eq!(cfg.router_stages, 3);
        assert_eq!(cfg.link_cycles, 1);
        assert_eq!(cfg.vcs_per_class, 3);
        assert_eq!(cfg.buffer_depth, 5);
        assert_eq!(cfg.long_flits, 5);
        assert_eq!(cfg.total_vcs(), 6);
        assert_eq!(cfg.per_hop_cycles(), 4);
        assert_eq!(cfg.controllers.tiles().len(), 4);
        assert_eq!(cfg.routing, RoutingKind::Xy);
        assert_eq!(cfg.injection, InjectionProcess::BernoulliPerCycle);
        assert_eq!(cfg.injection, InjectionProcess::default());
        assert!(cfg.crossbar_input_limit);
        assert_eq!(cfg.telemetry_window, 1_000);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn per_hop_cycles_is_at_least_one() {
        let mut cfg = SimConfig::paper_defaults(Mesh::square(4));
        cfg.router_stages = 0;
        cfg.link_cycles = 0;
        assert_eq!(cfg.per_hop_cycles(), 1);
        cfg.link_cycles = 1;
        assert_eq!(cfg.per_hop_cycles(), 1);
        cfg.router_stages = 2;
        assert_eq!(cfg.per_hop_cycles(), 3);
    }

    #[test]
    fn for_layout_adopts_topology_and_controllers() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::try_custom(&mesh, vec![noc_model::TileId(5)]).expect("valid");
        let layout = ChipLayout::try_new(mesh, Topology::Torus, mcs.clone(), Vec::new())
            .expect("valid layout");
        let cfg = SimConfig::for_layout(&layout).expect("healthy layout");
        assert_eq!(cfg.topology, Topology::Torus);
        assert_eq!(cfg.controllers, mcs);
        // Everything else stays at paper defaults.
        assert_eq!(cfg.router_stages, 3);
        assert_eq!(cfg.seed, 1);
    }

    #[test]
    fn for_layout_rejects_failed_links() {
        let mesh = Mesh::square(4);
        let layout = ChipLayout::try_new(
            mesh,
            Topology::Mesh,
            MemoryControllers::corners(&mesh),
            vec![(noc_model::TileId(0), noc_model::TileId(1))],
        )
        .expect("valid layout");
        let err = SimConfig::for_layout(&layout).unwrap_err();
        assert_eq!(err, ConfigError::FailedLinksUnsupported { num_links: 1 });
        assert!(err.to_string().contains("analytic-only"));
    }

    #[test]
    fn injection_process_parses_cli_spellings() {
        assert_eq!(
            "bernoulli".parse::<InjectionProcess>(),
            Ok(InjectionProcess::BernoulliPerCycle)
        );
        assert_eq!(
            "geometric".parse::<InjectionProcess>(),
            Ok(InjectionProcess::Geometric)
        );
        assert!("poisson".parse::<InjectionProcess>().is_err());
    }

    #[test]
    fn vc_overflow_is_a_typed_error() {
        // 5 ports × 2·7 VCs = 70 slots > 64.
        let err = rejection(|c| c.vcs_per_class = 7);
        assert_eq!(
            err,
            ConfigError::VcOverflow {
                ports: 5,
                total_vcs: 14
            }
        );
        assert!(err.to_string().contains("arbitration mask"));
    }

    /// The error `validate` reports for paper defaults edited by `edit`.
    fn rejection(edit: fn(&mut SimConfig)) -> ConfigError {
        let mut cfg = SimConfig::paper_defaults(Mesh::square(4));
        edit(&mut cfg);
        cfg.validate().unwrap_err()
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert_eq!(rejection(|c| c.vcs_per_class = 0), ConfigError::ZeroVcs);
        assert_eq!(
            rejection(|c| c.buffer_depth = 0),
            ConfigError::ZeroBufferDepth
        );
        assert_eq!(rejection(|c| c.long_flits = 0), ConfigError::ZeroLongFlits);
        assert_eq!(
            rejection(|c| c.measure_cycles = 0),
            ConfigError::ZeroMeasureCycles
        );
        assert_eq!(
            rejection(|c| c.telemetry_window = 0),
            ConfigError::BadWindow
        );
    }

    #[test]
    fn bad_long_fraction_is_rejected() {
        assert_eq!(
            rejection(|c| c.long_fraction = 1.5),
            ConfigError::BadLongFraction(1.5)
        );
        assert!(matches!(
            rejection(|c| c.long_fraction = f64::NAN),
            ConfigError::BadLongFraction(_)
        ));
    }
}
