//! # obm — Balanced on-chip network latency in multi-application mapping
//!
//! Facade crate re-exporting the whole workspace, a reproduction of
//! *"Balancing On-Chip Network Latency in Multi-Application Mapping for
//! Chip-Multiprocessors"* (Zhu, Chen, Yue, Pinkston, Pedram — IPDPS 2014).
//!
//! * [`model`] — mesh NoC geometry, routing and the `TC`/`TM` latency model;
//! * [`sim`] — cycle-level wormhole NoC simulator (Garnet substitute);
//! * [`telemetry`] — probes, sinks and windowed time-series shared by the
//!   simulator and the mapping algorithms;
//! * [`workload`] — synthetic PARSEC-like traces and the C1–C8 configurations;
//! * [`cache`] — CMP cache-hierarchy model deriving request rates from
//!   first principles (L1 + MOESI-lite directory + shared L2 banks);
//! * [`lap`] — Hungarian assignment solver;
//! * [`mapping`] — the OBM problem, the sort-select-swap heuristic and the
//!   Global / Monte-Carlo / simulated-annealing baselines, plus the
//!   pluggable `Objective` API and the closed-loop online
//!   `RemapController` (DESIGN.md §14);
//! * [`portfolio`] — deterministic parallel solver-portfolio engine racing
//!   the mappers behind the `SolveRequest`/`SolveOutcome` API;
//! * [`power`] — DSENT-substitute NoC power model;
//! * [`metrics`] — lock-free runtime metrics registry (counters, gauges,
//!   histograms, hierarchical spans) with deterministic Prometheus/JSON
//!   snapshot export (DESIGN.md §17). Write-only observability: results
//!   are bit-identical with metrics on or off.
//!
//! Most programs only need the [`prelude`]:
//!
//! ```
//! use obm::prelude::*;
//!
//! let mesh = Mesh::square(4);
//! let tiles = TileLatencies::paper_default(&mesh);
//! let cache_rates: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
//! let inst = ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], cache_rates, vec![0.0; 16]);
//! let mapping = SortSelectSwap::default().map(&inst, 0);
//! assert!(evaluate(&inst, &mapping).max_apl > 0.0);
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end tour,
//! `examples/simulate_mapping.rs` for the simulator + telemetry side and
//! `examples/noc_observability.rs` for the spatial heatmap, exact latency
//! histograms and the per-packet latency decomposition, and
//! `examples/runtime_metrics.rs` for the metrics registry observing all
//! four instrumented subsystems.

#![forbid(unsafe_code)]

pub use assignment as lap;
pub use cmp_cache as cache;
pub use noc_metrics as metrics;
pub use noc_model as model;
pub use noc_power as power;
pub use noc_sim as sim;
pub use noc_telemetry as telemetry;
pub use obm_core as mapping;
pub use obm_portfolio as portfolio;
pub use workload;

/// The types most programs touch: chip geometry, the OBM problem and
/// mappers, the simulator configuration/traffic/network, and the telemetry
/// probes and sinks. `use obm::prelude::*;` is enough for the examples.
pub mod prelude {
    pub use crate::mapping::algorithms::{
        BalancedGreedy, BranchAndBound, Global, HybridSssSa, Mapper, MonteCarlo, RandomMapper,
        SimulatedAnnealing, SortSelectSwap,
    };
    pub use crate::mapping::{
        co_optimize, evaluate, piecewise_traffic_spec, sss_inner, traffic_spec, AplReport,
        BatchEvaluator, BudgetError, CancelToken, Energy, EvalTables, IncrementalEvaluator,
        Mapping, MaxMinBalance, MigrationPenalized, MinMaxApl, Objective, ObjectiveSpec,
        ObmInstance, PlacementOptions, PlacementOutcome, RemapConfig, RemapController, RemapError,
        RemapEvent, RemapOutcome, SearchMode,
    };
    pub use crate::metrics::{ClockMode, MetricsHandle, MetricsRegistry, MetricsSnapshot};
    pub use crate::model::{
        ChipLayout, Coord, LatencyParams, MemoryControllers, Mesh, PlacementError, TileId,
        TileLatencies, Topology,
    };
    pub use crate::portfolio::{
        portfolio_inner, Algorithm, Checkpoint, RequestError, SolveBudget, SolveOutcome,
        SolveRequest, SolveStats, Termination,
    };
    pub use crate::sim::{
        ConfigError, Network, Schedule, SimConfig, SimConfigBuilder, SimReport, SourceCounters,
        SourceSpec, SwapController, TrafficSpec,
    };
    pub use crate::telemetry::{
        FlowSummary, HeatmapRecord, JsonLinesSink, LatencyAccum, LatencyHistogram, NoopSink,
        PacketRecord, Phase, Probe, Record, RingSink, Sink, SolverEvent, WindowRecord,
    };
    pub use crate::workload::{PaperConfig, WorkloadBuilder};
}
