//! On-chip-latency Balanced Mapping (OBM) — the primary contribution of
//! *"Balancing On-Chip Network Latency in Multi-Application Mapping for
//! Chip-Multiprocessors"* (Zhu et al., IPDPS 2014).
//!
//! * [`problem`] — the OBM instance (Section III.B) and thread-to-tile
//!   mappings;
//! * [`eval`] — per-application APL (Eq. 5), max-APL/dev-APL/g-APL metrics,
//!   and an incremental evaluator for local-search algorithms;
//! * [`batch`] — the flat SoA evaluation tables (precomputed Eq. 13 cost
//!   matrix) every solver hot path reads, and the batched
//!   [`BatchEvaluator`] with its deterministic parallel `eval_many`;
//! * [`sam`] — the Hungarian-based single-application solve (Algorithm 1);
//! * [`algorithms`] — the proposed [`algorithms::SortSelectSwap`]
//!   (Algorithm 2) plus the paper's comparison algorithms
//!   ([`algorithms::Global`], [`algorithms::MonteCarlo`],
//!   [`algorithms::SimulatedAnnealing`]) and exact brute force;
//! * [`reduction`] — the NP-completeness proof of Section III.C as
//!   executable code (set-partition ⇌ DOBM);
//! * [`dynamic`] — runtime add/remove-application remapping (Section IV.B);
//! * [`refine`] — pairwise-swap local search usable to polish any mapping
//!   (extension);
//! * [`oversub`] — multiple threads per tile via virtual-tile expansion
//!   (the generalization the paper's §III.B footnote defers);
//! * [`bridge`] — [`traffic_spec`]: the `noc-sim` traffic a mapped
//!   instance induces, for cycle-level validation of analytic results;
//! * [`objective`] — the pluggable [`Objective`] API (min-max APL,
//!   max-min balance, energy, migration-penalized) behind `--objective`
//!   and the online controller;
//! * [`remap`] — the closed-loop online [`RemapController`]: windowed
//!   telemetry in, drift detection, warm-started migration-penalized
//!   re-solve, deterministic mid-run mapping swap out (DESIGN.md §14);
//! * [`pool`] — [`pool::run_indexed`], the fork–join helper every
//!   parallel search site (MC draws, SA restarts, `eval_many_parallel`,
//!   the portfolio race, the experiment sweeps) runs on;
//! * [`placement`] — placement co-optimization: an outer deterministic
//!   search over memory-controller [`ChipLayout`](noc_model::ChipLayout)s
//!   with the OBM solver in the inner loop (DESIGN.md §15).
//!
//! Every [`Mapper`] also has a [`Mapper::map_probed`] entry point that
//! streams solver telemetry (`noc-telemetry`
//! [`SolverEvent`](noc_telemetry::SolverEvent)s — accepted SSS window
//! swaps, SA temperature checkpoints, incremental-evaluation deltas) to a
//! caller-supplied probe without perturbing the search, and a
//! [`Mapper::map_cancellable`] entry point ([`cancel`]) that additionally
//! polls a [`CancelToken`] so deadlines and external cancellation stop
//! long searches early — the foundation of the `obm-portfolio` parallel
//! solver-portfolio engine.
//!
//! # Quick example
//!
//! ```
//! use noc_model::{LatencyParams, Mesh, MemoryControllers, TileLatencies};
//! use obm_core::algorithms::{Mapper, SortSelectSwap};
//! use obm_core::{evaluate, ObmInstance};
//!
//! // The paper's Figure 5 setting: 4×4 mesh, 4 apps × 4 threads.
//! let mesh = Mesh::square(4);
//! let mcs = MemoryControllers::corners(&mesh);
//! let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
//! let cache_rates: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
//! let inst = ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], cache_rates, vec![0.0; 16]);
//!
//! let mapping = SortSelectSwap::default().map(&inst, 0);
//! let report = evaluate(&inst, &mapping);
//! assert!((report.max_apl - 10.3375).abs() < 1e-9); // the paper's optimum
//! ```

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod batch;
pub mod bridge;
pub mod cancel;
pub mod dynamic;
pub mod eval;
pub mod objective;
pub mod oversub;
pub mod placement;
pub mod pool;
pub mod problem;
pub mod reduction;
pub mod refine;
pub mod remap;
pub mod sam;

pub use algorithms::{BudgetError, Mapper};
pub use batch::{BatchEvaluator, EvalTables};
pub use bridge::{piecewise_traffic_spec, traffic_spec};
pub use cancel::CancelToken;
pub use dynamic::RemapOutcome;
pub use eval::{evaluate, weighted_max_apl, AplReport, IncrementalEvaluator};
pub use objective::{
    migration_distance, refine_for_objective, threads_moved, Energy, MaxMinBalance,
    MigrationPenalized, MinMaxApl, Objective, ObjectiveSpec,
};
pub use placement::{
    co_optimize, sss_inner, PlacementOptions, PlacementOutcome, PlacementSearchError, SearchMode,
};
pub use problem::{Mapping, MappingError, ObmInstance};
pub use refine::{polish, Polished};
pub use remap::{RemapConfig, RemapController, RemapError, RemapEvent};
pub use sam::{solve_sam, SamSolution};
