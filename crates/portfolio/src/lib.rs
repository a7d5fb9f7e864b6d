//! Deterministic parallel solver-portfolio engine.
//!
//! Races a configured line-up of `obm-core` mappers — sort-select-swap,
//! multi-seed simulated annealing, the SSS+SA hybrid, balanced greedy,
//! Monte-Carlo, and optionally branch-and-bound — across scoped worker
//! threads under a shared [`SolveBudget`] (wall-clock deadline and/or a
//! deterministic evaluation cap), with cooperative cancellation and
//! checkpoint/resume. The default line-up depends on the objective
//! ([`Algorithm::default_portfolio_for`]): SSS, SSS+SA, SA and greedy,
//! plus Monte-Carlo for `max-min-balance` and `energy`. The whole engine
//! sits behind one request/outcome pair:
//!
//! ```
//! use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
//! use obm_core::problem::ObmInstance;
//! use obm_portfolio::{Algorithm, SolveRequest, Termination};
//!
//! // A 4x4-mesh instance: 16 tiles, four 4-thread applications.
//! let mesh = Mesh::square(4);
//! let mcs = MemoryControllers::corners(&mesh);
//! let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
//! let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
//! let inst = ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16]);
//!
//! let outcome = SolveRequest::builder(&inst)
//!     .algorithms(Algorithm::default_portfolio())
//!     .seeds([1, 2, 3])
//!     .workers(4)
//!     .build()
//!     .expect("valid request")
//!     .solve();
//!
//! assert_eq!(outcome.termination, Termination::Completed);
//! assert!(outcome.objective.is_finite());
//! ```
//!
//! # Determinism
//!
//! A fixed request produces a bit-identical winner (mapping, objective,
//! tie-break) for **any** worker count: tasks get ranks and budgets
//! before the race starts, results merge by (objective, task-rank) via
//! `f64::total_cmp`, and interrupted tasks contribute nothing. Runs that
//! end in [`Termination::Completed`] or [`Termination::BudgetExhausted`]
//! are fully reproducible; [`Termination::Deadline`] and
//! [`Termination::Cancelled`] are best-effort (which tasks finished
//! depends on timing, but the merge of those that did is still
//! deterministic). DESIGN.md §10 specifies the model.

#![forbid(unsafe_code)]

pub mod checkpoint;
mod engine;
pub mod outcome;
pub mod placement;
pub mod request;

pub use checkpoint::{Checkpoint, CheckpointError, CompletedTask, CHECKPOINT_VERSION};
pub use outcome::{SolveOutcome, SolveStats, Termination};
pub use placement::portfolio_inner;
pub use request::{Algorithm, RequestError, SolveBudget, SolveRequest, SolveRequestBuilder};
