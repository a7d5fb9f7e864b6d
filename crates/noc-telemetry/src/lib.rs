//! Windowed time-series telemetry for the cycle-level NoC simulator and
//! the mapping solvers (DESIGN.md §"Telemetry").
//!
//! The paper's validation methodology (Section V: `td_q` staying in the
//! 0–1 cycle band) and the latency-balance evaluation style of related NoC
//! mapping work both need *time-resolved* network state — injection rate,
//! buffered flits, per-class latency — not just end-of-run aggregates.
//! This crate is the measurement layer those consumers share:
//!
//! * [`LatencyAccum`] — the per-bucket latency histogram/accumulator
//!   (moved here from `noc-sim::stats` so windows and reports share one
//!   implementation; `noc-sim` re-exports it for compatibility);
//! * [`WindowRecord`] / [`Windower`] — fixed-width windows over simulated
//!   cycles, truncated at warm-up/measure/drain phase boundaries, each
//!   carrying injection/ejection counts, occupancy samples and per-class /
//!   per-group latency accumulators;
//! * [`LatencyHistogram`] / [`PacketRecord`] / [`FlowSummary`] — exact
//!   sparse latency histograms with true nearest-rank quantiles, and the
//!   per-packet lifecycle decomposition (source-queuing vs in-network vs
//!   serialization) they aggregate (DESIGN.md §12);
//! * [`HeatmapRecord`] — spatial per-link flit traversals, per-VC
//!   buffer-occupancy integrals and per-router stall counters on the
//!   mesh, with an ASCII renderer;
//! * [`ProfileRecord`] — opt-in wall-clock phase profile of the
//!   simulator loop, per window (nondeterministic, never fed back);
//! * [`SolverEvent`] — solver-side events (SSS swap acceptances, SA
//!   temperature checkpoints, incremental-eval deltas);
//! * [`Probe`] / [`Sink`] — the trait pair instrumented code talks to.
//!   [`NoopSink`] is the zero-cost default: instrumented hot loops check
//!   [`Probe::is_enabled`] once and skip all bookkeeping, so a run with
//!   telemetry off is bit-identical to (and as fast as) an
//!   uninstrumented one;
//! * [`RingSink`] — bounded in-memory capture (keeps the newest records);
//! * [`JsonLinesSink`] — machine-readable JSON-lines artifacts, one record
//!   per line, consumed by `scripts/trace_summary.py` and the
//!   `obm experiments trace` CLI subcommand;
//! * [`json`] — the dependency-free JSON emitter/parser behind the
//!   artifact schema (documented in DESIGN.md).
//!
//! # Contract
//!
//! Instrumented code receives a `&mut dyn Probe` and must
//!
//! 1. call [`Probe::is_enabled`] before doing any telemetry-only work, and
//! 2. never let the probe influence simulated or solver semantics: the
//!    same seed must produce the same result whatever the probe.
//!
//! Every [`Sink`] automatically implements [`Probe`] through a blanket
//! impl, so `&mut RingSink` can be passed wherever a probe is expected.

#![forbid(unsafe_code)]

pub mod heatmap;
pub mod histogram;
pub mod json;
pub mod latency;
pub mod probe;
pub mod sink;
pub mod solver;
pub mod window;

pub use heatmap::{HeatmapRecord, LinkFlits};
pub use histogram::{FlowAccum, FlowSummary, LatencyHistogram, Log2Bucket, PacketRecord};
pub use latency::LatencyAccum;
pub use probe::{NoopSink, Probe, Record, Sink};
pub use sink::{JsonLinesSink, RingSink};
pub use solver::SolverEvent;
pub use window::{Phase, ProfileRecord, WindowRecord, Windower};
