//! Runtime metrics for the mapping engine (DESIGN.md §17).
//!
//! Every long-running subsystem — the portfolio race, the simulator,
//! the online remap controller, the outer placement search —
//! reports into one [`MetricsRegistry`] through a cheap, cloneable
//! [`MetricsHandle`]. The handle is `Option`-shaped: a disabled handle
//! (the default everywhere) turns every instrument into a never-taken
//! branch, which is how the PR 2 purity contract survives — metrics are
//! write-only observers, simulated and solved results are bit-identical
//! with metrics on or off.
//!
//! Four instrument kinds:
//!
//! * **counters** — monotonic `u64`, lock-free (`AtomicU64`, relaxed);
//! * **gauges** — last-written `f64` (stored as bits in an `AtomicU64`);
//! * **histograms** — exact nearest-rank, reusing
//!   [`noc_telemetry::histogram::LatencyHistogram`] and recorded through
//!   [`MetricsHandle::observe`] (mutex-guarded, so cold paths only);
//! * **spans** — hierarchical wall-clock timings. A span's identity is
//!   its `/`-separated path ("portfolio/task/SA-s1"); the parent link is
//!   the path prefix, and observations aggregate per path (count, total,
//!   max), not per instance.
//!
//! Registration takes a short mutex once per name; the hot increment
//! path is atomic-only. [`MetricsRegistry::snapshot`] freezes everything
//! into a [`MetricsSnapshot`], exportable as Prometheus text or JSON
//! lines (through `noc_telemetry::json`, so emission is deterministic),
//! re-parseable from both, mergeable across processes, and renderable as
//! the `obm status` ASCII dashboard.
//!
//! # Determinism
//!
//! Counter totals, histogram contents and span *counts* are functions of
//! the seeded computation, so they are reproducible. Durations are not —
//! unless the registry runs under [`ClockMode::Logical`], which records
//! every duration (and every wall-derived gauge routed through
//! [`MetricsHandle::wall_gauge_set`]) as zero. Under the logical clock a
//! fixed seed produces a byte-identical snapshot, which is what
//! `scripts/check.sh` pins.

#![forbid(unsafe_code)]

mod dashboard;
mod export;
mod registry;
mod snapshot;

pub use registry::{ClockMode, Counter, Gauge, MetricsHandle, MetricsRegistry, SpanGuard};
pub use snapshot::{span_parent, MetricsSnapshot, SnapshotError, SpanSnapshot};
