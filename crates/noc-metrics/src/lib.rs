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
//! Spans are the workspace's one wall clock. Result structs (simulation
//! reports, solve statistics) carry only what the seeded computation
//! determines; a printed rate is work ÷ a span's total, derived from a
//! snapshot when it is printed ([`per_sec`], [`MetricsSnapshot::span`],
//! [`MetricsSnapshot::span_sum`]), so it cannot disagree with the
//! snapshot exported next to it.
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
//! every duration as zero, and with it every rate derived from one.
//! Under the logical clock a fixed seed produces a byte-identical
//! snapshot and byte-identical printed rates, which is what
//! `scripts/check.sh` pins.

#![forbid(unsafe_code)]

mod dashboard;
mod export;
mod registry;
mod snapshot;

pub use registry::{ClockMode, Counter, MetricsHandle, MetricsRegistry, SpanGuard};
pub use snapshot::{per_sec, span_parent, MetricsSnapshot, SnapshotError, SpanSnapshot};
