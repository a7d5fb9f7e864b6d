//! Cycle-level NoC simulator — the workspace's substitute for Garnet
//! (DESIGN.md §4.2).
//!
//! Simulates the paper's Table 2 network: an `n×n` mesh of canonical
//! 3-stage credit-based wormhole routers with class-partitioned virtual
//! channels (3 per protocol class), 5-flit input buffers, 128-bit links
//! (1- and 5-flit packets), XY routing, and per-tile network interfaces.
//! Traffic is generated per tile from Bernoulli processes or replayed
//! epoch traces ([`Schedule`]), with cache packets hashed uniformly over
//! all tiles and memory packets forwarded to the nearest corner
//! controller — exactly the traffic semantics behind the analytic `TC`/`TM`
//! arrays in `noc-model`.
//!
//! Two things the paper needs from the network are validated here:
//!
//! 1. the uncontended latency equals Eq. (2) cycle-for-cycle (unit tests in
//!    [`network`]);
//! 2. queueing `td_q` stays in the 0–1 cycle band at the evaluated loads,
//!    so the analytic model the mapping algorithms optimize against is
//!    faithful ([`SimReport::mean_td_q`]).
//!
//! # Performance model
//!
//! The simulator is the inner loop of every sweep in `obm-bench`, so the
//! hot path is engineered to be allocation-free and activity-proportional
//! in steady state. Cost per simulated cycle is
//! `O(active routers × occupied VC slots + active NIs)`, **not**
//! `O(mesh size × ports × VCs)`:
//!
//! - **Activity worklists.** [`network::Network`] keeps bitsets of routers
//!   with at least one buffered flit and NIs with pending traffic; idle
//!   tiles cost nothing. Invariant: a router's bit is set *iff*
//!   `buffered > 0`, maintained at every flit push/pop (see
//!   `buffer_flit_at` and the pop sites in `step_router`).
//! - **Occupancy masks.** Each router carries a `u64` bitmask with one bit
//!   per `(input port, VC)` arbitration slot, set *iff* that input VC has
//!   a buffered flit. Switch allocation iterates set bits in round-robin
//!   order instead of scanning all `ports × VCs` slots — the single
//!   biggest win (~6× on the paper workload). Each cycle one pass over
//!   the occupied slots builds a mask of switch-ready ones, and each
//!   output port scans only the ready slots routed to it whose crossbar
//!   input is still free; probed runs share that scan. Requires
//!   `ports × total VCs ≤ 64` (validated by `Network::new`, which
//!   returns [`ConfigError::VcOverflow`] otherwise).
//! - **Zero steady-state allocation.** The per-cycle delivery/credit
//!   staging vectors are scratch buffers owned by the `Network` and reused
//!   every cycle; packet metadata lives in a slab whose slots are recycled
//!   through a free list when the tail flit ejects.
//! - **Incremental telemetry.** `total_buffered` (and its peak) is a
//!   counter maintained at push/pop, replacing a per-cycle `O(routers)`
//!   scan. It is sampled at the same point in the cycle as the old scan,
//!   so `peak_buffered_flits` is unchanged.
//! - **Geometric injection + event-horizon fast-forward** (opt-in via
//!   [`InjectionProcess::Geometric`]). Instead of two Bernoulli trials per
//!   source per cycle, each `(source, class)` pair draws its next arrival
//!   cycle directly from the geometric inter-arrival distribution (one
//!   uniform per packet, exact by memorylessness; piecewise epochs
//!   resample at their boundaries) into a min-heap of pending events.
//!   When the network is fully quiescent the main loop jumps straight to
//!   the next event, clamped at telemetry window boundaries so probed
//!   window spans stay exact. At the paper's low loads this turns the
//!   traffic front-end from O(cycles × sources) into O(packets) and the
//!   idle stretches into heap pops — see `SimReport.network`'s
//!   `arrival_draws` / `skipped_cycles` counters and DESIGN.md §11.
//!
//! None of this changes simulated semantics: routers are still stepped in
//! ascending index order (bitset iteration is ordered, which keeps `f64`
//! latency accumulation bit-exact) and the traffic generator consumes RNG
//! draws in the exact same tile order, so a fixed seed produces
//! bit-identical [`SimReport`]s before and after the optimization
//! (regression-tested in `tests/sim_determinism.rs` at the workspace
//! root). Wall-clock throughput is reported per run via
//! [`stats::NetworkStats::cycles_per_sec`] and
//! [`stats::NetworkStats::flit_hops_per_sec`]; benchmark with the
//! `sim_paper` and `sim_saturated` workloads of `perfbench/`.
//!
//! # Construction and telemetry
//!
//! Configuration is validated at the boundary: [`SimConfig::builder`]
//! (or a hand-mutated [`SimConfig`]) plus a [`TrafficSpec`] go into
//! [`Network::new`], which returns a typed [`ConfigError`] instead of
//! panicking on bad parameters. [`Network::run_probed`] streams windowed
//! telemetry (`noc-telemetry` [`WindowRecord`]s) to any probe without
//! perturbing the simulation; [`Network::run`] is the telemetry-off path.
//!
//! ```no_run
//! use noc_model::Mesh;
//! use noc_sim::{Network, Schedule, SimConfig, TrafficSpec};
//!
//! let mesh = Mesh::square(8);
//! let cfg = SimConfig::paper_defaults(mesh);
//! let traffic = TrafficSpec::uniform(
//!     &mesh,
//!     Schedule::per_kilocycle(7.0),
//!     Schedule::per_kilocycle(0.9),
//! );
//! let report = Network::new(cfg, traffic).expect("valid scenario").run();
//! println!("{}", report.summary());
//! ```
//!
//! [`WindowRecord`]: noc_telemetry::WindowRecord

#![forbid(unsafe_code)]

pub mod config;
pub mod network;
pub mod packet;
pub mod stats;
pub mod traffic;

/// The telemetry crate, re-exported so simulator users reach probes and
/// sinks without naming a second dependency.
pub use noc_telemetry as telemetry;

pub use config::{ConfigError, InjectionProcess, RoutingKind, SimConfig, SimConfigBuilder};
pub use network::{Network, SourceCounters, SwapController};
pub use stats::{LatencyAccum, SimReport};
pub use traffic::{Schedule, SourceSpec, TrafficSpec};
