//! CMP cache-hierarchy model — the workspace's substitute for the
//! GEMS/Ruby memory-system timing the paper obtains through full-system
//! simulation (DESIGN.md §4.4).
//!
//! The mapping formulation only consumes two numbers per thread: the
//! shared-L2-cache request rate `c_j` and the memory-controller request
//! rate `m_j`. The `workload` crate *calibrates* those to the paper's
//! Table 3; this crate *derives* them from first principles instead:
//!
//! * per-core private L1s (Table 2: 32 KB, 2-way, LRU) — [`cache`];
//! * a distributed shared L2 (256 KB × N banks, 16-way, address-
//!   interleaved via the same [`noc_model::hashing::BankHash`] the latency
//!   model uses) with a MOESI-lite directory — [`coherence`];
//! * synthetic per-thread address streams spanning the locality regimes
//!   of the PARSEC codes — [`address`];
//! * a system driver that filters the streams through the hierarchy and
//!   emits per-epoch request-rate traces convertible to a
//!   [`workload::Workload`] — [`system`].
//!
//! ```
//! use cmp_cache::address::AddressPattern;
//! use cmp_cache::system::{CacheAppSpec, CmpSystem, SystemConfig, ThreadSpec};
//! use noc_model::Mesh;
//!
//! let cfg = SystemConfig { epochs: 20, ..SystemConfig::paper_defaults(Mesh::square(4)) };
//! let app = CacheAppSpec {
//!     name: "stream-like".into(),
//!     threads: vec![ThreadSpec {
//!         accesses_per_kilocycle: 150.0,
//!         write_fraction: 0.25,
//!         line_reuse: 8,
//!         private: AddressPattern::working_set(0x1000_0000, 30_000, 0.7),
//!         shared_fraction: 0.05,
//!     }],
//!     shared: AddressPattern::working_set(0x9000_0000, 128, 0.8),
//! };
//! let traces = CmpSystem::new(cfg, vec![app]).run();
//! let workload = traces.to_workload();     // feeds obm-core
//! assert!(workload.apps[0].total_rate() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod address;
pub mod cache;
pub mod coherence;
pub mod lru;
pub mod system;

pub use address::AddressPattern;
pub use cache::{Cache, CacheConfig, CacheStats};
pub use coherence::Directory;
pub use system::{CacheAppSpec, CacheTraces, CmpSystem, SystemConfig, ThreadSpec};
