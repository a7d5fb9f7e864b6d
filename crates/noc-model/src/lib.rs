//! Analytic model of a mesh-based NoC for chip-multiprocessors.
//!
//! This crate implements the architectural model of Section II of
//! *"Balancing On-Chip Network Latency in Multi-Application Mapping for
//! Chip-Multiprocessors"* (Zhu et al., IPDPS 2014):
//!
//! * a 2-D mesh of tiles, each with a core, a private L1 and a slice of the
//!   distributed shared L2 cache ([`geometry::Mesh`]);
//! * dimension-order (XY) routing ([`routing`]);
//! * the packet service-latency model of Eq. (2),
//!   `TD = H · (td_r + td_w + td_q) + td_s` ([`latency::LatencyParams`]);
//! * address-interleaved L2 bank hashing, which makes cache-packet
//!   destinations uniform over all tiles ([`hashing`]);
//! * memory controllers at the mesh corners with proximity-based forwarding
//!   ([`placement`]);
//! * the per-tile average latency arrays `TC(k)` (Eq. 3) and `TM(k)` (Eq. 4)
//!   consumed by the mapping algorithms ([`latency::TileLatencies`]).
//!
//! Everything here is pure, deterministic math with no I/O; the cycle-level
//! simulator in the `noc-sim` crate validates these closed forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometry;
pub mod hashing;
pub mod latency;
pub mod layout;
pub mod loads;
pub mod placement;
pub mod routing;
pub mod traffic;

pub use geometry::{Coord, Mesh, TileId};
pub use latency::{LatencyParams, TileLatencies};
pub use layout::{ChipLayout, PlacementError, Topology};
pub use loads::{LinkLoads, SourceLoad};
pub use placement::MemoryControllers;
pub use routing::{route_xy, route_xy_torus, route_yx, route_yx_torus, RouteDir};
pub use traffic::{PacketClass, PacketFormat};
