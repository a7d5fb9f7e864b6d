//! Packets and flits.

use noc_model::{PacketClass, TileId};

/// Identifier of an in-flight packet (index into the simulator's packet
/// table).
pub type PacketId = u32;

/// Flag bit: this flit is its packet's head.
pub const FLIT_HEAD: u8 = 1;
/// Flag bit: this flit is its packet's tail.
pub const FLIT_TAIL: u8 = 1 << 1;
/// Flag bit: the packet travels in the memory class (clear = cache).
pub const FLIT_MEM: u8 = 1 << 2;

/// One flit on the wire. The payload is irrelevant to timing, but the
/// flit carries everything the router datapath needs — destination tile
/// and class alongside the position markers — so routing, VC allocation
/// and delivery never have to chase the packet id into the metadata
/// slab. That keeps the hot arbitration loop free of slab cache misses:
/// ids are resolved only when a tail ejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    pub packet: PacketId,
    /// Destination tile index (meshes are capped at 65536 tiles —
    /// `ConfigError::MeshTooLarge`).
    pub dst: u16,
    /// Position and class bits ([`FLIT_HEAD`] | [`FLIT_TAIL`] |
    /// [`FLIT_MEM`]).
    pub flags: u8,
}

impl Flit {
    /// Whether this is the packet's head flit.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.flags & FLIT_HEAD != 0
    }

    /// Whether this is the packet's tail flit.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.flags & FLIT_TAIL != 0
    }

    /// Traffic-class index (0 = cache, 1 = memory), matching the VC
    /// partition.
    #[inline]
    pub fn class_index(&self) -> usize {
        ((self.flags & FLIT_MEM) >> 2) as usize
    }
}

/// Metadata of a packet, kept in a side table.
#[derive(Debug, Clone)]
pub struct PacketInfo {
    pub src: TileId,
    pub dst: TileId,
    /// Index of the traffic source that spawned the packet. `src` is the
    /// spawn-time *tile*; the source index stays stable across mid-run
    /// retargets ([`SwapController`](crate::SwapController)), so
    /// per-source accounting follows the workload, not the floorplan.
    pub source: u32,
    pub class: PacketClass,
    /// Traffic group (application id) for per-application accounting.
    pub group: usize,
    /// Length in flits.
    pub len: u16,
    /// Cycle the packet was created at the source NI.
    pub inject_cycle: u64,
    /// Minimal hop count of its route.
    pub hops: u32,
    /// Whether the packet was created during the measurement window.
    pub measured: bool,
}

/// Observability-only lifecycle stamps of an in-flight packet, kept in a
/// side slab parallel to the [`PacketInfo`] slab and only when a probe is
/// attached. `PacketInfo.inject_cycle` already records creation at the
/// source NI (the enqueue stamp); these add the two head-flit transitions
/// needed for the DESIGN.md §12 latency decomposition. Never read by the
/// simulation itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketStamps {
    /// Cycle the head flit entered the source router's local input port.
    pub head_inject: u64,
    /// Cycle the head flit ejected at the destination.
    pub head_eject: u64,
}

impl PacketInfo {
    /// Expand into the flit sequence.
    pub fn flits(&self, id: PacketId) -> impl Iterator<Item = Flit> + '_ {
        let len = self.len;
        let dst = self.dst.index() as u16;
        let class = if self.class == PacketClass::Memory {
            FLIT_MEM
        } else {
            0
        };
        (0..len).map(move |i| {
            let mut flags = class;
            if i == 0 {
                flags |= FLIT_HEAD;
            }
            if i + 1 == len {
                flags |= FLIT_TAIL;
            }
            Flit {
                packet: id,
                dst,
                flags,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_expansion_markers() {
        let p = PacketInfo {
            src: TileId(0),
            dst: TileId(5),
            source: 0,
            class: PacketClass::Cache,
            group: 0,
            len: 5,
            inject_cycle: 0,
            hops: 3,
            measured: true,
        };
        let flits: Vec<Flit> = p.flits(7).collect();
        assert_eq!(flits.len(), 5);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(flits[4].is_tail() && !flits[4].is_head());
        assert!(flits[1..4].iter().all(|f| !f.is_head() && !f.is_tail()));
        assert!(flits.iter().all(|f| f.packet == 7));
        assert!(flits.iter().all(|f| f.dst == 5));
        assert!(flits.iter().all(|f| f.class_index() == 0));
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let p = PacketInfo {
            src: TileId(0),
            dst: TileId(1),
            source: 0,
            class: PacketClass::Memory,
            group: 1,
            len: 1,
            inject_cycle: 3,
            hops: 1,
            measured: false,
        };
        let flits: Vec<Flit> = p.flits(0).collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head() && flits[0].is_tail());
        assert_eq!(flits[0].class_index(), 1);
    }
}
