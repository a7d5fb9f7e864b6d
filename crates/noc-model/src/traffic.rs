//! Packet classes and formats.
//!
//! Table 2 of the paper: 128-bit links, short 16-bit packets are single-flit
//! (requests, coherence control), long packets carrying a 64-byte cache line
//! plus a head flit are 5 flits (data replies).

/// The two traffic classes distinguished by the mapping formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Shared-L2-cache traffic: requests to the address-hashed bank,
    /// checking/forwarding between L1s, and data replies. Either endpoint is
    /// an L2 bank, so destinations are uniform over all tiles.
    Cache,
    /// Memory-controller traffic, forwarded to the nearest controller.
    Memory,
}

/// Physical packet format on the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFormat {
    /// Link width in bits per cycle (Table 2: 128).
    pub link_bits: u32,
    /// Payload of a short control/request packet in bits (16).
    pub short_bits: u32,
    /// Cache-line size in bytes carried by a long packet (64).
    pub line_bytes: u32,
}

impl Default for PacketFormat {
    fn default() -> Self {
        PacketFormat {
            link_bits: 128,
            short_bits: 16,
            line_bytes: 64,
        }
    }
}

impl PacketFormat {
    /// Flits in a short packet. With 16-bit payloads on a 128-bit link this
    /// is a single flit.
    pub fn short_flits(&self) -> u32 {
        self.short_bits.div_ceil(self.link_bits).max(1)
    }

    /// Flits in a long data packet: one head flit plus the data flits
    /// (Table 2: 1 + 512/128 = 5 flits).
    pub fn long_flits(&self) -> u32 {
        1 + (self.line_bytes * 8).div_ceil(self.link_bits)
    }

    /// Serialization latency in cycles of a packet of `flits` flits at one
    /// flit per cycle: the body must follow the head through the ejection
    /// link, i.e. `flits` cycles in total with the head's cycle counted in
    /// the per-hop terms — the paper's `td_s = packet length / bandwidth`.
    pub fn serialization_cycles(&self, flits: u32) -> f64 {
        flits as f64
    }

    /// Mean serialization latency over a traffic mix in which a fraction
    /// `long_fraction` of packets are long data packets.
    pub fn mixed_serialization(&self, long_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&long_fraction));
        (1.0 - long_fraction) * self.serialization_cycles(self.short_flits())
            + long_fraction * self.serialization_cycles(self.long_flits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_flit_counts() {
        let f = PacketFormat::default();
        assert_eq!(f.short_flits(), 1);
        assert_eq!(f.long_flits(), 5);
    }

    #[test]
    fn mixed_serialization_interpolates() {
        let f = PacketFormat::default();
        assert!((f.mixed_serialization(0.0) - 1.0).abs() < 1e-12);
        assert!((f.mixed_serialization(1.0) - 5.0).abs() < 1e-12);
        assert!((f.mixed_serialization(0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wide_link_still_single_flit_minimum() {
        let f = PacketFormat {
            link_bits: 256,
            short_bits: 16,
            line_bytes: 64,
        };
        assert_eq!(f.short_flits(), 1);
        assert_eq!(f.long_flits(), 3);
    }
}
