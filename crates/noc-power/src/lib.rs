//! NoC power model — the workspace's substitute for DSENT (DESIGN.md §4.3).
//!
//! The paper evaluates mapping algorithms' power impact with DSENT at a
//! 45 nm / 1 V technology point and notes that, for a fixed router design,
//! *static power is the same across mappings* while *dynamic power depends
//! on the number of packets injected per unit time and the average hops per
//! packet*. This crate implements exactly that decomposition:
//!
//! * dynamic energy = flits × (router traversals × `E_router` + link
//!   traversals × `E_link`), where a packet over `H` hops traverses `H+1`
//!   routers and `H` links;
//! * static power = `P_static` per router.
//!
//! The per-flit energy constants are representative 45 nm values for a
//! 128-bit-flit 5-port wormhole router (DSENT-class numbers, documented on
//! [`PowerParams::dsent_45nm`]); since Figure 11 only makes *relative*
//! claims between mapping algorithms, only the router:link energy ratio
//! materially matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use noc_model::{Mesh, TileId, TileLatencies};

/// Technology/energy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Energy per flit per router traversal, in picojoules.
    pub router_energy_pj: f64,
    /// Energy per flit per link traversal, in picojoules.
    pub link_energy_pj: f64,
    /// Static (leakage + clock) power per router, in milliwatts.
    pub static_power_mw_per_router: f64,
    /// Clock frequency in GHz (Table 2: 2 GHz).
    pub frequency_ghz: f64,
}

impl PowerParams {
    /// Representative 45 nm, 1 V, 2 GHz values for a 128-bit-flit 5-port
    /// 3-stage wormhole router with 6 VCs: ~5.2 pJ/flit through the router
    /// (buffer write/read + crossbar + arbitration), ~2.1 pJ/flit per 1 mm
    /// link, ~9 mW static per router+link group. DSENT-class magnitudes;
    /// the relative comparisons of Figure 11 are insensitive to the
    /// absolute values.
    pub fn dsent_45nm() -> Self {
        PowerParams {
            router_energy_pj: 5.2,
            link_energy_pj: 2.1,
            static_power_mw_per_router: 9.0,
            frequency_ghz: 2.0,
        }
    }

    /// Dynamic energy of one flit travelling `hops` links (and `hops + 1`
    /// routers), in picojoules. A zero-hop "packet" never enters the
    /// network and consumes nothing.
    pub fn flit_energy_pj(&self, hops: f64) -> f64 {
        if hops <= 0.0 {
            0.0
        } else {
            (hops + 1.0) * self.router_energy_pj + hops * self.link_energy_pj
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams::dsent_45nm()
    }
}

/// A power estimate for one mapping / simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Dynamic NoC power in milliwatts.
    pub dynamic_mw: f64,
    /// Static NoC power in milliwatts (mapping-independent).
    pub static_mw: f64,
}

impl PowerReport {
    /// Total power.
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.static_mw
    }
}

/// Dynamic + static power from *measured* simulation output: total
/// flit-hops and total flits over a measurement window of `cycles`.
///
/// Uses the identity `flits·(H+1)·E_r + flits·H·E_l =
/// flit_hops·(E_r + E_l) + flits·E_r` summed over packets.
pub fn power_from_counts(
    params: &PowerParams,
    mesh: &Mesh,
    flit_hops: u64,
    routed_flits: u64,
    cycles: u64,
) -> PowerReport {
    assert!(cycles > 0);
    let energy_pj = flit_hops as f64 * (params.router_energy_pj + params.link_energy_pj)
        + routed_flits as f64 * params.router_energy_pj;
    let seconds = cycles as f64 / (params.frequency_ghz * 1e9);
    PowerReport {
        dynamic_mw: energy_pj * 1e-12 / seconds * 1e3,
        static_mw: params.static_power_mw_per_router * mesh.num_tiles() as f64,
    }
}

/// One placed traffic source for the analytic estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedLoad {
    /// Tile the thread is mapped to.
    pub tile: TileId,
    /// Cache request rate in packets per cycle.
    pub cache_rate: f64,
    /// Memory request rate in packets per cycle.
    pub mem_rate: f64,
}

/// Analytic dynamic power of a mapping: expected flit-hops per cycle from
/// the closed-form hop averages (`H̄C`, `H̄M`) of the latency model, with
/// `flits_per_packet` the mean packet length (3.0 for the paper's even
/// request/reply mix).
///
/// Mirrors what the paper's Figure 11 computes: dynamic power ∝ injection
/// rate × mean hops, so mapping heavy threads to central tiles (low `H̄C`)
/// lowers cache-traffic power while corner placement lowers memory-traffic
/// power.
pub fn analytic_power(
    params: &PowerParams,
    mesh: &Mesh,
    latencies: &TileLatencies,
    loads: &[PlacedLoad],
    flits_per_packet: f64,
) -> PowerReport {
    let mut energy_pj_per_cycle = 0.0;
    let n = mesh.num_tiles() as f64;
    for l in loads {
        let hc = latencies.cache_hops(l.tile);
        // A fraction 1/N of cache packets stay on-tile (0 routers, 0
        // links); the rest traverse hops+1 routers on average. Express the
        // expectation directly: E[routers] = hc + (N-1)/N, E[links] = hc.
        let cache_routers = hc + (n - 1.0) / n;
        energy_pj_per_cycle += l.cache_rate
            * flits_per_packet
            * (cache_routers * params.router_energy_pj + hc * params.link_energy_pj);
        let hm = latencies.mem_hops(l.tile);
        let mem_routers = if hm > 0.0 { hm + 1.0 } else { 0.0 };
        energy_pj_per_cycle += l.mem_rate
            * flits_per_packet
            * (mem_routers * params.router_energy_pj + hm * params.link_energy_pj);
    }
    let cycle_seconds = 1.0 / (params.frequency_ghz * 1e9);
    PowerReport {
        dynamic_mw: energy_pj_per_cycle * 1e-12 / cycle_seconds * 1e3,
        static_mw: params.static_power_mw_per_router * mesh.num_tiles() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers};

    #[test]
    fn flit_energy_scales_with_hops() {
        let p = PowerParams::dsent_45nm();
        assert_eq!(p.flit_energy_pj(0.0), 0.0);
        let e1 = p.flit_energy_pj(1.0);
        let e2 = p.flit_energy_pj(2.0);
        assert!((e1 - (2.0 * 5.2 + 2.1)).abs() < 1e-9);
        assert!((e2 - e1 - (5.2 + 2.1)).abs() < 1e-9);
    }

    #[test]
    fn counts_and_identity_agree() {
        // 10 packets × 5 flits × 3 hops: flit_hops = 150, flits = 50.
        let p = PowerParams::dsent_45nm();
        let mesh = Mesh::square(4);
        let r = power_from_counts(&p, &mesh, 150, 50, 1000);
        let direct_pj = 50.0 * p.flit_energy_pj(3.0);
        let seconds = 1000.0 / 2e9;
        assert!((r.dynamic_mw - direct_pj * 1e-12 / seconds * 1e3).abs() < 1e-9);
        assert!((r.static_mw - 9.0 * 16.0).abs() < 1e-9);
    }

    #[test]
    fn central_placement_cheaper_for_cache_traffic() {
        let mesh = Mesh::square(8);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let p = PowerParams::dsent_45nm();
        let center = PlacedLoad {
            tile: mesh.tile(noc_model::Coord::new(3, 3)),
            cache_rate: 0.01,
            mem_rate: 0.0,
        };
        let corner = PlacedLoad {
            tile: mesh.tile(noc_model::Coord::new(0, 0)),
            cache_rate: 0.01,
            mem_rate: 0.0,
        };
        let pc = analytic_power(&p, &mesh, &tl, &[center], 3.0);
        let pk = analytic_power(&p, &mesh, &tl, &[corner], 3.0);
        assert!(pc.dynamic_mw < pk.dynamic_mw);
        assert_eq!(pc.static_mw, pk.static_mw);
    }

    #[test]
    fn corner_placement_cheaper_for_memory_traffic() {
        let mesh = Mesh::square(8);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let p = PowerParams::dsent_45nm();
        let mk = |row, col| PlacedLoad {
            tile: mesh.tile(noc_model::Coord::new(row, col)),
            cache_rate: 0.0,
            mem_rate: 0.01,
        };
        let pc = analytic_power(&p, &mesh, &tl, &[mk(3, 3)], 3.0);
        let pk = analytic_power(&p, &mesh, &tl, &[mk(0, 0)], 3.0);
        assert!(pk.dynamic_mw < pc.dynamic_mw);
        assert_eq!(pk.dynamic_mw, 0.0, "controller tile pays nothing");
    }

    #[test]
    fn power_is_additive_over_loads() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let p = PowerParams::dsent_45nm();
        let a = PlacedLoad {
            tile: TileId(1),
            cache_rate: 0.004,
            mem_rate: 0.001,
        };
        let b = PlacedLoad {
            tile: TileId(10),
            cache_rate: 0.002,
            mem_rate: 0.0005,
        };
        let ab = analytic_power(&p, &mesh, &tl, &[a, b], 3.0);
        let pa = analytic_power(&p, &mesh, &tl, &[a], 3.0);
        let pb = analytic_power(&p, &mesh, &tl, &[b], 3.0);
        assert!((ab.dynamic_mw - pa.dynamic_mw - pb.dynamic_mw).abs() < 1e-12);
    }
}
