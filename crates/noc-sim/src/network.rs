//! The cycle-level network: 3-stage credit-based wormhole routers with
//! virtual channels on a 2-D mesh, XY routing, and per-tile network
//! interfaces (NIs).
//!
//! Timing model (matching the paper's Eq. (2) in the uncontended case):
//! every flit is charged `router_stages` cycles of pipeline delay at each
//! router that *forwards* it and `link_cycles` per link; ejection at the
//! destination is free. Deliveries land after the router pass, so a hop
//! never takes less than one cycle. An uncontended packet of `L` flits
//! over `H` hops therefore takes exactly `H·per_hop_cycles() + L` cycles
//! ([`SimConfig::per_hop_cycles`]) — the analytic model with
//! `td_q = 0`. Any additional cycles observed in simulation are queueing
//! (`td_q`), which the paper reports as 0–1 cycles at the evaluated
//! loads.
//!
//! Flow control: credit-based wormhole with class-partitioned virtual
//! channels and non-atomic VC reuse (a VC FIFO may hold flits of
//! consecutive packets; per-packet routing state applies to the packet at
//! the front, which preserves wormhole contiguity because upstream senders
//! never interleave flits of different packets on one VC).

use crate::config::{
    ConfigError, InjectionProcess, RoutingKind, SimConfig, MAX_ARBITRATION_SLOTS, NUM_PORTS,
};
use crate::packet::{Flit, PacketId, PacketInfo, PacketStamps, FLIT_HEAD, FLIT_MEM, FLIT_TAIL};
use crate::stats::SimReport;
use crate::traffic::{SourceSpec, TrafficSpec};
use noc_metrics::MetricsHandle;
use noc_model::{Mesh, PacketClass, TileId, Topology};
use noc_telemetry::{
    FlowSummary, HeatmapRecord, LatencyAccum, NoopSink, PacketRecord, Probe, WindowRecord, Windower,
};
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

const P_NORTH: usize = 0;
const P_SOUTH: usize = 1;
const P_WEST: usize = 2;
const P_EAST: usize = 3;
const P_LOCAL: usize = 4;

/// Input port at the neighbour that an output port feeds into.
fn opposite(port: usize) -> usize {
    match port {
        P_NORTH => P_SOUTH,
        P_SOUTH => P_NORTH,
        P_WEST => P_EAST,
        P_EAST => P_WEST,
        _ => unreachable!("local port has no opposite"),
    }
}

/// Neighbour tile in the direction of `port`, if it exists. On a torus
/// every direction exists — off-edge moves wrap around.
fn neighbor(mesh: &Mesh, topology: Topology, tile: TileId, port: usize) -> Option<TileId> {
    let c = mesh.coord(tile);
    let (dr, dc): (isize, isize) = match port {
        P_NORTH => (-1, 0),
        P_SOUTH => (1, 0),
        P_WEST => (0, -1),
        P_EAST => (0, 1),
        _ => return None,
    };
    let nr = c.row as isize + dr;
    let nc = c.col as isize + dc;
    if nr < 0 || nc < 0 || nr as usize >= mesh.rows() || nc as usize >= mesh.cols() {
        match topology {
            Topology::Mesh => None,
            Topology::Torus => {
                let wr = (nr + mesh.rows() as isize) as usize % mesh.rows();
                let wc = (nc + mesh.cols() as isize) as usize % mesh.cols();
                Some(mesh.tile(noc_model::Coord::new(wr, wc)))
            }
        }
    } else {
        Some(mesh.tile(noc_model::Coord::new(nr as usize, nc as usize)))
    }
}

#[derive(Debug, Clone)]
struct TimedFlit {
    flit: Flit,
    /// Earliest cycle this flit may leave the buffer (router pipeline
    /// charge is folded into this timestamp).
    ready: u64,
}

#[derive(Debug, Clone, Default)]
struct InputVc {
    buf: VecDeque<TimedFlit>,
    /// Downstream VC allocated to the front packet.
    out_vc: Option<usize>,
}

#[derive(Debug, Clone)]
struct OutVc {
    /// Allocated to a packet currently streaming through.
    busy: bool,
    /// Free slots in the downstream input VC buffer.
    credits: usize,
}

#[derive(Debug)]
struct Router {
    /// Input VCs, indexed by arbitration slot (`in_port * total_vcs + vc`)
    /// — one flat array, so the hot scan does a single indexed load per
    /// visited slot instead of chasing two nested `Vec`s.
    inputs: Vec<InputVc>,
    /// Output VCs, indexed `out_port * total_vcs + vc` (same flattening).
    outputs: Vec<OutVc>,
    /// Round-robin arbitration pointer per output port.
    rr: [usize; NUM_PORTS],
    /// Total buffered flits (fast-path skip for idle routers).
    buffered: usize,
    /// Occupancy bitmask over arbitration slots (`in_port * total_vcs +
    /// vc`): bit set iff that input VC has a buffered flit. Lets switch
    /// allocation iterate only occupied slots instead of scanning all
    /// `NUM_PORTS × total_vcs` of them; requires that product ≤ 64
    /// (validated in `Network::new` as `ConfigError::VcOverflow`).
    occ: u64,
    /// Per-output-port mask of slots whose front packet is routed to that
    /// port; a slot is in at most one mask, and in none between packets.
    /// Set when the head flit first becomes switch-ready, cleared when
    /// the tail leaves. Switch allocation for port `p` scans only
    /// `routed[p]` intersected with the cycle's ready mask.
    routed: [u64; NUM_PORTS],
    /// Union of the five `routed` masks, kept alongside them so the
    /// per-slot "already routed?" test is one load.
    routed_any: u64,
    /// Lower bound on the `ready` cycle of every occupied slot's front
    /// flit (`u64::MAX` when empty). Every buffer push lowers it; each
    /// executed step recomputes it exactly. While `wake > cycle` no front
    /// can leave, so the step would change nothing and the router pass
    /// skips it (DESIGN.md §16.3).
    wake: u64,
}

impl Router {
    fn new(vcs: usize, depth: usize) -> Self {
        Router {
            inputs: (0..NUM_PORTS * vcs).map(|_| InputVc::default()).collect(),
            outputs: (0..NUM_PORTS * vcs)
                .map(|_| OutVc {
                    busy: false,
                    credits: depth,
                })
                .collect(),
            rr: [0; NUM_PORTS],
            buffered: 0,
            occ: 0,
            routed: [0; NUM_PORTS],
            routed_any: 0,
            wake: u64::MAX,
        }
    }

    /// Slow oracle for a skipped step (debug builds): no occupied slot's
    /// front flit is switch-ready at `cycle`, and the stored union equals
    /// the OR of the `routed` masks.
    fn sleeps_soundly(&self, cycle: u64) -> bool {
        let union = self.routed.iter().fold(0, |acc, m| acc | m);
        let fronts_wait = (0..self.inputs.len())
            .filter(|&slot| self.occ & (1 << slot) != 0)
            .all(|slot| {
                self.inputs[slot]
                    .buf
                    .front()
                    .is_some_and(|tf| tf.ready > cycle)
            });
        union == self.routed_any && fronts_wait
    }
}

/// A packet waiting in an NI class queue. Length and destination ride
/// along so injection never reads the coordinator-owned packet slab.
#[derive(Debug, Clone, Copy)]
struct NiQueued {
    id: PacketId,
    len: u16,
    dst: u16,
}

/// The packet an NI is currently injecting, flit by flit.
#[derive(Debug, Clone, Copy)]
struct NiCur {
    id: PacketId,
    /// Next flit index.
    idx: u16,
    len: u16,
    dst: u16,
    /// Local input VC the packet streams into.
    vc: u8,
    /// Memory class (clear = cache), for the flit class flag.
    mem: bool,
}

/// Per-tile network interface: source queues feeding the router's local
/// input port, one flit per cycle.
#[derive(Debug)]
struct Ni {
    /// Per-class queues of waiting packets.
    queues: [VecDeque<NiQueued>; 2],
    /// Packet currently being injected.
    current: Option<NiCur>,
    /// Credits for the router's local input VCs.
    credits: Vec<usize>,
    /// Class round-robin pointer.
    rr_class: usize,
}

impl Ni {
    fn new(vcs: usize, depth: usize) -> Self {
        Ni {
            queues: [VecDeque::new(), VecDeque::new()],
            current: None,
            credits: vec![depth; vcs],
            rr_class: 0,
        }
    }

    fn pending(&self) -> bool {
        self.current.is_some() || !self.queues[0].is_empty() || !self.queues[1].is_empty()
    }
}

fn class_index(class: PacketClass) -> usize {
    match class {
        PacketClass::Cache => 0,
        PacketClass::Memory => 1,
    }
}

/// Dense index set over tiles, iterated in ascending order.
///
/// Activity-tracking invariant: a router's bit is set iff `buffered > 0`
/// (an NI's bit iff `pending()`), so the per-cycle loops visit only tiles
/// with work. Ascending iteration order is load-bearing: the report's f64
/// accumulators are summed in delivery order, so visiting routers in any
/// other order would change low bits of the totals and break bit-exact
/// reproducibility against the pre-optimization simulator.
///
/// The per-cycle passes walk `words` directly, copying each word before
/// visiting its members, so a member may be removed mid-walk without
/// disturbing the iteration.
#[derive(Debug, Clone)]
struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }
}

/// A flit crossing a link this cycle, to be buffered at the downstream
/// router once the router pass completes.
struct Delivery {
    router: usize,
    port: usize,
    vc: usize,
    flit: Flit,
    ready: u64,
}

/// A credit returned upstream once the router pass completes.
enum Credit {
    Router {
        router: usize,
        port: usize,
        vc: usize,
    },
    Ni {
        tile: usize,
        vc: usize,
    },
}

/// The effects one router pass defers to its end, applied in this field
/// order: tail ejections, then every delivery, then every credit
/// (DESIGN.md §16). Deferral is what makes a router's step independent
/// of the routers visited before it in the same cycle: with
/// `link_cycles = 0` or `router_stages = 0` a flit or credit applied
/// mid-pass would be usable again the same cycle. One buffer is reused
/// for every cycle of a run, so the steady state allocates nothing.
#[derive(Default)]
struct Transfers {
    /// Packets whose tail flit ejected, in ejection order (the order of
    /// the report's f64 sums and of slab recycling).
    tails: Vec<PacketId>,
    /// Flits crossing links; one per link traversal.
    deliveries: Vec<Delivery>,
    credits: Vec<Credit>,
}

/// Flow-level spatial observability state, allocated only when a probe is
/// attached (the `Option<Windower>` pattern): packet lifecycle stamps,
/// the per-class/per-group latency decomposition, and the spatial
/// heatmap. Pure observer — nothing in here is ever read back by the
/// simulation, so the probed run stays bit-identical to the plain one.
struct FlowState {
    /// Lifecycle stamps parallel to the packet slab (slots recycled the
    /// same way).
    stamps: Vec<PacketStamps>,
    /// Measured-packet latency decomposition, delivered as the end-of-run
    /// flow summary.
    summary: FlowSummary,
    /// Per-link / per-VC / per-router spatial counters (all phases).
    heatmap: HeatmapRecord,
    /// Whether the probe asked for per-packet records.
    wants_packets: bool,
    /// Packets delivered this cycle, flushed to `Probe::on_packet` after
    /// the router pass (only filled when `wants_packets`).
    pending: Vec<PacketRecord>,
}

/// Immutable per-run context for the router/NI datapath: everything the
/// per-cycle pass reads but never writes.
struct StepCtx {
    crossbar_input_limit: bool,
    /// `router_stages`.
    stages: u64,
    /// `link_cycles`.
    link: u64,
    /// `vcs_per_class`.
    vpc: usize,
    total_vcs: usize,
    /// `NUM_PORTS * total_vcs` arbitration slots.
    slots: usize,
    /// Input port of each arbitration slot (`slot / total_vcs`,
    /// precomputed for the per-winner lookup).
    slot_port: [u8; MAX_ARBITRATION_SLOTS],
    /// Slot mask of each input port's VCs: claiming a crossbar input
    /// removes these slots from the rest of the cycle's scans.
    port_slots: [u64; NUM_PORTS],
    /// `neighbors[tile][port]` for the four cardinal ports, torus wrap
    /// applied; `u16::MAX` marks a mesh edge.
    neighbors: Vec<[u16; 4]>,
    /// `[row, col]` of every tile, so routing a head flit needs no
    /// division.
    coords: Vec<[u32; 2]>,
    rows: u32,
    cols: u32,
    /// Torus topology: each dimension may route through its wrap link.
    wrap: bool,
    /// YX routing (rows first); XY otherwise.
    yx: bool,
}

impl StepCtx {
    fn new(cfg: &SimConfig) -> Self {
        let total_vcs = cfg.total_vcs();
        let slots = NUM_PORTS * total_vcs;
        let mut slot_port = [0u8; MAX_ARBITRATION_SLOTS];
        for (s, p) in slot_port.iter_mut().enumerate().take(slots) {
            *p = (s / total_vcs) as u8;
        }
        let vc_mask = (1u64 << total_vcs) - 1;
        let port_slots = std::array::from_fn(|p| vc_mask << (p * total_vcs));
        let mesh = &cfg.mesh;
        let neighbors = mesh
            .tiles()
            .map(|t| {
                std::array::from_fn(|port| {
                    neighbor(mesh, cfg.topology, t, port).map_or(u16::MAX, |nb| nb.index() as u16)
                })
            })
            .collect();
        let coords = mesh
            .tiles()
            .map(|t| {
                let c = mesh.coord(t);
                [c.row as u32, c.col as u32]
            })
            .collect();
        StepCtx {
            crossbar_input_limit: cfg.crossbar_input_limit,
            stages: cfg.router_stages,
            link: cfg.link_cycles,
            vpc: cfg.vcs_per_class,
            total_vcs,
            slots,
            slot_port,
            port_slots,
            neighbors,
            coords,
            rows: mesh.rows() as u32,
            cols: mesh.cols() as u32,
            wrap: cfg.topology == Topology::Torus,
            yx: cfg.routing == RoutingKind::Yx,
        }
    }
}

/// One NI's injection step: select a packet if idle, then push one flit
/// into the router's local input port, credit-gated. Returns whether a
/// flit entered the router.
fn inject_tile(
    ni: &mut Ni,
    router: &mut Router,
    t: usize,
    cycle: u64,
    ctx: &StepCtx,
    flow: Option<&mut FlowState>,
) -> bool {
    // Select a packet if none is mid-injection.
    if ni.current.is_none() {
        let rr = ni.rr_class;
        for off in 0..2 {
            let class = (rr + off) % 2;
            let Some(&q) = ni.queues[class].front() else {
                continue;
            };
            // Pick the class VC with the most credits.
            let range = class * ctx.vpc..(class + 1) * ctx.vpc;
            let Some(vc) = range
                .filter(|&v| ni.credits[v] > 0)
                .max_by_key(|&v| ni.credits[v])
            else {
                continue;
            };
            ni.queues[class].pop_front();
            ni.current = Some(NiCur {
                id: q.id,
                idx: 0,
                len: q.len,
                dst: q.dst,
                vc: vc as u8,
                mem: class == 1,
            });
            ni.rr_class = (class + 1) % 2;
            break;
        }
    }
    // Push one flit of the current packet if credit allows.
    let Some(cur) = ni.current else {
        return false;
    };
    let vc = cur.vc as usize;
    if ni.credits[vc] == 0 {
        return false;
    }
    let mut flags = if cur.mem { FLIT_MEM } else { 0 };
    if cur.idx == 0 {
        flags |= FLIT_HEAD;
    }
    if cur.idx + 1 == cur.len {
        flags |= FLIT_TAIL;
    }
    ni.credits[vc] -= 1;
    let slot = P_LOCAL * ctx.total_vcs + vc;
    router.inputs[slot].buf.push_back(TimedFlit {
        flit: Flit {
            packet: cur.id,
            dst: cur.dst,
            flags,
        },
        ready: cycle + ctx.stages,
    });
    router.buffered += 1;
    router.occ |= 1 << slot;
    router.wake = router.wake.min(cycle + ctx.stages);
    if let Some(fl) = flow {
        fl.heatmap.on_buffer(t, vc, cycle);
        if cur.idx == 0 {
            fl.stamps[cur.id as usize].head_inject = cycle;
        }
    }
    ni.current = if cur.idx + 1 == cur.len {
        None
    } else {
        Some(NiCur {
            idx: cur.idx + 1,
            ..cur
        })
    };
    true
}

/// Output port of a head flit for `dst` at router `r`: dimension-order
/// routing over the coordinate table, one code path for both topologies
/// and both dimension orders (it agrees with
/// `noc_model::route_{xy,yx}{,_torus}` on every pair; unit-tested). A
/// pure function of `(r, dst)`, so when the simulator computes it is
/// unobservable.
fn route_port(ctx: &StepCtx, r: usize, dst: u16) -> usize {
    let [hr, hc] = ctx.coords[r];
    let [dr, dc] = ctx.coords[dst as usize];
    let col = axis_port(hc, dc, ctx.cols, ctx.wrap, P_EAST, P_WEST);
    let row = axis_port(hr, dr, ctx.rows, ctx.wrap, P_SOUTH, P_NORTH);
    let (first, second) = if ctx.yx { (row, col) } else { (col, row) };
    if first != P_LOCAL {
        first
    } else {
        second
    }
}

/// The port one step from `h` towards `d` along an axis of `n` positions
/// (`P_LOCAL` when `h == d`): `fwd` when `d` lies ahead — on a ring, when
/// the forward distance is at most half the ring, ties going forward.
#[inline]
fn axis_port(h: u32, d: u32, n: u32, wrap: bool, fwd: usize, back: usize) -> usize {
    let ahead = if wrap {
        let dist = if d >= h { d - h } else { d + n - h };
        2 * dist <= n
    } else {
        d > h
    };
    if h == d {
        P_LOCAL
    } else if ahead {
        fwd
    } else {
        back
    }
}

/// The cycle `slot`'s front flit may leave its buffer (`u64::MAX` when
/// the slot is empty). A front switch-ready at `cycle` that is not routed
/// yet must be a head: route it now, so every switch-ready slot sits in
/// exactly one `Router::routed` mask.
fn front_ready(router: &mut Router, slot: usize, r: usize, cycle: u64, ctx: &StepCtx) -> u64 {
    let Some(&TimedFlit { flit, ready }) = router.inputs[slot].buf.front() else {
        return u64::MAX;
    };
    let bit = 1u64 << slot;
    if ready <= cycle && router.routed_any & bit == 0 {
        debug_assert!(flit.is_head(), "routing state lost mid-packet");
        router.routed[route_port(ctx, r, flit.dst)] |= bit;
        router.routed_any |= bit;
    }
    ready
}

/// One cycle of a single router: routing, VC allocation, switch
/// allocation, traversal, credit return. Mutates only this router;
/// effects on other routers, NIs and the packet slab go to `out`, and
/// probe hooks run inline on `flow`.
///
/// Switch allocation visits, per output port and in round-robin order,
/// only the slots that can win: routed to that port, front flit out of
/// the router pipeline (`ready`), and crossbar input still free (`used`).
/// Every skipped slot would have failed one of those checks with no side
/// effect, so the winner, the VC allocations and the stalls charged along
/// the way are those of a scan over every occupied slot.
fn step_router(
    router: &mut Router,
    r: usize,
    cycle: u64,
    ctx: &StepCtx,
    out: &mut Transfers,
    mut flow: Option<&mut FlowState>,
) {
    let total_vcs = ctx.total_vcs;
    // Occupied slots whose front flit is switch-ready this cycle, and the
    // earliest cycle any other front becomes ready (the next `wake`).
    let mut ready = 0u64;
    let mut wake = u64::MAX;
    let mut occ = router.occ;
    while occ != 0 {
        let slot = occ.trailing_zeros() as usize;
        occ &= occ - 1;
        let at = front_ready(router, slot, r, cycle, ctx);
        if at <= cycle {
            ready |= 1 << slot;
        } else {
            wake = wake.min(at);
        }
    }
    // Slots of the crossbar inputs claimed this cycle: one input per port
    // and cycle (switch allocation's physical constraint), unless the
    // limit is disabled for ablation, in which case this stays empty.
    let mut used = 0u64;
    for out_port in 0..NUM_PORTS {
        let cand = router.routed[out_port] & ready & !used;
        let rr_start = router.rr[out_port];
        let upper = u64::MAX << rr_start;
        // Round-robin order: ascending from `rr_start`, then the
        // wrap-around below it. The winner carries its output VC
        // (unused for ejection).
        let mut winner = None;
        'scan: for mut part in [cand & upper, cand & !upper] {
            while part != 0 {
                let slot = part.trailing_zeros() as usize;
                part &= part - 1;
                if out_port == P_LOCAL {
                    winner = Some((slot, 0));
                    break 'scan;
                }
                let obase = out_port * total_vcs;
                let ovc = match router.inputs[slot].out_vc {
                    Some(v) => v,
                    None => {
                        let class = match router.inputs[slot].buf.front() {
                            Some(tf) => tf.flit.class_index(),
                            None => continue,
                        };
                        let mut range = class * ctx.vpc..(class + 1) * ctx.vpc;
                        let Some(v) = range.find(|&v| !router.outputs[obase + v].busy) else {
                            if let Some(fl) = flow.as_deref_mut() {
                                fl.heatmap.on_vc_stall(r);
                            }
                            continue; // no VC available this cycle
                        };
                        router.outputs[obase + v].busy = true;
                        router.inputs[slot].out_vc = Some(v);
                        v
                    }
                };
                if router.outputs[obase + ovc].credits == 0 {
                    if let Some(fl) = flow.as_deref_mut() {
                        fl.heatmap.on_credit_stall(r);
                    }
                    continue; // downstream buffer full
                }
                winner = Some((slot, ovc));
                break 'scan;
            }
        }
        if let Some(fl) = flow.as_deref_mut() {
            // Switch stalls: the occupied slots of claimed inputs that a
            // scan over every occupied slot passes before the winner (all
            // of them when there is none). Counted as an upper bound on
            // arbitration pressure (see HeatmapRecord::switch_stalls).
            let visited = match winner {
                None => u64::MAX,
                Some((w, _)) if w >= rr_start => upper & !(u64::MAX << w),
                Some((w, _)) => upper | !(u64::MAX << w),
            };
            let n = (router.occ & used & visited).count_ones();
            fl.heatmap.on_switch_stalls(r, n.into());
        }
        let Some((slot, ovc)) = winner else {
            continue;
        };
        router.rr[out_port] = (slot + 1) % ctx.slots;
        let in_port = ctx.slot_port[slot] as usize;
        let vc = slot - in_port * total_vcs;
        if ctx.crossbar_input_limit {
            used |= ctx.port_slots[in_port];
        }
        // ---- Traversal: pop and move the flit.
        let bit = 1u64 << slot;
        let Some(TimedFlit { flit, .. }) = router.inputs[slot].buf.pop_front() else {
            continue; // unreachable: a ready slot holds a flit
        };
        router.buffered -= 1;
        if let Some(fl) = flow.as_deref_mut() {
            fl.heatmap.on_pop(r, vc, cycle);
        }
        // Credit back to whoever feeds this input VC.
        if in_port == P_LOCAL {
            out.credits.push(Credit::Ni { tile: r, vc });
        } else {
            let up = ctx.neighbors[r][in_port];
            if up != u16::MAX {
                out.credits.push(Credit::Router {
                    router: up as usize,
                    port: opposite(in_port),
                    vc,
                });
            }
        }
        if out_port == P_LOCAL {
            // Ejection: the tail's bookkeeping (report, windower, flow
            // record, slab recycling) runs after the pass.
            if flit.is_head() {
                if let Some(fl) = flow.as_deref_mut() {
                    fl.stamps[flit.packet as usize].head_eject = cycle;
                }
            }
            if flit.is_tail() {
                out.tails.push(flit.packet);
            }
        } else {
            router.outputs[out_port * total_vcs + ovc].credits -= 1;
            if let Some(fl) = flow.as_deref_mut() {
                fl.heatmap.on_link_traversal(r, out_port);
            }
            let next = ctx.neighbors[r][out_port];
            debug_assert!(next != u16::MAX, "route stays on chip");
            // Charge the downstream pipeline unless the flit will eject
            // there.
            let extra = if next == flit.dst { 0 } else { ctx.stages };
            out.deliveries.push(Delivery {
                router: next as usize,
                port: opposite(out_port),
                vc: ovc,
                flit,
                ready: cycle + ctx.link + extra,
            });
            if flit.is_tail() {
                router.outputs[out_port * total_vcs + ovc].busy = false;
            }
        }
        if flit.is_tail() {
            router.routed[out_port] &= !bit;
            router.routed_any &= !bit;
            router.inputs[slot].out_vc = None;
        }
        // The next flit in the slot may already be switch-ready (zero
        // router stages); without the crossbar input limit it competes
        // for the remaining output ports this cycle.
        ready &= !bit;
        if router.inputs[slot].buf.is_empty() {
            router.occ &= !bit;
        } else {
            let at = front_ready(router, slot, r, cycle, ctx);
            if at <= cycle {
                ready |= bit;
            } else {
                wake = wake.min(at);
            }
        }
    }
    // Fronts changed only where flits left, and those were re-read above;
    // a ready front that did not win keeps the router awake.
    router.wake = if ready != 0 { cycle } else { wake };
}

/// The simulator.
pub struct Network {
    cfg: SimConfig,
    routers: Vec<Router>,
    nis: Vec<Ni>,
    /// Packet metadata slab: slots are recycled through `free_packet_ids`
    /// when a packet's tail flit ejects, so memory stays proportional to
    /// the number of *in-flight* packets rather than total injections.
    packets: Vec<PacketInfo>,
    /// Recycled slab slots available for the next spawned packet.
    free_packet_ids: Vec<PacketId>,
    /// Current / peak number of live slab entries (memory telemetry).
    live_packets: usize,
    peak_live_packets: usize,
    sources: Vec<SourceSpec>,
    /// Cumulative per-source, per-class measured-delivery accumulators
    /// for the [`SwapController`] ([`SourceCounters`]). Empty unless the
    /// run was started through [`run_controlled`](Network::run_controlled),
    /// so the plain path pays one never-taken branch per delivery.
    source_accum: Vec<SourceCounters>,
    /// Nearest memory controller per tile, precomputed.
    nearest_mc: Vec<TileId>,
    /// Bernoulli arrival table, `2·source + class`: each entry's coin and
    /// the cycle it goes stale. Refreshed from the schedule only at epoch
    /// ends, so the per-cycle scan never reads a `Schedule`.
    coins: Vec<ArrivalCoin>,
    /// The earliest `until` in `coins`: the next cycle with a refresh.
    coins_stale_at: u64,
    /// The long-packet coin (`long_fraction`), built once.
    long_coin: Bernoulli,
    rng: SmallRng,
    report: SimReport,
    /// Measured packets still in flight (for the drain phase).
    inflight_measured: u64,
    /// All packets still in flight (measured or not).
    inflight_total: u64,
    /// Flits forwarded over inter-router links (all phases).
    link_flit_traversals: u64,
    /// Router steps executed, asleep routers excluded (all phases).
    router_steps: u64,
    /// Total flits buffered anywhere in the network right now
    /// (incrementally maintained; replaces the per-cycle O(routers) scan).
    total_buffered: usize,
    /// Peak total buffered flits across the network, sampled at the end of
    /// every cycle (same sampling point as the original scan).
    peak_buffered: usize,
    /// Cycles actually simulated.
    cycles_run: u64,
    /// Routers with at least one buffered flit.
    active_routers: ActiveSet,
    /// NIs with a queued or mid-injection packet.
    active_nis: ActiveSet,
    /// The router pass's deferred effects (drained every cycle, never
    /// dropped).
    transfers: Transfers,
    /// Windowed telemetry accumulator. `None` unless the run was started
    /// through [`run_probed`](Network::run_probed) with an enabled probe,
    /// so the plain [`run`](Network::run) path pays one never-taken branch
    /// per hook and stays bit-identical to the uninstrumented simulator.
    windower: Option<Windower>,
    /// Spatial/flow observability state. Same contract as
    /// [`windower`](Self::windower): `None` on the plain path, so every
    /// hook costs one never-taken branch when telemetry is off.
    flow: Option<Box<FlowState>>,
    /// Pending `(cycle, source, class)` arrival events under
    /// [`InjectionProcess::Geometric`]; empty under Bernoulli. Ties pop in
    /// `(source, class)` order — the same order the per-cycle Bernoulli
    /// scan visits sources, so spawn order (and with it every downstream
    /// RNG draw) is well defined.
    arrivals: BinaryHeap<Reverse<(u64, u32, u8)>>,
    /// Uniform draws spent on geometric inter-arrival sampling.
    arrival_draws: u64,
    /// Cycles the event-horizon fast-forward jumped over.
    skipped_cycles: u64,
    /// Write-only runtime metrics sink (DESIGN.md §17). Disabled by
    /// default — every instrument then costs one never-taken branch —
    /// and, enabled or not, it never feeds back into simulation state:
    /// a fixed seed produces a bit-identical [`SimReport`] either way
    /// (pinned by `tests/metrics.rs`).
    metrics: MetricsHandle,
}

/// With metrics attached, one executed cycle in `PHASE_SAMPLE_EVERY` is
/// wall-clock timed (DESIGN.md §17.2); every other cycle reads no clock,
/// and a run without metrics reads none at all.
const PHASE_SAMPLE_EVERY: u64 = 64;

/// The per-phase metric spans, in the order a cycle runs them.
const PHASE_SPANS: [&str; 5] = [
    "sim/generate",
    "sim/inject",
    "sim/route",
    "sim/traverse",
    "sim/telemetry",
];

/// Wall-clock samples of the timed cycles, kept out of `Network` so one
/// run's timings never leak into the next.
#[derive(Default)]
struct PhaseSamples {
    /// Cycles timed.
    cycles: u64,
    /// Per-phase nanoseconds summed over the timed cycles.
    nanos: [u64; 5],
    /// Per-phase largest timed value.
    max: [u64; 5],
    /// Largest timed whole cycle.
    max_cycle: u64,
}

impl PhaseSamples {
    /// Fold one timed cycle: `marks[i]..marks[i + 1]` brackets phase `i`.
    fn add(&mut self, marks: &[Instant; 6]) {
        self.cycles += 1;
        let mut whole = 0;
        for (i, pair) in marks.windows(2).enumerate() {
            let nanos = pair[1].duration_since(pair[0]).as_nanos() as u64;
            self.nanos[i] += nanos;
            self.max[i] = self.max[i].max(nanos);
            whole += nanos;
        }
        self.max_cycle = self.max_cycle.max(whole);
    }

    /// Record the five phase spans and `sim/serial/cycle`, their sum, each
    /// counting the `executed` cycles, with the sampled nanoseconds
    /// scaled by `executed / cycles`.
    fn record(&self, m: &MetricsHandle, executed: u64) {
        if self.cycles == 0 {
            return;
        }
        let mut total = 0;
        for (i, span) in PHASE_SPANS.into_iter().enumerate() {
            let scaled = u128::from(self.nanos[i]) * u128::from(executed) / u128::from(self.cycles);
            let scaled = scaled as u64;
            m.record_span(span, executed, scaled, self.max[i]);
            total += scaled;
        }
        m.record_span("sim/serial/cycle", executed, total, self.max_cycle);
    }
}

/// Class tag stored in arrival events (heap tuples order by it).
const CLASS_CACHE: u8 = 0;
const CLASS_MEM: u8 = 1;

/// Offset of the first entry of `coins` whose coin lands, sampling every
/// coin before it in order (rate-0 entries draw nothing). The generator
/// state stays in registers for the scan.
fn first_landing(coins: &[ArrivalCoin], rng: &mut SmallRng) -> Option<usize> {
    let mut local = rng.clone();
    let hit = coins
        .iter()
        .position(|c| c.coin.is_some_and(|coin| coin.sample(&mut local)));
    *rng = local;
    hit
}

/// One `(source, class)` entry of the Bernoulli arrival table: the coin
/// `Schedule::coin_at` gave for the current epoch (`None` = rate 0, no
/// draw) and the first cycle it goes stale.
/// The default (`until = 0`) marks an entry not filled yet.
#[derive(Debug, Clone, Copy, Default)]
struct ArrivalCoin {
    coin: Option<Bernoulli>,
    until: u64,
}

/// Cumulative per-source, per-class delivery accumulators fed to a
/// [`SwapController`] (measured packets only). Indexed by *source*,
/// which stays stable across mid-run retargets — unlike
/// [`SimReport::per_source`], which is indexed by spawn-time tile — so
/// diffing consecutive controller calls recovers each workload thread's
/// cache and memory request rates no matter where it currently sits.
#[derive(Debug, Clone, Default)]
pub struct SourceCounters {
    /// Cache-class deliveries of this source.
    pub cache: LatencyAccum,
    /// Memory-class deliveries of this source.
    pub mem: LatencyAccum,
}

impl SourceCounters {
    /// Delivered packets across both classes.
    pub fn packets(&self) -> u64 {
        self.cache.packets + self.mem.packets
    }
}

/// Mid-run mapping-swap hook driven by [`Network::run_controlled`]
/// (DESIGN.md §14.2).
///
/// The controller is invoked once per **flushed** telemetry window, at
/// the cycle boundary where the window closed, with the completed
/// [`WindowRecord`] and the cumulative per-source, per-class
/// [`SourceCounters`] of the run so far (measured packets only, indexed
/// by source — diff consecutive calls to recover per-source rates
/// within the window).
///
/// Returning `Some(tiles)` retargets source `j` to `tiles[j]` starting
/// with the next cycle: future packets of source `j` spawn from (and,
/// for memory traffic, address the controller nearest to) the new tile,
/// while packets already queued or in flight complete under their
/// spawn-time source/destination — the drain-free in-flight-packet rule.
/// The swap perturbs no RNG draws: Bernoulli generation scans sources in
/// index order regardless of tile, and geometric arrival events are
/// keyed by `(cycle, source, class)` with per-*source* rates, so
/// pre-drawn arrival times stay valid. A fixed seed therefore produces a
/// bit-identical run for a given controller decision sequence.
///
/// The vector must hold exactly one tile per source, each in range and
/// all distinct; anything else aborts the run with the corresponding
/// [`ConfigError`].
pub trait SwapController {
    /// Observe a flushed window; optionally request a source retarget.
    fn on_window(
        &mut self,
        record: &WindowRecord,
        per_source: &[SourceCounters],
    ) -> Option<Vec<noc_model::TileId>>;
}

/// Probe adapter for the controlled run: forwards every window to the
/// real probe while keeping a copy of the last flushed record so the
/// [`SwapController`] can observe it.
struct WindowCapture<'a> {
    inner: &'a mut dyn Probe,
    last: Option<WindowRecord>,
}

impl Probe for WindowCapture<'_> {
    fn is_enabled(&self) -> bool {
        true
    }

    fn on_window(&mut self, record: &WindowRecord) {
        self.inner.on_window(record);
        self.last = Some(record.clone());
    }
}

impl Network {
    /// Build a simulator for `cfg` driven by the validated traffic spec
    /// (tiles without a source stay silent).
    ///
    /// [`TrafficSpec::new`] already rejected duplicate tiles and bad
    /// group ids; this re-checks the config invariants and the source
    /// tiles against `cfg.mesh`, so the constructor path is panic-free.
    pub fn new(cfg: SimConfig, traffic: TrafficSpec) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.mesh.num_tiles();
        traffic.check_tiles(n)?;
        traffic.check_schedules()?;
        let (sources, num_groups) = traffic.into_parts();
        let long_coin = Bernoulli::new(cfg.long_fraction)
            .map_err(|_| ConfigError::BadLongFraction(cfg.long_fraction))?;
        let coins = vec![ArrivalCoin::default(); 2 * sources.len()];
        let vcs = cfg.total_vcs();
        let depth = cfg.buffer_depth;
        let nearest_mc = cfg
            .mesh
            .tiles()
            .map(|t| match cfg.topology {
                Topology::Mesh => cfg.controllers.nearest(&cfg.mesh, t),
                Topology::Torus => cfg.controllers.nearest_torus(&cfg.mesh, t),
            })
            .collect();
        Ok(Network {
            routers: (0..n).map(|_| Router::new(vcs, depth)).collect(),
            nis: (0..n).map(|_| Ni::new(vcs, depth)).collect(),
            packets: Vec::new(),
            free_packet_ids: Vec::new(),
            live_packets: 0,
            peak_live_packets: 0,
            sources,
            source_accum: Vec::new(),
            nearest_mc,
            coins,
            coins_stale_at: 0,
            long_coin,
            rng: SmallRng::seed_from_u64(cfg.seed),
            report: {
                let mut r = SimReport::new(num_groups);
                r.per_source = vec![crate::stats::LatencyAccum::default(); n];
                r
            },
            inflight_measured: 0,
            inflight_total: 0,
            link_flit_traversals: 0,
            router_steps: 0,
            total_buffered: 0,
            peak_buffered: 0,
            cycles_run: 0,
            active_routers: ActiveSet::new(n),
            active_nis: ActiveSet::new(n),
            transfers: Transfers::default(),
            windower: None,
            flow: None,
            arrivals: BinaryHeap::new(),
            arrival_draws: 0,
            skipped_cycles: 0,
            metrics: MetricsHandle::disabled(),
            cfg,
        })
    }

    /// Attach a runtime-metrics handle (DESIGN.md §17). The run then
    /// reports `sim_*` counters (cycles, injected/delivered packets,
    /// link traversals, skipped cycles, router steps), the sampled
    /// `sim/{generate,inject,route,traverse,telemetry}` phase spans and
    /// their sum `sim/serial/cycle`, the run's only wall-clock reads.
    /// Metrics are write-only observers: results stay bit-identical to
    /// a run without the handle (the PR 2 purity contract).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Run the configured warm-up + measurement + drain, returning the
    /// report. Telemetry stays off (the [`NoopSink`] path).
    pub fn run(self) -> SimReport {
        self.run_probed(&mut NoopSink)
    }

    /// Run with windowed telemetry delivered to `probe`.
    ///
    /// When `probe.is_enabled()`, a [`WindowRecord`] is flushed to
    /// [`Probe::on_window`] for every `cfg.telemetry_window`-cycle window
    /// (truncated at phase boundaries and at the end of the run — see
    /// `noc-telemetry`), and the run additionally produces the DESIGN.md
    /// §12 observability records: a [`FlowSummary`] (per-class/per-group
    /// latency decomposition over measured packets) and a finalized
    /// [`HeatmapRecord`] (per-link/per-VC/per-router spatial counters over
    /// all phases), each delivered once at end of run. Probes that opt in
    /// via [`Probe::wants_packets`] also receive one [`PacketRecord`] per
    /// delivered packet. The probe observes the simulation but never
    /// influences it: a fixed seed produces a bit-identical [`SimReport`]
    /// whatever the probe (pinned by `tests/sim_determinism.rs`).
    ///
    /// [`WindowRecord`]: noc_telemetry::WindowRecord
    pub fn run_probed(self, probe: &mut dyn Probe) -> SimReport {
        match self.run_inner(probe, None) {
            Ok(report) => report,
            // The only fallible step of a run is applying a controller's
            // retarget vector; without a controller this arm cannot be
            // reached, and the empty report keeps the path panic-free.
            Err(_) => SimReport::new(0),
        }
    }

    /// [`run_probed`](Self::run_probed) plus a [`SwapController`]
    /// observing every flushed telemetry window and optionally
    /// retargeting the traffic sources at that boundary — the
    /// deterministic mid-run mapping swap (DESIGN.md §14.2).
    ///
    /// Windowed telemetry is collected even when the probe is disabled
    /// (the controller needs it); the probe still receives records only
    /// according to its own contract. Returns an error if the controller
    /// produces an invalid retarget vector (wrong length, out-of-range
    /// or duplicate tiles); the run is abandoned at that point.
    ///
    /// With a controller that never retargets, the report is
    /// [semantically identical](SimReport::semantic_eq) to the unprobed
    /// run: the extra windowing only changes how far the event-horizon
    /// fast-forward may jump (`skipped_cycles`), never what is computed.
    pub fn run_controlled(
        self,
        probe: &mut dyn Probe,
        controller: &mut dyn SwapController,
    ) -> Result<SimReport, ConfigError> {
        self.run_inner(probe, Some(controller))
    }

    fn run_inner(
        mut self,
        probe: &mut dyn Probe,
        mut controller: Option<&mut dyn SwapController>,
    ) -> Result<SimReport, ConfigError> {
        let ctx = StepCtx::new(&self.cfg);
        // Phase timing; `timed` hoists the handle check so the disabled
        // path pays one branch per phase.
        let timed = self.metrics.enabled();
        let mut samples = PhaseSamples::default();
        // Lap marks of a timed cycle: `marks[i]..marks[i + 1]` brackets
        // phase `i` of `PHASE_SPANS`. Without metrics there are none.
        let mut marks = timed.then(|| [Instant::now(); 6]);
        if controller.is_some() {
            self.source_accum = vec![SourceCounters::default(); self.sources.len()];
        }
        if probe.is_enabled() || controller.is_some() {
            self.windower = Some(Windower::new(
                self.cfg.telemetry_window,
                self.report.groups.len(),
                self.cfg.warmup_cycles,
                self.cfg.measure_cycles,
            ));
        }
        if probe.is_enabled() {
            self.flow = Some(Box::new(FlowState {
                stamps: Vec::new(),
                summary: FlowSummary::new(self.report.groups.len()),
                heatmap: HeatmapRecord::new(
                    self.cfg.mesh.rows(),
                    self.cfg.mesh.cols(),
                    self.cfg.total_vcs(),
                )
                .with_wrap(self.cfg.topology == Topology::Torus),
                wants_packets: probe.wants_packets(),
                pending: Vec::new(),
            }));
        }
        let inject_end = self.cfg.warmup_cycles + self.cfg.measure_cycles;
        let drain_end = inject_end + self.cfg.max_drain_cycles;
        let geometric = self.cfg.injection == InjectionProcess::Geometric;
        if geometric {
            self.seed_arrivals(inject_end);
        }
        let mut cycle = 0u64;
        while cycle < inject_end || (self.inflight_total > 0 && cycle < drain_end) {
            // `cycle - skipped_cycles` counts the cycles executed so far, so
            // the timed cycles depend on the seed alone and the geometric
            // fast-forward cannot skew which ones get timed.
            let sampled = timed && (cycle - self.skipped_cycles).is_multiple_of(PHASE_SAMPLE_EVERY);
            let mut lap = marks.as_mut().filter(|_| sampled);
            let mut mark = |i: usize| {
                if let Some(m) = lap.as_deref_mut() {
                    m[i] = Instant::now();
                }
            };
            mark(0);
            if cycle < inject_end {
                if geometric {
                    self.generate_geometric(cycle, inject_end);
                } else {
                    self.generate(cycle);
                }
            }
            mark(1);
            self.inject_pass(cycle, &ctx);
            mark(2);
            self.router_pass(cycle, &ctx);
            mark(3);
            self.apply_transfers(cycle);
            mark(4);
            // `total_buffered` is maintained incrementally; sampling it here
            // (after deliveries are applied) matches the original
            // end-of-cycle scan point exactly.
            self.peak_buffered = self.peak_buffered.max(self.total_buffered);
            // Flush this cycle's delivered-packet records (empty unless the
            // probe asked for per-packet streams) before the window closes,
            // so packet records always precede the window covering them.
            if let Some(fl) = self.flow.as_mut() {
                for rec in fl.pending.drain(..) {
                    probe.on_packet(&rec);
                }
            }
            let mut retarget = None;
            if let Some(w) = self.windower.as_mut() {
                match controller.as_deref_mut() {
                    Some(ctrl) => {
                        // Tee the flush through a capture so the
                        // controller sees the completed record too.
                        let mut cap = WindowCapture {
                            inner: probe,
                            last: None,
                        };
                        w.end_cycle(cycle, self.total_buffered, self.live_packets, &mut cap);
                        if let Some(rec) = cap.last {
                            retarget = ctrl.on_window(&rec, &self.source_accum);
                        }
                    }
                    None => w.end_cycle(cycle, self.total_buffered, self.live_packets, probe),
                }
            }
            // Apply a requested mapping swap exactly at the window
            // boundary: packets spawned from the next cycle on use the
            // new source tiles; everything already in flight keeps its
            // spawn-time source and destination.
            if let Some(tiles) = retarget {
                self.retarget_sources(&tiles)?;
            }
            mark(5);
            if let Some(m) = lap {
                samples.add(m);
            }
            cycle += 1;
            // Event-horizon fast-forward: with nothing in flight (no queued
            // packet, no NI mid-injection, no buffered flit — all implied by
            // `inflight_total == 0`) every cycle until the next arrival is a
            // no-op, so jump straight to it. Clamped to the current
            // telemetry window's final cycle so that cycle executes normally
            // and the window flushes with an exact span; phase boundaries
            // need no extra clamp (windows already truncate at them, and the
            // `measured` flag is evaluated per arrival). Skipping is unsound
            // only during injection with work in flight or during drain —
            // the drain loop exits the moment `inflight_total` hits 0.
            if geometric && self.inflight_total == 0 && cycle < inject_end {
                let mut target = match self.arrivals.peek() {
                    Some(&Reverse((c, _, _))) => c,
                    None => inject_end,
                };
                if let Some(w) = self.windower.as_ref() {
                    target = target.min(w.current_window_end() - 1);
                }
                if target > cycle {
                    self.skipped_cycles += target - cycle;
                    cycle = target;
                }
            }
        }
        if let Some(w) = self.windower.take() {
            w.finish(cycle, self.total_buffered, self.live_packets, probe);
        }
        // End-of-run observability delivery: close the occupancy ledgers,
        // then flow summary before heatmap (documented order).
        if let Some(mut fl) = self.flow.take() {
            fl.heatmap.finalize(cycle);
            probe.on_flow(&fl.summary);
            probe.on_heatmap(&fl.heatmap);
        }
        self.cycles_run = cycle;
        self.report.measured_cycles = self.cfg.measure_cycles;
        self.report.fully_drained = self.inflight_measured == 0;
        self.report.network = crate::stats::NetworkStats {
            link_flit_traversals: self.link_flit_traversals,
            peak_buffered_flits: self.peak_buffered,
            cycles_run: self.cycles_run,
            num_links: ctx
                .neighbors
                .iter()
                .flatten()
                .filter(|&&nb| nb != u16::MAX)
                .count(),
            peak_live_packets: self.peak_live_packets,
            packet_slab_slots: self.packets.len(),
            arrival_draws: self.arrival_draws,
            skipped_cycles: self.skipped_cycles,
            router_steps: self.router_steps,
        };
        // Flush run totals into the metrics registry (write-only; skipped
        // entirely when the handle is disabled). Durations route through
        // `record_span`, which the logical clock zeroes so fixed-seed
        // snapshots stay byte-identical.
        if self.metrics.enabled() {
            let m = &self.metrics;
            m.add("sim_runs_total", 1);
            m.add("sim_cycles_total", self.cycles_run);
            m.add("sim_injected_packets_total", self.report.injected);
            m.add("sim_delivered_packets_total", self.report.delivered);
            m.add("sim_link_flit_traversals_total", self.link_flit_traversals);
            m.add("sim_skipped_cycles_total", self.skipped_cycles);
            m.add("sim_router_steps_total", self.router_steps);
            samples.record(m, self.cycles_run - self.skipped_cycles);
        }
        Ok(std::mem::replace(&mut self.report, SimReport::new(0)))
    }

    /// A cycle's datapath is three passes: NI injection
    /// ([`inject_pass`](Self::inject_pass)), the router pass
    /// ([`router_pass`](Self::router_pass)), then the deferred transfers
    /// ([`apply_transfers`](Self::apply_transfers)). Routers and NIs are
    /// visited in ascending tile order and every probe hook runs inline,
    /// in the order the effects happen.
    fn inject_pass(&mut self, cycle: u64, ctx: &StepCtx) {
        let Network {
            routers,
            nis,
            active_routers,
            active_nis,
            flow,
            total_buffered,
            ..
        } = self;
        for w in 0..active_nis.words.len() {
            let mut bits = active_nis.words[w];
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Same-cycle activation: a router fed by this cycle's
                // injection joins the pass below. That is a no-op unless
                // `router_stages == 0`, when the flit may leave at once.
                let (ni, router) = (&mut nis[t], &mut routers[t]);
                if inject_tile(ni, router, t, cycle, ctx, flow.as_deref_mut()) {
                    active_routers.insert(t);
                    *total_buffered += 1;
                }
                if !ni.pending() {
                    active_nis.remove(t);
                }
            }
        }
    }

    /// Step every awake active router; their effects queue in
    /// `transfers`.
    fn router_pass(&mut self, cycle: u64, ctx: &StepCtx) {
        let Network {
            routers,
            active_routers,
            flow,
            total_buffered,
            router_steps,
            transfers,
            ..
        } = self;
        // A router still asleep (`wake > cycle`: no front flit out of the
        // pipeline) is skipped, which is exact — such a step routes
        // nothing, allocates nothing, fires no probe hook and leaves the
        // round-robin pointers alone (DESIGN.md §16.3).
        for w in 0..active_routers.words.len() {
            let mut bits = active_routers.words[w];
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let router = &mut routers[r];
                debug_assert!(router.buffered > 0, "router {r} active but empty");
                if router.wake > cycle {
                    debug_assert!(router.sleeps_soundly(cycle), "router {r} skipped awake");
                    continue;
                }
                *router_steps += 1;
                let before = router.buffered;
                step_router(router, r, cycle, ctx, transfers, flow.as_deref_mut());
                *total_buffered -= before - router.buffered;
                if router.buffered == 0 {
                    active_routers.remove(r);
                }
            }
        }
    }

    /// Full tail-ejection bookkeeping for one delivered packet: flow
    /// record, report accumulation, controller counters, windower hook,
    /// in-flight counters and slab recycling.
    fn eject_tail(&mut self, pid: PacketId, cycle: u64) {
        let info = self.packets[pid as usize].clone();
        let latency = cycle - info.inject_cycle + 1;
        let ideal = info.hops as u64 * self.cfg.per_hop_cycles() + info.len as u64;
        if let Some(fl) = self.flow.as_mut() {
            let stamps = fl.stamps[pid as usize];
            let rec = PacketRecord {
                src: info.src.index(),
                dst: info.dst.index(),
                cache: info.class == PacketClass::Cache,
                group: info.group,
                flits: info.len,
                hops: info.hops,
                enqueue_cycle: info.inject_cycle,
                inject_cycle: stamps.head_inject,
                head_eject_cycle: stamps.head_eject,
                tail_eject_cycle: cycle,
                measured: info.measured,
            };
            // The flow summary reconciles with the report, so it covers
            // measured packets only; opted-in per-packet streams carry
            // every delivery.
            if info.measured {
                fl.summary.record(&rec);
            }
            if fl.wants_packets {
                fl.pending.push(rec);
            }
        }
        if info.measured {
            self.report.record(
                info.group,
                info.src.index(),
                info.class,
                latency,
                info.hops,
                info.len,
                ideal,
            );
            if !self.source_accum.is_empty() {
                let acc = &mut self.source_accum[info.source as usize];
                match info.class {
                    PacketClass::Cache => acc.cache.record(latency, info.hops, info.len, ideal),
                    PacketClass::Memory => acc.mem.record(latency, info.hops, info.len, ideal),
                }
            }
            self.inflight_measured -= 1;
        }
        if let Some(w) = self.windower.as_mut() {
            w.on_eject(
                info.class == PacketClass::Cache,
                info.group,
                latency,
                info.hops,
                info.len,
                ideal,
            );
        }
        self.inflight_total -= 1;
        // The tail leaving the network means no live flit references this
        // id any more: recycle the slab slot.
        self.free_packet_ids.push(pid);
        self.live_packets -= 1;
    }

    /// Apply the router pass's deferred effects: every tail ejection, then
    /// every delivery, then every credit, each in the order the pass
    /// produced them.
    fn apply_transfers(&mut self, cycle: u64) {
        let mut out = std::mem::take(&mut self.transfers);
        for pid in out.tails.drain(..) {
            self.eject_tail(pid, cycle);
        }
        let total_vcs = self.cfg.total_vcs();
        self.link_flit_traversals += out.deliveries.len() as u64;
        for d in out.deliveries.drain(..) {
            let router = &mut self.routers[d.router];
            router.inputs[d.port * total_vcs + d.vc]
                .buf
                .push_back(TimedFlit {
                    flit: d.flit,
                    ready: d.ready,
                });
            router.buffered += 1;
            router.occ |= 1 << (d.port * total_vcs + d.vc);
            router.wake = router.wake.min(d.ready);
            self.total_buffered += 1;
            self.active_routers.insert(d.router);
            if let Some(fl) = self.flow.as_mut() {
                fl.heatmap.on_buffer(d.router, d.vc, cycle);
            }
        }
        for c in out.credits.drain(..) {
            match c {
                Credit::Router { router, port, vc } => {
                    self.routers[router].outputs[port * total_vcs + vc].credits += 1;
                }
                Credit::Ni { tile, vc } => {
                    self.nis[tile].credits[vc] += 1;
                }
            }
        }
        self.transfers = out;
    }

    /// Retarget source `j` to `tiles[j]` for all future spawns, after
    /// validating the vector (one tile per source, in range, all
    /// distinct). Schedules, groups and pre-drawn arrival events are
    /// untouched — the workload follows its thread to the new tile.
    fn retarget_sources(&mut self, tiles: &[TileId]) -> Result<(), ConfigError> {
        if tiles.len() != self.sources.len() {
            return Err(ConfigError::RetargetLength {
                got: tiles.len(),
                expected: self.sources.len(),
            });
        }
        let n = self.cfg.mesh.num_tiles();
        let mut seen = vec![false; n];
        for &t in tiles {
            if t.index() >= n {
                return Err(ConfigError::SourceTileOutOfRange {
                    tile: t.index(),
                    num_tiles: n,
                });
            }
            if seen[t.index()] {
                return Err(ConfigError::DuplicateSourceTile(t.index()));
            }
            seen[t.index()] = true;
        }
        for (s, &t) in self.sources.iter_mut().zip(tiles) {
            s.tile = t;
        }
        Ok(())
    }

    /// Seed the arrival heap for [`InjectionProcess::Geometric`]: one
    /// pending event per `(source, class)` whose schedule produces an
    /// arrival before `inject_end`. Sources are sampled in ascending index
    /// order, cache class before memory — the same order the Bernoulli
    /// scan consumes the RNG, so same-cycle events pop identically.
    fn seed_arrivals(&mut self, inject_end: u64) {
        for si in 0..self.sources.len() {
            if let Some(c) = self.sources[si].cache.next_arrival(
                0,
                inject_end,
                &mut self.rng,
                &mut self.arrival_draws,
            ) {
                self.arrivals.push(Reverse((c, si as u32, CLASS_CACHE)));
            }
            if let Some(c) = self.sources[si].mem.next_arrival(
                0,
                inject_end,
                &mut self.rng,
                &mut self.arrival_draws,
            ) {
                self.arrivals.push(Reverse((c, si as u32, CLASS_MEM)));
            }
        }
    }

    /// Geometric packet generation: pop every arrival event due this
    /// cycle, spawn its packet, and resample that `(source, class)` pair's
    /// next arrival. Equivalent in distribution to [`generate`]
    /// (`Network::generate`) but O(arrivals) instead of O(sources) per
    /// cycle.
    fn generate_geometric(&mut self, cycle: u64, inject_end: u64) {
        let measured = cycle >= self.cfg.warmup_cycles;
        let n = self.cfg.mesh.num_tiles();
        while let Some(&Reverse((c, si, class))) = self.arrivals.peek() {
            if c > cycle {
                break;
            }
            self.arrivals.pop();
            let si = si as usize;
            if class == CLASS_CACHE {
                let dst = TileId(self.rng.gen_range(0..n));
                self.spawn_packet(si, PacketClass::Cache, dst, cycle, measured);
            } else {
                let dst = self.nearest_mc[self.sources[si].tile.index()];
                self.spawn_packet(si, PacketClass::Memory, dst, cycle, measured);
            }
            let sched = if class == CLASS_CACHE {
                &self.sources[si].cache
            } else {
                &self.sources[si].mem
            };
            if let Some(next) = sched.next_arrival(
                cycle + 1,
                inject_end,
                &mut self.rng,
                &mut self.arrival_draws,
            ) {
                self.arrivals.push(Reverse((next, si as u32, class)));
            }
        }
    }

    /// Bernoulli packet generation at every source, in the historical
    /// draw order: per source the cache coin (and, when it lands, the
    /// destination draw) before the memory coin, and a landing coin's
    /// `spawn_packet` (which draws the long-packet coin) before the scan
    /// resumes (DESIGN.md §11.4).
    fn generate(&mut self, cycle: u64) {
        if cycle >= self.coins_stale_at {
            self.refresh_coins(cycle);
        }
        let measured = cycle >= self.cfg.warmup_cycles;
        let n = self.cfg.mesh.num_tiles();
        let mut from = 0;
        while let Some(hit) = first_landing(&self.coins[from..], &mut self.rng) {
            let i = from + hit;
            let si = i / 2;
            let (class, dst) = if i % 2 == 0 {
                (PacketClass::Cache, TileId(self.rng.gen_range(0..n)))
            } else {
                let tile = self.sources[si].tile.index();
                (PacketClass::Memory, self.nearest_mc[tile])
            };
            self.spawn_packet(si, class, dst, cycle, measured);
            from = i + 1;
        }
    }

    /// Refill every stale `coins` entry from its schedule at `cycle`.
    fn refresh_coins(&mut self, cycle: u64) {
        let mut stale_at = u64::MAX;
        for (i, slot) in self.coins.iter_mut().enumerate() {
            if cycle >= slot.until {
                let source = &self.sources[i / 2];
                let sched = if i % 2 == 0 {
                    &source.cache
                } else {
                    &source.mem
                };
                (slot.coin, slot.until) = sched.coin_at(cycle);
            }
            stale_at = stale_at.min(slot.until);
        }
        self.coins_stale_at = stale_at;
    }

    fn spawn_packet(
        &mut self,
        source_idx: usize,
        class: PacketClass,
        dst: TileId,
        cycle: u64,
        measured: bool,
    ) {
        let src = self.sources[source_idx].tile;
        let group = self.sources[source_idx].group;
        let len = if self.long_coin.sample(&mut self.rng) {
            self.cfg.long_flits
        } else {
            1
        };
        let hops = self.cfg.topology.hops(&self.cfg.mesh, src, dst) as u32;
        if measured {
            self.report.injected += 1;
        }
        if let Some(w) = self.windower.as_mut() {
            w.on_inject(len as u64);
        }
        if src == dst {
            // Local bank / local controller: no network traversal, zero
            // latency (the Eq. (2) exception).
            if measured {
                self.report.record(group, src.index(), class, 0, 0, len, 0);
                if !self.source_accum.is_empty() {
                    let acc = &mut self.source_accum[source_idx];
                    match class {
                        PacketClass::Cache => acc.cache.record(0, 0, len, 0),
                        PacketClass::Memory => acc.mem.record(0, 0, len, 0),
                    }
                }
            }
            if let Some(w) = self.windower.as_mut() {
                w.on_eject(class == PacketClass::Cache, group, 0, 0, len, 0);
            }
            if let Some(fl) = self.flow.as_mut() {
                // All four lifecycle stamps coincide: the decomposition is
                // all-zero, matching the recorded zero latency.
                let rec = PacketRecord {
                    src: src.index(),
                    dst: dst.index(),
                    cache: class == PacketClass::Cache,
                    group,
                    flits: len,
                    hops: 0,
                    enqueue_cycle: cycle,
                    inject_cycle: cycle,
                    head_eject_cycle: cycle,
                    tail_eject_cycle: cycle,
                    measured,
                };
                if measured {
                    fl.summary.record(&rec);
                }
                if fl.wants_packets {
                    fl.pending.push(rec);
                }
            }
            return;
        }
        let info = PacketInfo {
            src,
            dst,
            source: source_idx as u32,
            class,
            group,
            len,
            inject_cycle: cycle,
            hops,
            measured,
        };
        // Slab allocation: reuse a slot freed by a delivered packet if one
        // exists. Packet ids carry no ordering semantics anywhere in the
        // router pipeline, so recycling them cannot change behaviour.
        let id = match self.free_packet_ids.pop() {
            Some(id) => {
                self.packets[id as usize] = info;
                id
            }
            None => {
                let id = self.packets.len() as PacketId;
                self.packets.push(info);
                id
            }
        };
        if let Some(fl) = self.flow.as_mut() {
            // Keep the stamp slab parallel to the packet slab and reset the
            // recycled slot.
            if fl.stamps.len() <= id as usize {
                fl.stamps.resize(id as usize + 1, PacketStamps::default());
            }
            fl.stamps[id as usize] = PacketStamps::default();
        }
        self.live_packets += 1;
        self.peak_live_packets = self.peak_live_packets.max(self.live_packets);
        self.nis[src.index()].queues[class_index(class)].push_back(NiQueued {
            id,
            len,
            dst: dst.index() as u16,
        });
        self.active_nis.insert(src.index());
        self.inflight_total += 1;
        if measured {
            self.inflight_measured += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Schedule;
    use noc_model::{
        route_xy, route_xy_torus, route_yx, route_yx_torus, MemoryControllers, RouteDir,
    };

    fn port_of(dir: RouteDir) -> usize {
        match dir {
            RouteDir::North => P_NORTH,
            RouteDir::South => P_SOUTH,
            RouteDir::West => P_WEST,
            RouteDir::East => P_EAST,
            RouteDir::Local => P_LOCAL,
        }
    }

    /// The coordinate-table router agrees with the reference routing
    /// functions on every (here, dst) pair, for both topologies and both
    /// dimension orders, on odd, even, degenerate and non-square shapes.
    #[test]
    fn route_port_matches_reference_routing() {
        for mesh in [
            Mesh::new(1, 5),
            Mesh::new(3, 4),
            Mesh::square(5),
            Mesh::square(8),
        ] {
            for topology in [Topology::Mesh, Topology::Torus] {
                for routing in [RoutingKind::Xy, RoutingKind::Yx] {
                    let mut cfg = SimConfig::paper_defaults(mesh);
                    cfg.topology = topology;
                    cfg.routing = routing;
                    let ctx = StepCtx::new(&cfg);
                    let reference = match (topology, routing) {
                        (Topology::Mesh, RoutingKind::Xy) => route_xy,
                        (Topology::Mesh, RoutingKind::Yx) => route_yx,
                        (Topology::Torus, RoutingKind::Xy) => route_xy_torus,
                        (Topology::Torus, RoutingKind::Yx) => route_yx_torus,
                    };
                    for here in mesh.tiles() {
                        for dst in mesh.tiles() {
                            assert_eq!(
                                route_port(&ctx, here.index(), dst.index() as u16),
                                port_of(reference(&mesh, here, dst)),
                                "{mesh:?} {topology:?} {routing:?}: {here:?} -> {dst:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn quiet_config(mesh: Mesh) -> SimConfig {
        let mut cfg = SimConfig::paper_defaults(mesh);
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 2_000;
        cfg.max_drain_cycles = 5_000;
        cfg
    }

    /// Test shorthand for the validated construction path.
    fn net(cfg: SimConfig, sources: Vec<SourceSpec>, groups: usize) -> Network {
        Network::new(cfg, TrafficSpec::new(sources, groups).expect("traffic")).expect("config")
    }

    /// One source, one deterministic destination (memory traffic to a
    /// single controller) — uncontended latency must match Eq. (2) exactly.
    #[test]
    fn uncontended_latency_matches_eq2() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        // single controller far from the source: src (0,0), mc (3,3) → 6 hops
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
        cfg.long_fraction = 0.0; // all single-flit
        cfg.measure_cycles = 5_000;
        let src = SourceSpec {
            tile: TileId(0),
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.01), // sparse: no self-contention
        };
        let report = net(cfg, vec![src], 1).run();
        assert!(report.fully_drained);
        assert!(report.memory.packets > 0, "no packets generated");
        // H=6, per-hop 4, 1 flit → latency 25, td_q = 0.
        assert!(
            (report.memory.apl() - 25.0).abs() < 1e-9,
            "APL {}",
            report.memory.apl()
        );
        assert!(report.mean_td_q().abs() < 1e-9);
    }

    /// Same setup on a torus: the wraparound links shorten (0,0)→(3,3)
    /// from 6 mesh hops to 2 torus hops, and the simulated uncontended
    /// latency must follow Eq. (2) with the torus hop count.
    #[test]
    fn torus_uncontended_latency_matches_eq2() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.topology = Topology::Torus;
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
        cfg.long_fraction = 0.0;
        cfg.measure_cycles = 5_000;
        let src = SourceSpec {
            tile: TileId(0),
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.01),
        };
        let report = net(cfg, vec![src], 1).run();
        assert!(report.fully_drained);
        assert!(report.memory.packets > 0, "no packets generated");
        // H = torus_hops((0,0),(3,3)) = 2, per-hop 4, 1 flit → latency 9.
        assert!(
            (report.memory.apl() - 9.0).abs() < 1e-9,
            "APL {}",
            report.memory.apl()
        );
        assert!(report.mean_td_q().abs() < 1e-9);
    }

    /// A torus run at the paper's low loads must deliver every measured
    /// packet (the shortest-direction router is deadlock-free in practice
    /// at validation loads) under both routing variants.
    #[test]
    fn torus_delivers_everything_at_low_load() {
        for routing in [RoutingKind::Xy, RoutingKind::Yx] {
            let mesh = Mesh::square(4);
            let mut cfg = quiet_config(mesh);
            cfg.topology = Topology::Torus;
            cfg.routing = routing;
            cfg.measure_cycles = 3_000;
            let sources: Vec<SourceSpec> = mesh
                .tiles()
                .map(|t| SourceSpec {
                    tile: t,
                    group: 0,
                    cache: Schedule::Constant(0.02),
                    mem: Schedule::Constant(0.01),
                })
                .collect();
            let report = net(cfg, sources, 1).run();
            assert!(report.fully_drained, "torus {routing:?} failed to drain");
            assert_eq!(report.injected, report.delivered);
        }
    }

    #[test]
    fn long_packets_add_serialization() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
        cfg.long_fraction = 1.0; // all 5-flit
        cfg.measure_cycles = 5_000;
        let src = SourceSpec {
            tile: TileId(0),
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.01),
        };
        let report = net(cfg, vec![src], 1).run();
        // H=6: 6·4 + 5 = 29 cycles. Back-to-back 5-flit injections can
        // occasionally overlap at the NI, so allow a sub-cycle of queueing.
        assert!(
            (report.memory.apl() - 29.0).abs() < 0.5,
            "APL {}",
            report.memory.apl()
        );
        // No packet can beat the ideal.
        assert!(report.memory.apl() >= 29.0 - 1e-9);
    }

    #[test]
    fn flit_conservation_under_load() {
        // Every measured packet injected must be delivered after drain.
        let mesh = Mesh::square(4);
        let cfg = quiet_config(mesh);
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: t.index() % 2,
                cache: Schedule::Constant(0.01),
                mem: Schedule::Constant(0.002),
            })
            .collect();
        let report = net(cfg, sources, 2).run();
        assert!(report.fully_drained, "drain failed");
        assert_eq!(report.injected, report.delivered);
        assert!(report.injected > 0);
    }

    #[test]
    fn low_load_tdq_below_one_cycle() {
        // The paper's observation: td_q ≈ 0–1 cycles at evaluated loads.
        let mesh = Mesh::square(8);
        let mut cfg = quiet_config(mesh);
        cfg.warmup_cycles = 1_000;
        cfg.measure_cycles = 10_000;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::per_kilocycle(8.0), // Table 3 scale
                mem: Schedule::per_kilocycle(1.2),
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        assert!(report.fully_drained);
        let tdq = report.mean_td_q();
        assert!((0.0..1.0).contains(&tdq), "td_q {tdq} out of paper range");
    }

    #[test]
    fn self_packets_count_as_zero_latency() {
        // A corner tile sending memory traffic to its own controller.
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.measure_cycles = 300;
        let src = SourceSpec {
            tile: TileId(0), // corner = controller tile
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.05),
        };
        let report = net(cfg, vec![src], 1).run();
        assert!(report.memory.packets > 0);
        assert_eq!(report.memory.apl(), 0.0);
        assert_eq!(report.injected, report.delivered);
    }

    #[test]
    fn cache_destinations_cover_the_mesh() {
        // With uniform hashing, mean cache hop count from a corner must be
        // close to the analytic H̄C (Eq. 3).
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.warmup_cycles = 0;
        // ~3000 packets: the sample std of mean hops is ≈0.03, so the 0.15
        // tolerance is ~5σ and the test is robust to the RNG stream (the
        // original 60k-cycle/0.01-rate version sampled only ~580 packets
        // and sat within 3σ of failure).
        cfg.measure_cycles = 150_000;
        cfg.seed = 3;
        let src = SourceSpec {
            tile: TileId(0),
            group: 0,
            cache: Schedule::Constant(0.02),
            mem: Schedule::Constant(0.0),
        };
        let report = net(cfg, vec![src], 1).run();
        // analytic mean hops from corner of 4×4 = 3.0 (over all dst incl self)
        let measured = report.cache.total_hops as f64 / report.cache.packets as f64;
        assert!((measured - 3.0).abs() < 0.15, "mean hops {measured} vs 3.0");
    }

    #[test]
    fn deterministic_contention_creates_queueing() {
        // Two heavy sources in the same row share the path to a single
        // far-away controller: the shared links must show td_q > 0.
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(3)]).expect("valid placement");
        cfg.long_fraction = 1.0;
        cfg.measure_cycles = 5_000;
        cfg.max_drain_cycles = 50_000;
        let mk = |t: usize| SourceSpec {
            tile: TileId(t),
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.15), // 0.75 flits/cycle each: contended
        };
        let report = net(cfg, vec![mk(0), mk(1)], 1).run();
        assert!(report.fully_drained, "{}", report.summary());
        assert!(
            report.mean_td_q() > 0.1,
            "expected queueing under contention, td_q {}",
            report.mean_td_q()
        );
    }

    #[test]
    fn stress_tiny_buffers_still_conserves() {
        // Worst-case resources: 1-flit buffers, 1 VC per class. Wormhole +
        // XY must stay deadlock-free and deliver everything.
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.buffer_depth = 1;
        cfg.vcs_per_class = 1;
        cfg.measure_cycles = 4_000;
        cfg.max_drain_cycles = 100_000;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::Constant(0.05),
                mem: Schedule::Constant(0.01),
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        assert!(report.fully_drained, "{}", report.summary());
        assert_eq!(report.injected, report.delivered);
    }

    #[test]
    fn congested_memory_does_not_stop_cache_traffic() {
        // Class-partitioned VCs: saturating the memory class must not
        // prevent cache packets from draining.
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
        cfg.measure_cycles = 4_000;
        cfg.max_drain_cycles = 400_000;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::Constant(0.02),
                mem: Schedule::Constant(0.2), // memory class saturated
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        assert!(report.cache.packets > 0);
        // Cache latency inflates a little (shared switches/links) but must
        // stay far below the collapsed memory-class latency.
        assert!(
            report.cache.apl() < report.memory.apl(),
            "cache {} vs memory {}",
            report.cache.apl(),
            report.memory.apl()
        );
    }

    #[test]
    fn undrained_runs_are_reported() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.measure_cycles = 2_000;
        cfg.max_drain_cycles = 0; // no drain allowed
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::Constant(0.05),
                mem: Schedule::Constant(0.01),
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        assert!(!report.fully_drained);
        assert!(report.delivered < report.injected);
    }

    #[test]
    fn yx_routing_delivers_everything() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.routing = crate::config::RoutingKind::Yx;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::Constant(0.02),
                mem: Schedule::Constant(0.004),
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        assert!(report.fully_drained);
        assert_eq!(report.injected, report.delivered);
    }

    #[test]
    fn link_utilization_reported() {
        let mesh = Mesh::square(4);
        let cfg = quiet_config(mesh);
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: 0,
                cache: Schedule::Constant(0.02),
                mem: Schedule::Constant(0.004),
            })
            .collect();
        let report = net(cfg, sources, 1).run();
        let util = report.network.mean_link_utilization();
        assert!(util > 0.0 && util < 1.0, "utilization {util}");
        assert!(report.network.peak_buffered_flits > 0);
        assert_eq!(report.network.num_links, 2 * (4 * 3 + 4 * 3));
    }

    #[test]
    fn idealized_switch_is_never_slower() {
        let mesh = Mesh::square(4);
        let run = |limit: bool| {
            let mut cfg = quiet_config(mesh);
            cfg.crossbar_input_limit = limit;
            cfg.measure_cycles = 8_000;
            let sources: Vec<SourceSpec> = mesh
                .tiles()
                .map(|t| SourceSpec {
                    tile: t,
                    group: 0,
                    cache: Schedule::Constant(0.05),
                    mem: Schedule::Constant(0.01),
                })
                .collect();
            net(cfg, sources, 1).run()
        };
        let physical = run(true);
        let ideal = run(false);
        assert!(physical.fully_drained && ideal.fully_drained);
        // Identical traffic (same seed): the idealized switch can only
        // reduce queueing.
        assert!(
            ideal.g_apl() <= physical.g_apl() + 1e-9,
            "ideal {} vs physical {}",
            ideal.g_apl(),
            physical.g_apl()
        );
    }

    #[test]
    fn duplicate_sources_rejected() {
        let s = SourceSpec::idle(TileId(0));
        assert_eq!(
            TrafficSpec::new(vec![s.clone(), s], 1).unwrap_err(),
            ConfigError::DuplicateSourceTile(0)
        );
    }

    #[test]
    fn out_of_range_tile_rejected_by_network() {
        let mesh = Mesh::square(2);
        let cfg = quiet_config(mesh);
        let spec = TrafficSpec::new(vec![SourceSpec::idle(TileId(9))], 1).expect("shape ok");
        assert_eq!(
            Network::new(cfg, spec).err(),
            Some(ConfigError::SourceTileOutOfRange {
                tile: 9,
                num_tiles: 4
            })
        );
    }

    #[test]
    fn invalid_config_rejected_by_network() {
        let mesh = Mesh::square(2);
        let mut cfg = quiet_config(mesh);
        cfg.vcs_per_class = 8; // 5 ports × 16 VCs = 80 slots > 64
        let spec = TrafficSpec::new(vec![SourceSpec::idle(TileId(0))], 1).expect("shape ok");
        assert_eq!(
            Network::new(cfg, spec).err(),
            Some(ConfigError::VcOverflow {
                ports: 5,
                total_vcs: 16
            })
        );
    }

    /// Geometric sampling + fast-forward must preserve the Eq. (2)
    /// uncontended-latency invariant exactly: every measured packet takes
    /// `H·(stages+link) + L` cycles, td_q = 0.
    #[test]
    fn geometric_uncontended_latency_matches_eq2() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.injection = crate::config::InjectionProcess::Geometric;
        cfg.controllers =
            MemoryControllers::try_custom(&mesh, vec![TileId(15)]).expect("valid placement");
        cfg.long_fraction = 0.0; // all single-flit
        cfg.measure_cycles = 5_000;
        let src = SourceSpec {
            tile: TileId(0),
            group: 0,
            cache: Schedule::Constant(0.0),
            mem: Schedule::Constant(0.01), // sparse: no self-contention
        };
        let report = net(cfg, vec![src], 1).run();
        assert!(report.fully_drained);
        assert!(report.memory.packets > 0, "no packets generated");
        // H=6, per-hop 4, 1 flit → latency 25, td_q = 0 — and APL equality
        // (not just proximity) proves *every* packet hit the ideal.
        assert!(
            (report.memory.apl() - 25.0).abs() < 1e-9,
            "APL {}",
            report.memory.apl()
        );
        assert!(report.mean_td_q().abs() < 1e-9);
        // The fast path actually engaged: one draw per packet (plus any
        // discarded cross-epoch draws — none for a constant schedule) and
        // long quiescent stretches skipped.
        assert!(report.network.arrival_draws > 0);
        assert!(
            report.network.skipped_cycles > report.network.cycles_run / 2,
            "skipped {} of {} cycles",
            report.network.skipped_cycles,
            report.network.cycles_run
        );
    }

    #[test]
    fn geometric_conserves_flits_under_load() {
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.injection = crate::config::InjectionProcess::Geometric;
        let sources: Vec<SourceSpec> = mesh
            .tiles()
            .map(|t| SourceSpec {
                tile: t,
                group: t.index() % 2,
                cache: Schedule::Constant(0.01),
                mem: Schedule::Constant(0.002),
            })
            .collect();
        let report = net(cfg, sources, 2).run();
        assert!(report.fully_drained, "drain failed");
        assert_eq!(report.injected, report.delivered);
        assert!(report.injected > 0);
    }

    /// Same scenario, both injection processes: the arrival *distribution*
    /// is identical, so mean rates must agree (streams differ — this is a
    /// statistical check, pinned exactly by `tests/sim_determinism.rs`).
    #[test]
    fn geometric_mean_injection_rate_matches_bernoulli() {
        let mesh = Mesh::square(4);
        let run = |inj: crate::config::InjectionProcess| {
            let mut cfg = quiet_config(mesh);
            cfg.injection = inj;
            cfg.measure_cycles = 60_000;
            let spec =
                TrafficSpec::uniform(&mesh, Schedule::Constant(0.008), Schedule::Constant(0.002));
            Network::new(cfg, spec).expect("config").run()
        };
        let b = run(crate::config::InjectionProcess::BernoulliPerCycle);
        let g = run(crate::config::InjectionProcess::Geometric);
        assert_eq!(b.network.arrival_draws, 0);
        assert!(g.network.arrival_draws > 0);
        // 16 tiles × 0.01 pkt/cycle × 60k cycles ≈ 9600 expected packets;
        // σ ≈ √9600 ≈ 98, so 5% is a ~5σ band for the ratio.
        let ratio = g.injected as f64 / b.injected as f64;
        assert!((ratio - 1.0).abs() < 0.05, "injection ratio {ratio}");
    }

    /// The probe observes but must not perturb — under Geometric too, even
    /// though window-boundary clamping changes which cycles get skipped.
    #[test]
    fn geometric_probed_run_is_semantically_identical() {
        use noc_telemetry::{Phase, RingSink};
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.injection = crate::config::InjectionProcess::Geometric;
        cfg.warmup_cycles = 300;
        cfg.telemetry_window = 250;
        let spec =
            TrafficSpec::uniform(&mesh, Schedule::Constant(0.002), Schedule::Constant(0.0004));
        let plain = Network::new(cfg.clone(), spec.clone())
            .expect("config")
            .run();
        let mut ring = RingSink::new(4096);
        let probed = Network::new(cfg.clone(), spec)
            .expect("config")
            .run_probed(&mut ring);
        assert!(plain.semantic_eq(&probed), "probe perturbed the simulation");
        // Clamping at window boundaries may reduce the probed run's skip
        // tally, but never below zero or above the plain run's.
        assert!(probed.network.skipped_cycles <= plain.network.skipped_cycles);
        assert!(ring.dropped() == 0);
        let windows: Vec<_> = ring.windows().collect();
        assert!(!windows.is_empty());
        // Window spans must tile the run exactly despite skipped regions.
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end_cycle, pair[1].start_cycle);
        }
        assert_eq!(
            windows.last().expect("nonempty").end_cycle,
            probed.network.cycles_run
        );
        let measured: u64 = windows
            .iter()
            .filter(|w| w.phase == Phase::Measure)
            .map(|w| w.width())
            .sum();
        assert_eq!(measured, cfg.measure_cycles);
    }

    /// The probe observes but must not perturb: a probed run's report is
    /// bit-identical to the unprobed run, and its measure-phase windows
    /// tile the measurement exactly.
    #[test]
    fn probed_run_is_bit_identical_and_windows_tile() {
        use noc_telemetry::{Phase, RingSink};
        let mesh = Mesh::square(4);
        let mut cfg = quiet_config(mesh);
        cfg.warmup_cycles = 300;
        cfg.telemetry_window = 250;
        let spec = TrafficSpec::uniform(&mesh, Schedule::Constant(0.02), Schedule::Constant(0.004));
        let plain = Network::new(cfg.clone(), spec.clone())
            .expect("config")
            .run();
        let mut ring = RingSink::new(4096);
        let probed = Network::new(cfg.clone(), spec)
            .expect("config")
            .run_probed(&mut ring);
        assert!(plain.semantic_eq(&probed), "probe perturbed the simulation");
        assert!(ring.dropped() == 0);
        let windows: Vec<_> = ring.windows().collect();
        assert!(!windows.is_empty());
        let measured: u64 = windows
            .iter()
            .filter(|w| w.phase == Phase::Measure)
            .map(|w| w.width())
            .sum();
        assert_eq!(measured, cfg.measure_cycles);
        let injected: u64 = windows.iter().map(|w| w.injected_packets).sum();
        let ejected: u64 = windows.iter().map(|w| w.ejected_packets).sum();
        // Windows count *all* packets (warm-up included), so they can only
        // exceed the measured-only report counters; after a full drain
        // every injected packet ejected.
        assert!(injected >= probed.injected);
        assert_eq!(injected, ejected);
        // Consecutive windows tile the run without gaps.
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end_cycle, pair[1].start_cycle);
        }
        assert_eq!(
            windows.last().expect("nonempty").end_cycle,
            probed.network.cycles_run
        );
    }
}
