//! Spatial heatmap of a 2-D mesh run: per-link flit traversals, per-VC
//! buffer-occupancy cycle integrals, and per-router stall counters
//! (DESIGN.md §12).
//!
//! The OBM objective exists because contention concentrates unevenly
//! across the mesh; scalar aggregates cannot show *where*. A
//! [`HeatmapRecord`] is filled by the simulator (when a probe is
//! attached) through small `on_*` bookkeeping calls and closed with
//! [`HeatmapRecord::finalize`], after which the sum of its per-link
//! counts equals `NetworkStats.link_flit_traversals` exactly — the
//! conservation law pinned by the determinism suite.
//!
//! Port numbering matches `noc-sim`: 0 = north (row − 1), 1 = south
//! (row + 1), 2 = west (col − 1), 3 = east (col + 1). Link slots for
//! edge ports with no neighbour exist in the vectors but stay zero, so a
//! `rows × cols` mesh carries `2·(rows·(cols−1) + cols·(rows−1))`
//! non-trivial directed links. On a torus ([`HeatmapRecord::with_wrap`])
//! off-edge ports wrap around, so all `4·rows·cols` slots are links.

/// North output port (towards row − 1).
pub const PORT_NORTH: usize = 0;
/// South output port (towards row + 1).
pub const PORT_SOUTH: usize = 1;
/// West output port (towards col − 1).
pub const PORT_WEST: usize = 2;
/// East output port (towards col + 1).
pub const PORT_EAST: usize = 3;
/// Number of inter-router ports per router.
pub const MESH_PORTS: usize = 4;

/// One directed inter-router link and its traversal count, as yielded by
/// [`HeatmapRecord::links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlits {
    /// Source tile of the link.
    pub tile: usize,
    /// Output port at the source tile (one of the `PORT_*` constants).
    pub port: usize,
    /// Destination tile of the link.
    pub to: usize,
    /// Flits that traversed the link.
    pub flits: u64,
}

/// Spatial counters for one simulation run, delivered once at end of run
/// through [`Probe::on_heatmap`](crate::probe::Probe::on_heatmap).
///
/// Counts cover **all** phases (warm-up, measure, drain) so that the
/// link-flit total reconciles with the run-wide
/// `NetworkStats.link_flit_traversals`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapRecord {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Virtual channels per input port (both classes).
    pub total_vcs: usize,
    /// Torus: off-edge ports wrap to the far side of the chip.
    pub wrap: bool,
    /// Final simulated cycle, set by [`finalize`](Self::finalize).
    pub cycles: u64,
    /// Flit traversals per directed link, indexed `tile * 4 + port`.
    /// Edge slots (no neighbour in that direction) stay 0.
    pub link_flits: Vec<u64>,
    /// Buffer-occupancy cycle integrals per `(router, vc)`, indexed
    /// `router * total_vcs + vc` and aggregated over the router's input
    /// ports: each buffered flit contributes one unit per cycle it sat in
    /// an input buffer. Filled by [`finalize`](Self::finalize).
    pub vc_occupancy: Vec<u64>,
    /// Per-router cycles a switch-allocated head flit sat blocked on zero
    /// downstream credits.
    pub credit_stalls: Vec<u64>,
    /// Per-router cycles a routed head flit found no free downstream VC.
    pub vc_stalls: Vec<u64>,
    /// Per-router count of occupied input VCs passed over because their
    /// crossbar input was already claimed this cycle: per output port,
    /// those that round-robin order reaches before the winner (all of
    /// them when none wins). This is an arbitration-pressure proxy and an
    /// upper bound: it includes VCs whose front flit is still in the
    /// router pipeline or wants another output port.
    pub switch_stalls: Vec<u64>,
    // Running occupancy state: each buffered flit subtracts its buffer
    // cycle from the ledger and bumps `pending`; popping adds the pop
    // cycle back. `finalize` closes still-buffered flits at end-of-run.
    ledger: Vec<i64>,
    pending: Vec<u32>,
}

impl HeatmapRecord {
    /// A zeroed heatmap for a `rows × cols` mesh with `total_vcs` VCs per
    /// input port.
    pub fn new(rows: usize, cols: usize, total_vcs: usize) -> Self {
        let n = rows * cols;
        HeatmapRecord {
            rows,
            cols,
            total_vcs,
            wrap: false,
            cycles: 0,
            link_flits: vec![0; n * MESH_PORTS],
            vc_occupancy: vec![0; n * total_vcs],
            credit_stalls: vec![0; n],
            vc_stalls: vec![0; n],
            switch_stalls: vec![0; n],
            ledger: vec![0; n * total_vcs],
            pending: vec![0; n * total_vcs],
        }
    }

    /// The same record on a torus (`wrap = true`): edge ports wrap
    /// around like the simulator's, so wrap-link traversals show up in
    /// [`links`](Self::links).
    pub fn with_wrap(mut self, wrap: bool) -> Self {
        self.wrap = wrap;
        self
    }

    /// Number of directed inter-router links: `4·rows·cols` on a torus,
    /// `2·(rows·(cols−1) + cols·(rows−1))` on a mesh.
    pub fn num_links(&self) -> usize {
        if self.wrap {
            MESH_PORTS * self.rows * self.cols
        } else {
            2 * (self.rows * (self.cols - 1) + self.cols * (self.rows - 1))
        }
    }

    /// Neighbour of `tile` through `port`, if the chip has one.
    pub fn neighbor_of(&self, tile: usize, port: usize) -> Option<usize> {
        let (rows, cols) = (self.rows, self.cols);
        let (row, col) = (tile / cols, tile % cols);
        let at = |r: usize, c: usize| Some(r * cols + c);
        match port {
            PORT_NORTH if row > 0 => at(row - 1, col),
            PORT_SOUTH if row + 1 < rows => at(row + 1, col),
            PORT_WEST if col > 0 => at(row, col - 1),
            PORT_EAST if col + 1 < cols => at(row, col + 1),
            PORT_NORTH if self.wrap => at(rows - 1, col),
            PORT_SOUTH if self.wrap => at(0, col),
            PORT_WEST if self.wrap => at(row, cols - 1),
            PORT_EAST if self.wrap => at(row, 0),
            _ => None,
        }
    }

    /// Record one flit leaving `tile` through inter-router output `port`.
    #[inline]
    pub fn on_link_traversal(&mut self, tile: usize, port: usize) {
        self.link_flits[tile * MESH_PORTS + port] += 1;
    }

    /// Record a flit entering an input buffer of `router` on VC `vc` at
    /// `cycle`.
    #[inline]
    pub fn on_buffer(&mut self, router: usize, vc: usize, cycle: u64) {
        let slot = router * self.total_vcs + vc;
        self.ledger[slot] -= cycle as i64;
        self.pending[slot] += 1;
    }

    /// Record a flit leaving an input buffer of `router` on VC `vc` at
    /// `cycle`.
    #[inline]
    pub fn on_pop(&mut self, router: usize, vc: usize, cycle: u64) {
        let slot = router * self.total_vcs + vc;
        self.ledger[slot] += cycle as i64;
        self.pending[slot] -= 1;
    }

    /// Record a credit stall at `router` (switch-allocated head, zero
    /// downstream credits).
    #[inline]
    pub fn on_credit_stall(&mut self, router: usize) {
        self.credit_stalls[router] += 1;
    }

    /// Record a VC-allocation stall at `router` (routed head, no free
    /// downstream VC in its class partition).
    #[inline]
    pub fn on_vc_stall(&mut self, router: usize) {
        self.vc_stalls[router] += 1;
    }

    /// Record `n` switch skips at `router` (occupied VCs passed over
    /// because their crossbar input was already claimed).
    #[inline]
    pub fn on_switch_stalls(&mut self, router: usize, n: u64) {
        self.switch_stalls[router] += n;
    }

    /// Close the occupancy ledgers at `end_cycle` (the run's final
    /// cycle): flits still buffered contribute up to end-of-run, and the
    /// integrals become available in [`vc_occupancy`](Self::vc_occupancy).
    pub fn finalize(&mut self, end_cycle: u64) {
        self.cycles = end_cycle;
        for slot in 0..self.ledger.len() {
            let closed = self.ledger[slot] + self.pending[slot] as i64 * end_cycle as i64;
            self.vc_occupancy[slot] = closed.max(0) as u64;
            self.ledger[slot] = closed;
            self.pending[slot] = 0;
        }
    }

    /// Total flit traversals across every link. After
    /// [`finalize`](Self::finalize) this equals the run's
    /// `NetworkStats.link_flit_traversals`.
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// Occupancy integral summed over VCs for `router`.
    pub fn router_occupancy(&self, router: usize) -> u64 {
        self.vc_occupancy[router * self.total_vcs..(router + 1) * self.total_vcs]
            .iter()
            .sum()
    }

    /// The existing directed links in deterministic order: ascending tile,
    /// then port order north, south, west, east. Mesh edge slots are
    /// skipped, so exactly [`num_links`](Self::num_links) items are
    /// yielded.
    pub fn links(&self) -> impl Iterator<Item = LinkFlits> + '_ {
        (0..self.rows * self.cols).flat_map(move |tile| {
            (0..MESH_PORTS).filter_map(move |port| {
                self.neighbor_of(tile, port).map(|to| LinkFlits {
                    tile,
                    port,
                    to,
                    flits: self.link_flits[tile * MESH_PORTS + port],
                })
            })
        })
    }

    /// Render the mesh as ASCII art with one decile digit per directed
    /// link (`9` = the hottest link, `.` = completely idle). A torus's
    /// wrap links are not drawn.
    ///
    /// Router rows look like `o-ab-o`: `a` is the eastbound link leaving
    /// the left router, `b` the westbound link leaving the right one.
    /// Between router rows, the `ab` pair under each router gives its
    /// southbound link (`a`) and the lower router's northbound link (`b`).
    pub fn ascii_mesh(&self) -> String {
        let max = self.link_flits.iter().copied().max().unwrap_or(0);
        let digit = |count: u64| -> char {
            if count == 0 {
                '.'
            } else {
                let d = (count * 10 / max.max(1)).min(9);
                char::from_digit(d as u32, 10).unwrap_or('9')
            }
        };
        let at = |tile: usize, port: usize| self.link_flits[tile * MESH_PORTS + port];
        let mut out = String::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let tile = row * self.cols + col;
                out.push('o');
                if col + 1 < self.cols {
                    out.push('-');
                    out.push(digit(at(tile, PORT_EAST)));
                    out.push(digit(at(tile + 1, PORT_WEST)));
                    out.push('-');
                }
            }
            out.push('\n');
            if row + 1 < self.rows {
                for col in 0..self.cols {
                    let tile = row * self.cols + col;
                    out.push(digit(at(tile, PORT_SOUTH)));
                    out.push(digit(at(tile + self.cols, PORT_NORTH)));
                    if col + 1 < self.cols {
                        out.push_str("   ");
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_count_formula_matches_enumeration() {
        for (rows, cols) in [(1, 1), (2, 2), (3, 4), (8, 8)] {
            let h = HeatmapRecord::new(rows, cols, 6);
            assert_eq!(h.links().count(), h.num_links());
        }
    }

    #[test]
    fn torus_links_wrap_around_every_edge() {
        for (rows, cols) in [(1, 1), (2, 2), (3, 4), (4, 4)] {
            let h = HeatmapRecord::new(rows, cols, 2).with_wrap(true);
            assert_eq!(h.num_links(), 4 * rows * cols);
            assert_eq!(h.links().count(), h.num_links());
        }
        let h = HeatmapRecord::new(3, 4, 2).with_wrap(true);
        assert_eq!(h.neighbor_of(0, PORT_NORTH), Some(8));
        assert_eq!(h.neighbor_of(0, PORT_WEST), Some(3));
        assert_eq!(h.neighbor_of(11, PORT_SOUTH), Some(3));
        assert_eq!(h.neighbor_of(11, PORT_EAST), Some(8));
        assert_eq!(h.neighbor_of(5, PORT_EAST), Some(6));
    }

    #[test]
    fn links_are_yielded_in_deterministic_order_without_edges() {
        let h = HeatmapRecord::new(2, 2, 2);
        let got: Vec<(usize, usize, usize)> = h.links().map(|l| (l.tile, l.port, l.to)).collect();
        assert_eq!(
            got,
            vec![
                (0, PORT_SOUTH, 2),
                (0, PORT_EAST, 1),
                (1, PORT_SOUTH, 3),
                (1, PORT_WEST, 0),
                (2, PORT_NORTH, 0),
                (2, PORT_EAST, 3),
                (3, PORT_NORTH, 1),
                (3, PORT_WEST, 2),
            ]
        );
    }

    #[test]
    fn occupancy_ledger_integrates_residency() {
        let mut h = HeatmapRecord::new(1, 2, 2);
        // Flit buffered at router 0 vc 1 from cycle 10 to 14 → 4 cycles.
        h.on_buffer(0, 1, 10);
        h.on_pop(0, 1, 14);
        // Flit buffered at router 1 vc 0 at cycle 20, never popped;
        // finalize at 25 closes it at 5 cycles.
        h.on_buffer(1, 0, 20);
        h.finalize(25);
        assert_eq!(h.cycles, 25);
        assert_eq!(h.vc_occupancy, vec![0, 4, 5, 0]);
        assert_eq!(h.router_occupancy(0), 4);
        assert_eq!(h.router_occupancy(1), 5);
    }

    #[test]
    fn traversals_and_stalls_accumulate() {
        let mut h = HeatmapRecord::new(2, 2, 2);
        h.on_link_traversal(0, PORT_EAST);
        h.on_link_traversal(0, PORT_EAST);
        h.on_link_traversal(3, PORT_NORTH);
        h.on_credit_stall(1);
        h.on_vc_stall(1);
        h.on_switch_stalls(2, 1);
        assert_eq!(h.total_link_flits(), 3);
        assert_eq!(h.link_flits[PORT_EAST], 2);
        assert_eq!(h.credit_stalls, vec![0, 1, 0, 0]);
        assert_eq!(h.vc_stalls, vec![0, 1, 0, 0]);
        assert_eq!(h.switch_stalls, vec![0, 0, 1, 0]);
    }

    #[test]
    fn ascii_mesh_shape_and_deciles() {
        let mut h = HeatmapRecord::new(2, 2, 2);
        for _ in 0..10 {
            h.on_link_traversal(0, PORT_EAST);
        }
        for _ in 0..5 {
            h.on_link_traversal(1, PORT_WEST);
        }
        h.on_link_traversal(0, PORT_SOUTH);
        let art = h.ascii_mesh();
        // Row 0: east link is the max (digit 9), west link at 5/10 → 5.
        // Gap row: south link of tile 0 is 1/10 → 1, rest idle.
        assert_eq!(art, "o-95-o\n1.   ..\no-..-o\n");
    }

    #[test]
    fn ascii_mesh_all_idle_renders_dots() {
        let h = HeatmapRecord::new(1, 3, 2);
        assert_eq!(h.ascii_mesh(), "o-..-o-..-o\n");
    }
}
