//! Dimension-order routing.
//!
//! The paper uses deadlock-free XY routing ("dimension-order routing ... to
//! minimize design effort and implementation cost"). A packet first travels
//! along the X dimension (columns) to the destination column, then along the
//! Y dimension (rows). [`route_yx`] is the transposed variant, provided for
//! ablations in the cycle-level simulator.

use crate::geometry::{Mesh, TileId};

/// One output direction at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDir {
    /// Decreasing row index.
    North,
    /// Increasing row index.
    South,
    /// Decreasing column index.
    West,
    /// Increasing column index.
    East,
    /// Eject to the local tile.
    Local,
}

/// Next-hop decision at tile `here` for a packet destined to `dst`
/// under XY routing.
pub fn route_xy(mesh: &Mesh, here: TileId, dst: TileId) -> RouteDir {
    let h = mesh.coord(here);
    let d = mesh.coord(dst);
    if h.col < d.col {
        RouteDir::East
    } else if h.col > d.col {
        RouteDir::West
    } else if h.row < d.row {
        RouteDir::South
    } else if h.row > d.row {
        RouteDir::North
    } else {
        RouteDir::Local
    }
}

/// Next-hop decision under YX routing (Y dimension first).
pub fn route_yx(mesh: &Mesh, here: TileId, dst: TileId) -> RouteDir {
    let h = mesh.coord(here);
    let d = mesh.coord(dst);
    if h.row < d.row {
        RouteDir::South
    } else if h.row > d.row {
        RouteDir::North
    } else if h.col < d.col {
        RouteDir::East
    } else if h.col > d.col {
        RouteDir::West
    } else {
        RouteDir::Local
    }
}

/// Next-hop decision at tile `here` for a packet destined to `dst` under
/// XY routing on a **torus**: dimension order is preserved, but each
/// dimension travels in whichever direction (possibly through the
/// wraparound link) is shorter, ties broken towards East/South so the
/// decision is deterministic. Every hop reduces the torus distance by
/// one, so path lengths equal
/// [`Topology::Torus.hops`](crate::layout::Topology::hops).
///
/// Note the classic caveat: wraparound links close a cycle per ring, so
/// unlike mesh XY this is *not* deadlock-free for wormhole flow control
/// without a dateline VC policy; the cycle-level simulator uses it for
/// low-load validation runs where cyclic waits do not arise.
pub fn route_xy_torus(mesh: &Mesh, here: TileId, dst: TileId) -> RouteDir {
    let h = mesh.coord(here);
    let d = mesh.coord(dst);
    if h.col != d.col {
        let fwd = (d.col + mesh.cols() - h.col) % mesh.cols();
        if 2 * fwd <= mesh.cols() {
            RouteDir::East
        } else {
            RouteDir::West
        }
    } else if h.row != d.row {
        let fwd = (d.row + mesh.rows() - h.row) % mesh.rows();
        if 2 * fwd <= mesh.rows() {
            RouteDir::South
        } else {
            RouteDir::North
        }
    } else {
        RouteDir::Local
    }
}

/// Torus variant of [`route_yx`]: Y dimension first, each dimension via
/// its shorter (possibly wraparound) direction. See [`route_xy_torus`]
/// for the tie-break and deadlock caveat.
pub fn route_yx_torus(mesh: &Mesh, here: TileId, dst: TileId) -> RouteDir {
    let h = mesh.coord(here);
    let d = mesh.coord(dst);
    if h.row != d.row {
        let fwd = (d.row + mesh.rows() - h.row) % mesh.rows();
        if 2 * fwd <= mesh.rows() {
            RouteDir::South
        } else {
            RouteDir::North
        }
    } else if h.col != d.col {
        let fwd = (d.col + mesh.cols() - h.col) % mesh.cols();
        if 2 * fwd <= mesh.cols() {
            RouteDir::East
        } else {
            RouteDir::West
        }
    } else {
        RouteDir::Local
    }
}

/// Apply a direction to a tile on a torus: wraps around the edges.
///
/// # Panics
/// Panics if `dir` is [`RouteDir::Local`].
pub fn step_torus(mesh: &Mesh, here: TileId, dir: RouteDir) -> TileId {
    let c = mesh.coord(here);
    let (rows, cols) = (mesh.rows(), mesh.cols());
    let next = match dir {
        RouteDir::North => crate::geometry::Coord::new((c.row + rows - 1) % rows, c.col),
        RouteDir::South => crate::geometry::Coord::new((c.row + 1) % rows, c.col),
        RouteDir::West => crate::geometry::Coord::new(c.row, (c.col + cols - 1) % cols),
        RouteDir::East => crate::geometry::Coord::new(c.row, (c.col + 1) % cols),
        RouteDir::Local => panic!("cannot step in the Local direction"),
    };
    mesh.tile(next)
}

/// Apply a direction to a tile, returning the neighbouring tile.
///
/// # Panics
/// Panics if the move would leave the mesh (a routing bug), or if `dir` is
/// [`RouteDir::Local`].
pub fn step(mesh: &Mesh, here: TileId, dir: RouteDir) -> TileId {
    let c = mesh.coord(here);
    let next = match dir {
        RouteDir::North => {
            assert!(c.row > 0, "routed off the north edge");
            crate::geometry::Coord::new(c.row - 1, c.col)
        }
        RouteDir::South => {
            assert!(c.row + 1 < mesh.rows(), "routed off the south edge");
            crate::geometry::Coord::new(c.row + 1, c.col)
        }
        RouteDir::West => {
            assert!(c.col > 0, "routed off the west edge");
            crate::geometry::Coord::new(c.row, c.col - 1)
        }
        RouteDir::East => {
            assert!(c.col + 1 < mesh.cols(), "routed off the east edge");
            crate::geometry::Coord::new(c.row, c.col + 1)
        }
        RouteDir::Local => panic!("cannot step in the Local direction"),
    };
    mesh.tile(next)
}

/// Full YX path from `src` to `dst`, inclusive of both endpoints.
pub fn path_yx(mesh: &Mesh, src: TileId, dst: TileId) -> Vec<TileId> {
    let mut path = Vec::with_capacity(mesh.hops(src, dst) + 1);
    let mut here = src;
    path.push(here);
    loop {
        match route_yx(mesh, here, dst) {
            RouteDir::Local => break,
            dir => {
                here = step(mesh, here, dir);
                path.push(here);
            }
        }
    }
    path
}

/// Full XY path from `src` to `dst`, inclusive of both endpoints.
pub fn path_xy(mesh: &Mesh, src: TileId, dst: TileId) -> Vec<TileId> {
    let mut path = Vec::with_capacity(mesh.hops(src, dst) + 1);
    let mut here = src;
    path.push(here);
    loop {
        match route_xy(mesh, here, dst) {
            RouteDir::Local => break,
            dir => {
                here = step(mesh, here, dir);
                path.push(here);
            }
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    #[test]
    fn xy_goes_x_first() {
        let m = Mesh::square(4);
        let src = m.tile(Coord::new(0, 0));
        let dst = m.tile(Coord::new(2, 3));
        let p = path_xy(&m, src, dst);
        // X first: (0,0)→(0,1)→(0,2)→(0,3)→(1,3)→(2,3)
        let coords: Vec<Coord> = p.iter().map(|&t| m.coord(t)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::new(0, 0),
                Coord::new(0, 1),
                Coord::new(0, 2),
                Coord::new(0, 3),
                Coord::new(1, 3),
                Coord::new(2, 3),
            ]
        );
    }

    #[test]
    fn path_length_equals_hops_plus_one() {
        let m = Mesh::square(8);
        for a in m.tiles() {
            for b in m.tiles() {
                assert_eq!(path_xy(&m, a, b).len(), m.hops(a, b) + 1);
            }
        }
    }

    #[test]
    fn yx_path_goes_y_first_and_matches_length() {
        let m = Mesh::square(5);
        for a in m.tiles() {
            for b in m.tiles() {
                let p = path_yx(&m, a, b);
                assert_eq!(p.len(), m.hops(a, b) + 1);
                // Y first: once the path moves in X it stays in X.
                let mut seen_x = false;
                for w in p.windows(2) {
                    let (c0, c1) = (m.coord(w[0]), m.coord(w[1]));
                    let is_x = c0.row == c1.row;
                    if seen_x {
                        assert!(is_x, "X→Y turn in YX path");
                    }
                    seen_x |= is_x;
                }
            }
        }
    }

    #[test]
    fn self_route_is_local() {
        let m = Mesh::square(3);
        for t in m.tiles() {
            assert_eq!(route_xy(&m, t, t), RouteDir::Local);
            assert_eq!(route_yx(&m, t, t), RouteDir::Local);
        }
    }

    #[test]
    fn yx_is_transpose_of_xy() {
        let m = Mesh::square(5);
        for a in m.tiles() {
            for b in m.tiles() {
                let xy = route_xy(&m, a, b);
                let ac = m.coord(a);
                let bc = m.coord(b);
                let at = m.tile(Coord::new(ac.col, ac.row));
                let bt = m.tile(Coord::new(bc.col, bc.row));
                let yx = route_yx(&m, at, bt);
                let expect = match xy {
                    RouteDir::North => RouteDir::West,
                    RouteDir::South => RouteDir::East,
                    RouteDir::West => RouteDir::North,
                    RouteDir::East => RouteDir::South,
                    RouteDir::Local => RouteDir::Local,
                };
                assert_eq!(yx, expect);
            }
        }
    }

    #[test]
    fn torus_routes_walk_minimal_paths() {
        // Following route_{xy,yx}_torus step by step from any source must
        // reach the destination in exactly torus_hops steps.
        for m in [Mesh::square(4), Mesh::new(5, 4), Mesh::new(3, 7)] {
            for a in m.tiles() {
                for b in m.tiles() {
                    for route in [route_xy_torus, route_yx_torus] {
                        let mut here = a;
                        let mut steps = 0usize;
                        while here != b {
                            let dir = route(&m, here, b);
                            assert_ne!(dir, RouteDir::Local);
                            here = step_torus(&m, here, dir);
                            steps += 1;
                            assert!(steps <= m.num_tiles(), "routing loop {a:?}→{b:?}");
                        }
                        assert_eq!(steps, m.torus_hops_impl(a, b), "{a:?}→{b:?}");
                        assert_eq!(route(&m, b, b), RouteDir::Local);
                    }
                }
            }
        }
    }

    #[test]
    fn torus_route_uses_wraparound_when_shorter() {
        // On a 1×8 ring, going from col 0 to col 6 is shorter westwards
        // through the wrap link (2 hops) than eastwards (6 hops).
        let m = Mesh::new(1, 8);
        let a = m.tile(Coord::new(0, 0));
        let b = m.tile(Coord::new(0, 6));
        assert_eq!(route_xy_torus(&m, a, b), RouteDir::West);
        // Exactly half way (col 4): tie broken towards East.
        let c = m.tile(Coord::new(0, 4));
        assert_eq!(route_xy_torus(&m, a, c), RouteDir::East);
    }

    #[test]
    fn torus_route_matches_mesh_route_when_no_wrap_helps() {
        // Between tiles less than half the ring apart in both dimensions,
        // the torus route agrees with plain dimension-order routing.
        let m = Mesh::square(5);
        let a = m.tile(Coord::new(1, 1));
        let b = m.tile(Coord::new(2, 3));
        assert_eq!(route_xy_torus(&m, a, b), route_xy(&m, a, b));
        assert_eq!(route_yx_torus(&m, a, b), route_yx(&m, a, b));
    }

    #[test]
    fn xy_routing_is_deadlock_free_turn_model() {
        // XY routing never takes a Y→X turn: once a packet moves in Y it
        // stays in Y. Verify on all pairs of an 6×6 mesh.
        let m = Mesh::square(6);
        for a in m.tiles() {
            for b in m.tiles() {
                let p = path_xy(&m, a, b);
                let mut seen_y = false;
                for w in p.windows(2) {
                    let (c0, c1) = (m.coord(w[0]), m.coord(w[1]));
                    let is_y = c0.col == c1.col;
                    if seen_y {
                        assert!(is_y, "Y→X turn found: {:?}→{:?}", c0, c1);
                    }
                    seen_y |= is_y;
                }
            }
        }
    }
}
