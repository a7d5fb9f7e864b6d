//! Shortest-augmenting-path Hungarian solver with dual potentials.
//!
//! Classic `O(rows² · cols)` formulation (Jonker–Volgenant / e-maxx): rows
//! are inserted one at a time; for each row a Dijkstra-like search over
//! reduced costs finds the shortest augmenting path, and the dual potentials
//! `u` (rows) / `v` (columns) are updated to keep all reduced costs
//! non-negative. Exact for `f64` inputs up to floating-point accumulation.

use crate::matrix::CostMatrix;

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// `row_to_col[r]` is the column assigned to row `r`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment (sum of selected entries).
    pub cost: f64,
}

/// The solver's buffers, kept between solves so a caller that solves many
/// small matrices (SAM inside every SSS pass) allocates them once: after
/// the first solve of the largest size, [`solve`](Workspace::solve)
/// allocates nothing. [`CostMatrix::solve`] runs a fresh workspace, so
/// both entry points share one code path and return the same bits.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Row potentials, 1-based (`u[0]` is the dummy row).
    u: Vec<f64>,
    /// Column potentials, 1-based.
    v: Vec<f64>,
    /// `p[j]`: row matched to column `j` (0 = free; `p[0]` is the row
    /// being inserted).
    p: Vec<usize>,
    /// Predecessor column on the shortest augmenting path.
    way: Vec<usize>,
    /// Per-row scratch: shortest reduced distance to each column.
    minv: Vec<f64>,
    /// Per-row scratch: columns already on the search tree.
    used: Vec<bool>,
    /// The last solve's assignment, `row_to_col[r]` = column of row `r`.
    row_to_col: Vec<usize>,
}

impl Workspace {
    /// An empty workspace; buffers grow on the first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve the minimum-cost assignment for `costs`, returning its total
    /// cost. The assignment itself is left in
    /// [`row_to_col`](Self::row_to_col) until the next solve.
    ///
    /// # Panics
    /// Panics if any entry is non-finite.
    pub fn solve(&mut self, costs: &CostMatrix) -> f64 {
        let n = costs.rows();
        let m = costs.cols();
        debug_assert!(n <= m);
        for r in 0..n {
            for c in 0..m {
                assert!(costs.get(r, c).is_finite(), "non-finite cost at ({r}, {c})");
            }
        }

        // 1-based arrays with a dummy 0 column/row, as in the classic
        // presentation.
        reset(&mut self.u, n + 1, 0.0);
        reset(&mut self.v, m + 1, 0.0);
        reset(&mut self.p, m + 1, 0);
        reset(&mut self.way, m + 1, 0);
        reset(&mut self.minv, m + 1, f64::INFINITY);
        reset(&mut self.used, m + 1, false);
        let Workspace {
            u,
            v,
            p,
            way,
            minv,
            used,
            row_to_col,
        } = self;

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(f64::INFINITY);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                let row = costs.row(i0 - 1);
                for j in 1..=m {
                    if !used[j] {
                        let cur = row[j - 1] - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                debug_assert!(delta.is_finite(), "augmenting path search stuck");
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the found path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        reset(row_to_col, n, usize::MAX);
        for j in 1..=m {
            if p[j] != 0 {
                row_to_col[p[j] - 1] = j - 1;
            }
        }
        debug_assert!(row_to_col.iter().all(|&c| c != usize::MAX));
        row_to_col
            .iter()
            .enumerate()
            .map(|(r, &c)| costs.get(r, c))
            .sum()
    }

    /// The last solve's assignment: `row_to_col()[r]` is the column given
    /// to row `r`. Empty before the first solve.
    pub fn row_to_col(&self) -> &[usize] {
        &self.row_to_col
    }

    /// The last solve's assignment, taking the buffer out of the
    /// workspace.
    pub(crate) fn into_row_to_col(self) -> Vec<usize> {
        self.row_to_col
    }
}

/// Set `buf` to `len` copies of `value`, reusing its allocation.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}
