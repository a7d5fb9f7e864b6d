//! Linear assignment problem (LAP) solver.
//!
//! Implements the `O(n³)` Hungarian method in the shortest-augmenting-path
//! formulation with dual potentials (Jonker–Volgenant style) over dense
//! `f64` cost matrices. This is the subroutine the paper's Algorithm 1
//! ("Hungarian-based SAM solution") relies on: the single-application
//! mapping problem is an instance of LAP because each thread's latency
//! contribution depends only on its own tile (Section IV.A).
//!
//! Rectangular matrices with `rows ≤ cols` are supported (every row is
//! assigned to a distinct column; extra columns stay free), which is what
//! mapping `N_a` threads onto a candidate set of `≥ N_a` tiles needs.
//!
//! A caller solving many matrices keeps one [`Workspace`] (and refills one
//! [`CostMatrix`]) so repeated solves allocate nothing;
//! [`CostMatrix::solve`] is the same solver on a fresh workspace.
//!
//! ```
//! use assignment::CostMatrix;
//! let costs = CostMatrix::from_rows(&[
//!     vec![4.0, 1.0, 3.0],
//!     vec![2.0, 0.0, 5.0],
//!     vec![3.0, 2.0, 2.0],
//! ]);
//! let sol = costs.solve();
//! assert_eq!(sol.row_to_col, vec![1, 0, 2]); // total cost 1 + 2 + 2
//! assert!((sol.cost - 5.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod solver;

pub use matrix::CostMatrix;
pub use solver::{Solution, Workspace};

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force minimum over all permutations (rows ≤ 8).
    pub(crate) fn brute_force(costs: &CostMatrix) -> f64 {
        fn recurse(costs: &CostMatrix, row: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            if row == costs.rows() {
                if acc < *best {
                    *best = acc;
                }
                return;
            }
            for col in 0..costs.cols() {
                if !used[col] {
                    used[col] = true;
                    recurse(costs, row + 1, used, acc + costs.get(row, col), best);
                    used[col] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        let mut used = vec![false; costs.cols()];
        recurse(costs, 0, &mut used, 0.0, &mut best);
        best
    }

    #[test]
    fn doc_example() {
        let costs = CostMatrix::from_rows(&[
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ]);
        let sol = costs.solve();
        assert_eq!(sol.row_to_col, vec![1, 0, 2]);
        assert!((sol.cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn identity_is_optimal_for_diagonal_zeros() {
        let n = 6;
        let mut m = CostMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                m.set(
                    r,
                    c,
                    if r == c {
                        0.0
                    } else {
                        10.0 + (r * n + c) as f64
                    },
                );
            }
        }
        let sol = m.solve();
        assert_eq!(sol.row_to_col, (0..n).collect::<Vec<_>>());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let instances = [
            vec![
                vec![7.0, 5.0, 11.0],
                vec![5.0, 4.0, 1.0],
                vec![9.0, 3.0, 2.0],
            ],
            vec![
                vec![1.0, 2.0, 3.0, 4.0],
                vec![2.0, 4.0, 6.0, 8.0],
                vec![3.0, 6.0, 9.0, 12.0],
                vec![4.0, 8.0, 12.0, 16.0],
            ],
            // negatives allowed
            vec![
                vec![-1.0, -2.0, 0.5],
                vec![3.0, -4.5, 2.0],
                vec![0.0, 0.0, -0.25],
            ],
        ];
        for rows in &instances {
            let m = CostMatrix::from_rows(rows);
            let sol = m.solve();
            let bf = brute_force(&m);
            assert!((sol.cost - bf).abs() < 1e-9, "{} != {}", sol.cost, bf);
        }
    }

    #[test]
    fn random_instances_match_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for trial in 0..200 {
            let n = rng.gen_range(1..=7);
            let mcols = n + rng.gen_range(0..=2);
            let mut m = CostMatrix::zeros(n, mcols);
            for r in 0..n {
                for c in 0..mcols {
                    m.set(r, c, rng.gen_range(-50.0..50.0));
                }
            }
            let sol = m.solve();
            let bf = brute_force(&m);
            assert!(
                (sol.cost - bf).abs() < 1e-7,
                "trial {trial}: {} != {}",
                sol.cost,
                bf
            );
            // assignment must be a valid partial permutation
            let mut seen = vec![false; mcols];
            for &c in &sol.row_to_col {
                assert!(!seen[c]);
                seen[c] = true;
            }
            // reported cost must equal the cost of the returned assignment
            let recomputed: f64 = sol
                .row_to_col
                .iter()
                .enumerate()
                .map(|(r, &c)| m.get(r, c))
                .sum();
            assert!((sol.cost - recomputed).abs() < 1e-7);
        }
    }

    #[test]
    fn one_by_one() {
        let m = CostMatrix::from_rows(&[vec![3.5]]);
        let sol = m.solve();
        assert_eq!(sol.row_to_col, vec![0]);
        assert!((sol.cost - 3.5).abs() < 1e-12);
    }

    #[test]
    fn rectangular_picks_cheap_columns() {
        // 2 rows, 4 cols; the cheap columns are 3 and 1.
        let m = CostMatrix::from_rows(&[vec![9.0, 2.0, 9.0, 1.0], vec![9.0, 1.0, 9.0, 2.0]]);
        let sol = m.solve();
        assert!((sol.cost - 2.0).abs() < 1e-9);
        let mut cols = sol.row_to_col.clone();
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn ties_still_valid() {
        let m = CostMatrix::zeros(5, 5);
        let sol = m.solve();
        assert_eq!(sol.cost, 0.0);
        let mut cols = sol.row_to_col.clone();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn large_instance_runs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let n = 256;
        let mut m = CostMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, rng.gen_range(0.0..1000.0));
            }
        }
        let sol = m.solve();
        assert!(sol.cost.is_finite());
        assert_eq!(sol.row_to_col.len(), n);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The solver's optimum is never worse than any fixed permutation.
        #[test]
        fn never_worse_than_fixed_permutations(
            vals in proptest::collection::vec(-100.0f64..100.0, 36),
        ) {
            let n = 6;
            let mut m = CostMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, vals[r * n + c]);
                }
            }
            let sol = m.solve();
            let ident: f64 = (0..n).map(|i| m.get(i, i)).sum();
            let rev: f64 = (0..n).map(|i| m.get(i, n - 1 - i)).sum();
            prop_assert!(sol.cost <= ident + 1e-9);
            prop_assert!(sol.cost <= rev + 1e-9);
        }

        /// Exact optimality vs brute force for tiny matrices.
        #[test]
        fn optimal_vs_brute_force(
            vals in proptest::collection::vec(-10.0f64..10.0, 25),
        ) {
            let n = 5;
            let mut m = CostMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, vals[r * n + c]);
                }
            }
            let sol = m.solve();
            let bf = super::tests::brute_force(&m);
            prop_assert!((sol.cost - bf).abs() < 1e-7);
        }

        /// Adding a constant to every entry of a row shifts the optimum by
        /// exactly that constant.
        #[test]
        fn row_shift_invariance(
            vals in proptest::collection::vec(0.0f64..10.0, 16),
            shift in -5.0f64..5.0,
        ) {
            let n = 4;
            let mut m = CostMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, vals[r * n + c]);
                }
            }
            let base = m.solve().cost;
            for c in 0..n {
                let v = m.get(0, c);
                m.set(0, c, v + shift);
            }
            let shifted = m.solve().cost;
            prop_assert!((shifted - (base + shift)).abs() < 1e-7);
        }
    }
}
