#![allow(clippy::needless_range_loop)] // index loops double-index cost table + flags

//! The balanced transportation problem.
//!
//! EMD (Definition 1) *is* a balanced transportation problem: sources are the
//! cuboids of one signature with supplies `μ1i`, sinks the cuboids of the
//! other with demands `μ2j`, and the cost table is the ground distance. This
//! module provides the problem type and an exact successive-shortest-paths
//! solver: the general-distance oracle the 1-D closed form
//! (`viderec_emd::emd_1d`) is cross-validated against.

use super::matrix::DenseMatrix;

/// Tolerance for mass balance and flow comparisons.
pub const EPS: f64 = 1e-9;

/// A balanced transportation problem instance.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    supply: Vec<f64>,
    demand: Vec<f64>,
    cost: DenseMatrix,
}

impl TransportProblem {
    /// Creates a problem.
    ///
    /// # Panics
    /// Panics if supplies/demands are empty, contain non-positive or
    /// non-finite entries, if their totals differ by more than [`EPS`], or if
    /// the cost matrix shape does not match.
    pub fn new(supply: Vec<f64>, demand: Vec<f64>, cost: DenseMatrix) -> Self {
        assert!(!supply.is_empty() && !demand.is_empty(), "empty problem");
        assert!(
            supply
                .iter()
                .chain(&demand)
                .all(|&w| w.is_finite() && w > 0.0),
            "supplies and demands must be positive and finite"
        );
        assert!(
            cost.data().iter().all(|&c| c.is_finite() && c >= 0.0),
            "costs must be non-negative and finite"
        );
        let (s, d): (f64, f64) = (supply.iter().sum(), demand.iter().sum());
        assert!(
            (s - d).abs() <= EPS * s.max(d).max(1.0),
            "unbalanced problem: supply {s} vs demand {d}"
        );
        assert_eq!((cost.rows(), cost.cols()), (supply.len(), demand.len()));
        Self {
            supply,
            demand,
            cost,
        }
    }

    /// Number of sources.
    pub fn m(&self) -> usize {
        self.supply.len()
    }

    /// Number of sinks.
    pub fn n(&self) -> usize {
        self.demand.len()
    }

    /// Supplies.
    pub fn supply(&self) -> &[f64] {
        &self.supply
    }

    /// Demands.
    pub fn demand(&self) -> &[f64] {
        &self.demand
    }

    /// Ground-distance cost table.
    pub fn cost(&self) -> &DenseMatrix {
        &self.cost
    }

    /// Objective value `Σ c_ij f_ij` of a flow.
    pub fn objective(&self, flow: &DenseMatrix) -> f64 {
        self.cost.dot(flow)
    }

    /// Checks the CPos/CSource/CTarget constraints of Definition 1 against a
    /// flow matrix, within tolerance `tol`.
    pub fn is_feasible(&self, flow: &DenseMatrix, tol: f64) -> bool {
        if (flow.rows(), flow.cols()) != (self.m(), self.n()) {
            return false;
        }
        // CPos
        if flow.data().iter().any(|&f| f < -tol) {
            return false;
        }
        // CSource
        for i in 0..self.m() {
            let row: f64 = flow.row(i).iter().sum();
            if (row - self.supply[i]).abs() > tol {
                return false;
            }
        }
        // CTarget
        for j in 0..self.n() {
            let col: f64 = (0..self.m()).map(|i| flow.get(i, j)).sum();
            if (col - self.demand[j]).abs() > tol {
                return false;
            }
        }
        true
    }
}

/// Exact solver via successive shortest paths with Dijkstra + potentials.
///
/// Each augmentation saturates a source or a sink, so there are at most
/// `m + n` augmentations of an `O((m+n)²)` dense Dijkstra each — entirely
/// adequate for signature-sized instances, and simple enough to trust as the
/// ground truth the 1-D closed form is validated against.
///
/// Returns `(flow, objective)`.
pub fn solve_ssp(p: &TransportProblem) -> (DenseMatrix, f64) {
    let (m, n) = (p.m(), p.n());
    let nodes = m + n;
    let mut res_supply = p.supply().to_vec();
    let mut res_demand = p.demand().to_vec();
    let mut flow = DenseMatrix::zeros(m, n);
    // Node potentials keep reduced costs non-negative: forward edge (i, j)
    // has reduced cost c_ij + phi_i − phi_j, backward (j, i) the negation.
    let mut phi = vec![0.0f64; nodes];

    loop {
        let total_deficit: f64 = res_demand.iter().sum();
        if total_deficit <= EPS {
            break;
        }
        // Multi-source Dijkstra from all sources with residual supply.
        let mut dist = vec![f64::INFINITY; nodes];
        let mut parent: Vec<Option<usize>> = vec![None; nodes];
        let mut done = vec![false; nodes];
        for i in 0..m {
            if res_supply[i] > EPS {
                dist[i] = 0.0;
            }
        }
        for _ in 0..nodes {
            // Dense extract-min.
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (v, &dv) in dist.iter().enumerate() {
                if !done[v] && dv < best {
                    best = dv;
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            if u < m {
                // Forward edges source u → every sink.
                for j in 0..n {
                    let v = m + j;
                    let rc = p.cost().get(u, j) + phi[u] - phi[v];
                    debug_assert!(rc >= -1e-6, "negative reduced cost {rc}");
                    let nd = dist[u] + rc.max(0.0);
                    if nd < dist[v] {
                        dist[v] = nd;
                        parent[v] = Some(u);
                    }
                }
            } else {
                // Backward edges sink u → sources with positive flow.
                let j = u - m;
                for i in 0..m {
                    if flow.get(i, j) > EPS {
                        let rc = -p.cost().get(i, j) + phi[u] - phi[i];
                        debug_assert!(rc >= -1e-6, "negative reduced cost {rc}");
                        let nd = dist[u] + rc.max(0.0);
                        if nd < dist[i] {
                            dist[i] = nd;
                            parent[i] = Some(u);
                        }
                    }
                }
            }
        }
        // Closest sink with residual demand.
        let target = (0..n)
            .filter(|&j| res_demand[j] > EPS)
            .min_by(|&a, &b| dist[m + a].total_cmp(&dist[m + b]))
            // The loop runs while residual deficit remains, so the filter
            // is non-empty.
            .expect("deficit remains");
        let t = m + target;
        assert!(dist[t].is_finite(), "transportation network disconnected");

        // Trace the path back to its originating source; bottleneck is the
        // min of endpoint residuals and backward-edge flows on the path.
        let mut path = Vec::new();
        let mut v = t;
        while let Some(u) = parent[v] {
            path.push((u, v));
            v = u;
        }
        let origin = v;
        let mut theta = res_supply[origin].min(res_demand[target]);
        for &(u, w) in &path {
            if u >= m {
                // Backward edge (sink u → source w): limited by flow (w, u−m).
                theta = theta.min(flow.get(w, u - m));
            }
        }
        debug_assert!(theta > EPS, "zero augmentation");
        for &(u, w) in &path {
            if u < m {
                flow.add(u, w - m, theta);
            } else {
                flow.add(w, u - m, -theta);
            }
        }
        res_supply[origin] -= theta;
        res_demand[target] -= theta;
        // Standard potential update: cap at the target distance so reduced
        // costs stay non-negative for the next round.
        for (v, d) in dist.iter().enumerate() {
            phi[v] += d.min(dist[t]);
        }
    }
    let obj = p.objective(&flow);
    (flow, obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classic() -> TransportProblem {
        // A standard textbook instance with a known optimum.
        let cost = DenseMatrix::from_fn(3, 4, |i, j| {
            [
                [3.0, 1.0, 7.0, 4.0],
                [2.0, 6.0, 5.0, 9.0],
                [8.0, 3.0, 3.0, 2.0],
            ][i][j]
        });
        TransportProblem::new(
            vec![300.0, 400.0, 500.0],
            vec![250.0, 350.0, 400.0, 200.0],
            cost,
        )
    }

    #[test]
    fn ssp_solves_classic_instance_optimally() {
        let p = classic();
        let (flow, obj) = solve_ssp(&p);
        assert!(p.is_feasible(&flow, 1e-6));
        // Known optimum of this instance is 2850.
        assert!((obj - 2850.0).abs() < 1e-6, "got {obj}");
    }

    #[test]
    fn ssp_handles_degenerate_ties() {
        // Equal supplies/demands force degenerate augmentations.
        let cost = DenseMatrix::from_fn(2, 2, |i, j| if i == j { 0.0 } else { 1.0 });
        let p = TransportProblem::new(vec![0.5, 0.5], vec![0.5, 0.5], cost);
        let (flow, obj) = solve_ssp(&p);
        assert!(p.is_feasible(&flow, 1e-9));
        assert!(obj.abs() < 1e-12);
    }

    #[test]
    fn ssp_single_source_sink() {
        let p = TransportProblem::new(vec![1.0], vec![1.0], DenseMatrix::filled(1, 1, 4.2));
        let (flow, obj) = solve_ssp(&p);
        assert!((flow.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((obj - 4.2).abs() < 1e-12);
    }

    #[test]
    fn is_feasible_rejects_unbalanced_flow() {
        let p = classic();
        let flow = DenseMatrix::zeros(3, 4);
        assert!(!p.is_feasible(&flow, 1e-9));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_problem_rejected() {
        TransportProblem::new(vec![1.0], vec![2.0], DenseMatrix::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_supply_rejected() {
        TransportProblem::new(vec![0.0, 1.0], vec![1.0], DenseMatrix::zeros(2, 1));
    }
}
