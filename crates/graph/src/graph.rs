//! The graph structure and differentiable message passing.

use std::rc::Rc;

use tyxe_nn::StepInput;
use tyxe_tensor::Tensor;

struct GraphInner {
    num_nodes: usize,
    /// CSR row offsets into `col_idx`/`weights` for Â = D^-1/2 (A+I) D^-1/2.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    weights: Vec<f64>,
    /// Original (undirected) edge list, without self loops.
    edges: Vec<(usize, usize)>,
}

/// An undirected graph with precomputed symmetric GCN normalization
/// `Â = D^{-1/2} (A + I) D^{-1/2}`.
///
/// Cloning is cheap (shared `Rc`).
#[derive(Clone)]
pub struct Graph {
    inner: Rc<GraphInner>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.inner.num_nodes)
            .field("num_edges", &self.inner.edges.len())
            .finish()
    }
}

impl Graph {
    /// Builds a graph from an undirected edge list (duplicates and
    /// self-loops in the input are ignored; self-loops are added by the
    /// normalization itself).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Graph {
        let mut adj: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); num_nodes];
        let mut clean_edges = Vec::new();
        for &(u, v) in edges {
            assert!(u < num_nodes && v < num_nodes, "edge ({u}, {v}) out of range");
            if u == v || adj[u].contains(&v) {
                continue;
            }
            adj[u].insert(v);
            adj[v].insert(u);
            clean_edges.push((u.min(v), u.max(v)));
        }
        // Self loops for Â.
        for (u, neigh) in adj.iter_mut().enumerate() {
            neigh.insert(u);
        }
        let degree: Vec<f64> = adj.iter().map(|n| n.len() as f64).collect();

        let mut row_ptr = Vec::with_capacity(num_nodes + 1);
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        row_ptr.push(0);
        for (u, neigh) in adj.iter().enumerate() {
            for &v in neigh {
                col_idx.push(v);
                weights.push(1.0 / (degree[u] * degree[v]).sqrt());
            }
            row_ptr.push(col_idx.len());
        }
        Graph {
            inner: Rc::new(GraphInner {
                num_nodes,
                row_ptr,
                col_idx,
                weights,
                edges: clean_edges,
            }),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    /// Number of undirected edges (excluding self-loops).
    pub fn num_edges(&self) -> usize {
        self.inner.edges.len()
    }

    /// The undirected edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.inner.edges
    }

    /// Differentiable message passing: `Â x` for node features
    /// `x: [n, d]`. Since `Â` is symmetric, the backward pass is another
    /// `Â`-product. Recorded steps replay it in place.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[num_nodes, d]`.
    pub fn aggregate(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "aggregate: features must be [n, d]");
        let n = self.inner.num_nodes;
        assert_eq!(x.shape()[0], n, "aggregate: node count mismatch");
        let d = x.shape()[1];
        let inner = Rc::clone(&self.inner);

        // `out += Â vec`, row by row in CSR order.
        let spmv = move |vec: &[f64], out: &mut [f64]| {
            for u in 0..inner.num_nodes {
                let row = &mut out[u * d..(u + 1) * d];
                for k in inner.row_ptr[u]..inner.row_ptr[u + 1] {
                    let v = inner.col_idx[k];
                    let w = inner.weights[k];
                    let src = &vec[v * d..(v + 1) * d];
                    for (o, s) in row.iter_mut().zip(src) {
                        *o += w * s;
                    }
                }
            }
        };

        let forward = {
            let (spmv, x) = (spmv.clone(), x.clone());
            move |out: &mut [f64]| {
                out.fill(0.0);
                spmv(&x.data(), out);
            }
        };
        Tensor::custom_op(&[n, d], vec![x.clone()], forward, move |_, grad, grads| {
            spmv(grad, grads[0])
        })
    }
}

/// A graph is keyed on its identity, the address of its shared CSR. The
/// address cannot be reused while a plan keyed on it lives: the
/// aggregation closures the plan recorded hold the `Rc`.
impl StepInput for Graph {
    fn plan_key(&self, key: &mut Vec<u64>) -> bool {
        key.push(Rc::as_ptr(&self.inner) as usize as u64);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn construction_dedups_and_counts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn aggregate_matches_dense_normalized_adjacency() {
        let g = path3();
        // Degrees (with self loop): d0 = 2, d1 = 3, d2 = 2.
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3, 1]);
        let y = g.aggregate(&x).to_vec();
        // Â[0][0] = 1/2, Â[1][0] = 1/sqrt(6), Â[2][0] = 0.
        assert!((y[0] - 0.5).abs() < 1e-12);
        assert!((y[1] - 1.0 / 6.0f64.sqrt()).abs() < 1e-12);
        assert!(y[2].abs() < 1e-12);
    }

    #[test]
    fn aggregate_gradient_is_symmetric_product() {
        let g = path3();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).requires_grad(true);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3, 1]);
        g.aggregate(&x).mul(&w).sum().backward();
        // d/dx of (Â x)[0] = Â[0][:] = [1/2, 1/sqrt(6), 0].
        let grad = x.grad().unwrap();
        assert!((grad[0] - 0.5).abs() < 1e-12);
        assert!((grad[1] - 1.0 / 6.0f64.sqrt()).abs() < 1e-12);
        assert!(grad[2].abs() < 1e-12);
    }

    #[test]
    fn aggregate_preserves_constant_vector_approximately() {
        // For a regular graph, Â preserves constants exactly.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let x = Tensor::ones(&[4, 2]);
        let y = g.aggregate(&x).to_vec();
        for v in y {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn multi_feature_aggregation() {
        let g = path3();
        let x = Tensor::from_vec((0..6).map(|v| v as f64).collect(), &[3, 2]);
        let y = g.aggregate(&x);
        assert_eq!(y.shape(), &[3, 2]);
        // Column independence: feature 0 of node 2 only mixes nodes 1, 2.
        let expected = 2.0 / 6.0f64.sqrt() + 4.0 / 2.0;
        assert!((y.at(&[2, 0]) - expected).abs() < 1e-12);
    }
}
