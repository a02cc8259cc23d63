//! Deduplicating graph construction from edge lists.

use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// Accumulates edges and produces a [`Graph`].
///
/// Self-loops are dropped and duplicate edges collapsed, matching the paper's
/// preprocessing ("we ignore the information on the weight and direction of
/// the edges", §V-A).
///
/// ```
/// use saphyra_graph::GraphBuilder;
/// let g = GraphBuilder::new(3).edges([(0, 1), (1, 0), (1, 1), (1, 2)]).build().unwrap();
/// assert_eq!(g.num_edges(), 2); // duplicate and self-loop removed
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on nodes `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_edge_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Adds one undirected edge (direction and duplicates are irrelevant).
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds many edges.
    pub fn edges<I: IntoIterator<Item = (NodeId, NodeId)>>(mut self, it: I) -> Self {
        self.edges.extend(it);
        self
    }

    /// Adds one edge in place (non-consuming, for loops).
    pub fn push(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Current number of (raw, possibly duplicate) edges added.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validates, deduplicates and builds the CSR graph.
    pub fn build(self) -> Result<Graph, GraphError> {
        let GraphBuilder { n, mut edges } = self;
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes(n as u64));
        }
        for &(u, v) in &edges {
            let bad = [u, v].into_iter().find(|&x| x as usize >= n);
            if let Some(node) = bad {
                return Err(GraphError::EndpointOutOfRange {
                    node: node as u64,
                    n: n as u64,
                });
            }
        }

        // Canonicalize, drop self-loops, dedup: yields the undirected edge
        // list in lexicographic order, whose index is the edge id.
        for e in edges.iter_mut() {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
        Ok(fill(n, &edges))
    }
}

/// Builds the CSR of a canonical edge list on nodes `0..n`: sorted,
/// deduplicated, `u < v`, endpoints in range. An edge's id is its index in
/// `edges`. Graph loads and `PATCH` deltas both construct graphs here.
pub(crate) fn fill(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    // Counting pass for CSR offsets over both directions.
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }

    // Fill pass, one cursor per node. Lexicographic order hands node x
    // every backward slot (neighbour w < x, from edge (w, x)) before its
    // first forward slot (neighbour y > x, from edge (x, y)), and each
    // kind in ascending neighbour order, so every adjacency slice comes
    // out sorted without a per-node sort.
    let mut neighbors = vec![0 as NodeId; 2 * edges.len()];
    let mut edge_ids = vec![0u32; 2 * edges.len()];
    let mut cursor = offsets.clone();
    for (id, &(u, v)) in edges.iter().enumerate() {
        for (x, nb) in [(u, v), (v, u)] {
            let slot = cursor[x as usize];
            neighbors[slot] = nb;
            edge_ids[slot] = id as u32;
            cursor[x as usize] += 1;
        }
    }
    Graph::from_parts(offsets, neighbors, edge_ids, edges.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::new(2).edge(0, 5).build().unwrap_err();
        assert!(matches!(
            err,
            GraphError::EndpointOutOfRange { node: 5, .. }
        ));
    }

    #[test]
    fn adjacency_sorted_for_all_nodes() {
        // Deliberately insert in scrambled order.
        let g = GraphBuilder::new(6)
            .edges([(5, 0), (3, 0), (0, 1), (4, 0), (2, 0)])
            .build()
            .unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        for v in g.nodes() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
        }
    }

    #[test]
    fn push_and_capacity_api() {
        let mut b = GraphBuilder::new(3).with_edge_capacity(4);
        b.push(0, 1);
        b.push(1, 2);
        assert_eq!(b.raw_edge_count(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_ids_are_lexicographic_rank() {
        let g = GraphBuilder::new(4)
            .edges([(3, 2), (1, 0), (2, 0)])
            .build()
            .unwrap();
        // canonical sorted edges: (0,1)=0, (0,2)=1, (2,3)=2
        assert_eq!(g.edge_id(0, 1), Some(0));
        assert_eq!(g.edge_id(2, 0), Some(1));
        assert_eq!(g.edge_id(3, 2), Some(2));
    }
}
