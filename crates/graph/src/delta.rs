//! Batched edge inserts and deletes on a CSR graph.
//!
//! The service's `PATCH /graphs/<name>` path lands here: a delta is a set of
//! undirected edges to add and remove. [`apply`] validates it, splices the
//! patched CSR in O(n + m) (untouched nodes copy their adjacency ranges;
//! edge ids are the lexicographic rank of the canonical edge list, so a
//! delta renumbers ids globally) and marks the connected components the
//! delta touches. The caller rebuilds the decomposition of the patched
//! graph from scratch; the dirty mask only scopes which cached rankings a
//! patch can have changed.

use crate::csr::{Graph, NodeId};

/// Sentinel in the splice's old → new edge-id map: the edge was deleted.
const UNMAPPED: u32 = u32::MAX;

/// A canonical (sorted, deduplicated, `u < v`) undirected edge list.
pub type EdgeList = Vec<(NodeId, NodeId)>;

/// A batch of undirected edge changes. Endpoint order and duplicates are
/// irrelevant (edges are canonicalized); inserting an existing edge or
/// deleting a missing one is a no-op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges to add.
    pub insert: Vec<(NodeId, NodeId)>,
    /// Edges to remove.
    pub delete: Vec<(NodeId, NodeId)>,
}

/// Why a delta was rejected before touching the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// `(u, u)` edges are dropped by construction and cannot be patched in.
    SelfLoop(NodeId),
    /// An endpoint is `>= num_nodes` (deltas never grow the node set).
    EndpointOutOfRange {
        /// The offending endpoint.
        node: u64,
        /// The graph's node count.
        n: u64,
    },
    /// Both change lists are empty.
    Empty,
    /// The same canonical edge appears in both `insert` and `delete`.
    Conflict(NodeId, NodeId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SelfLoop(u) => write!(f, "self-loop ({u}, {u}) in delta"),
            DeltaError::EndpointOutOfRange { node, n } => {
                write!(f, "endpoint {node} out of range for {n} nodes")
            }
            DeltaError::Empty => write!(f, "empty delta: no edges to insert or delete"),
            DeltaError::Conflict(u, v) => {
                write!(f, "edge ({u}, {v}) appears in both insert and delete")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl EdgeDelta {
    /// Whether both change lists are empty.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    fn canon(list: &[(NodeId, NodeId)], n: usize) -> Result<Vec<(NodeId, NodeId)>, DeltaError> {
        let mut out = Vec::with_capacity(list.len());
        for &(u, v) in list {
            if let Some(&node) = [u, v].iter().find(|&&x| x as usize >= n) {
                return Err(DeltaError::EndpointOutOfRange {
                    node: node as u64,
                    n: n as u64,
                });
            }
            if u == v {
                return Err(DeltaError::SelfLoop(u));
            }
            out.push(if u < v { (u, v) } else { (v, u) });
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Validates against a graph on `n` nodes and returns the canonical
    /// (sorted, deduplicated, `u < v`) insert and delete lists.
    pub fn normalized(&self, n: usize) -> Result<(EdgeList, EdgeList), DeltaError> {
        if self.is_empty() {
            return Err(DeltaError::Empty);
        }
        let ins = Self::canon(&self.insert, n)?;
        let del = Self::canon(&self.delete, n)?;
        let (mut i, mut j) = (0, 0);
        while i < ins.len() && j < del.len() {
            match ins[i].cmp(&del[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Err(DeltaError::Conflict(ins[i].0, ins[i].1)),
            }
        }
        Ok((ins, del))
    }
}

/// The result of applying an [`EdgeDelta`]: the patched graph and the
/// nodes whose connected component the delta touched.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The patched graph.
    pub graph: Graph,
    /// Per node of the patched graph: whether it lies in a connected
    /// component that intersects the delta. Rankings whose targets avoid
    /// every dirty node are unaffected by the patch.
    pub dirty_nodes: Vec<bool>,
    /// Edges actually added (inserts of existing edges are no-ops).
    pub inserted: usize,
    /// Edges actually removed (deletes of missing edges are no-ops).
    pub deleted: usize,
}

/// Applies `delta` to `g`, rebuilding only the adjacency ranges of
/// endpoints the delta touches, and marks every node whose connected
/// component in the patched graph contains such an endpoint.
pub fn apply(g: &Graph, delta: &EdgeDelta) -> Result<AppliedDelta, DeltaError> {
    let n = g.num_nodes();
    let (ins, del) = delta.normalized(n)?;

    // Effective change lists: inserting an existing edge or deleting a
    // missing one is a no-op and must not dirty anything.
    let ins: Vec<(NodeId, NodeId)> = ins
        .into_iter()
        .filter(|&(u, v)| !g.has_edge(u, v))
        .collect();
    let del: Vec<(NodeId, NodeId)> = del.into_iter().filter(|&(u, v)| g.has_edge(u, v)).collect();
    let (inserted, deleted) = (ins.len(), del.len());

    if inserted == 0 && deleted == 0 {
        return Ok(AppliedDelta {
            graph: g.clone(),
            dirty_nodes: vec![false; n],
            inserted,
            deleted,
        });
    }

    // Merge the old canonical edge list (id order *is* lexicographic order)
    // with the sorted inserts, dropping deletes. Ids renumber globally: an
    // edge's new id is its position in the merged list.
    let old_m = g.num_edges();
    let new_m = old_m + inserted - deleted;
    let mut edge_map = vec![UNMAPPED; old_m];
    let mut new_edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(new_m);
    {
        let (mut di, mut ii) = (0usize, 0usize);
        for (u, v, eid) in g.edges() {
            while ii < ins.len() && ins[ii] < (u, v) {
                new_edges.push(ins[ii]);
                ii += 1;
            }
            if di < del.len() && del[di] == (u, v) {
                di += 1;
                continue;
            }
            edge_map[eid as usize] = new_edges.len() as u32;
            new_edges.push((u, v));
        }
        new_edges.extend_from_slice(&ins[ii..]);
        debug_assert_eq!(di, del.len());
        debug_assert_eq!(new_edges.len(), new_m);
    }

    // Adjacency endpoints the delta touches.
    let mut touched = vec![false; n];
    for &(u, v) in ins.iter().chain(del.iter()) {
        touched[u as usize] = true;
        touched[v as usize] = true;
    }

    // New CSR offsets from degree adjustments.
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = g.degree(v as NodeId);
    }
    for &(u, v) in &del {
        offsets[u as usize + 1] -= 1;
        offsets[v as usize + 1] -= 1;
    }
    for &(u, v) in &ins {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }

    // Directed slots of the inserted edges, grouped by node.
    let mut ins_slots: Vec<(NodeId, NodeId, u32)> = Vec::with_capacity(2 * inserted);
    for &(u, v) in &ins {
        let id = new_edges.binary_search(&(u, v)).expect("merged insert") as u32;
        ins_slots.push((u, v, id));
        ins_slots.push((v, u, id));
    }
    ins_slots.sort_unstable();

    // Fill pass: untouched nodes copy their slice (ids renumbered through
    // the map, neighbor order unchanged); touched nodes merge surviving old
    // slots with inserted slots — both already sorted by neighbor.
    let mut neighbors = vec![0 as NodeId; 2 * new_m];
    let mut edge_ids = vec![0u32; 2 * new_m];
    for v in 0..n as NodeId {
        let mut w = offsets[v as usize];
        if !touched[v as usize] {
            for slot in g.slot_range(v) {
                neighbors[w] = g.neighbor_at(slot);
                edge_ids[w] = edge_map[g.edge_id_at(slot) as usize];
                w += 1;
            }
        } else {
            let lo = ins_slots.partition_point(|&(x, _, _)| x < v);
            let hi = ins_slots.partition_point(|&(x, _, _)| x <= v);
            let mut it = ins_slots[lo..hi].iter().peekable();
            for slot in g.slot_range(v) {
                let mapped = edge_map[g.edge_id_at(slot) as usize];
                if mapped == UNMAPPED {
                    continue;
                }
                let nb = g.neighbor_at(slot);
                while let Some(&&(_, inb, iid)) = it.peek() {
                    if inb < nb {
                        neighbors[w] = inb;
                        edge_ids[w] = iid;
                        w += 1;
                        it.next();
                    } else {
                        break;
                    }
                }
                neighbors[w] = nb;
                edge_ids[w] = mapped;
                w += 1;
            }
            for &(_, inb, iid) in it {
                neighbors[w] = inb;
                edge_ids[w] = iid;
                w += 1;
            }
        }
        debug_assert_eq!(w, offsets[v as usize + 1]);
    }
    let graph = Graph::from_parts(offsets, neighbors, edge_ids, new_m);

    // Dirty region: every node reachable from a touched endpoint in the
    // *patched* graph. A new component either contains a touched node (then
    // every fragment of a split and every side of a merge does too — each
    // boundary edge of the delta has an endpoint in it) or is bit-identical
    // to its old self.
    let mut dirty_nodes = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    for v in 0..n {
        if touched[v] && !dirty_nodes[v] {
            dirty_nodes[v] = true;
            stack.push(v as NodeId);
            while let Some(x) = stack.pop() {
                for &y in graph.neighbors(x) {
                    if !dirty_nodes[y as usize] {
                        dirty_nodes[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
        }
    }

    Ok(AppliedDelta {
        graph,
        dirty_nodes,
        inserted,
        deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::{Components, GraphBuilder};

    fn ins(edges: &[(NodeId, NodeId)]) -> EdgeDelta {
        EdgeDelta {
            insert: edges.to_vec(),
            delete: vec![],
        }
    }

    fn del(edges: &[(NodeId, NodeId)]) -> EdgeDelta {
        EdgeDelta {
            insert: vec![],
            delete: edges.to_vec(),
        }
    }

    /// Applies `delta` and cross-checks the result against from-scratch
    /// construction of the patched edge list and a connected-component
    /// oracle for the dirty mask.
    fn check(g: &Graph, delta: &EdgeDelta) -> AppliedDelta {
        let applied = apply(g, delta).unwrap();

        // Graph equals a builder rebuild of (old − del + ins).
        let mut b = GraphBuilder::new(g.num_nodes());
        let (ins, del) = delta.normalized(g.num_nodes()).unwrap();
        for (u, v, _) in g.edges() {
            if del.binary_search(&(u, v)).is_err() {
                b.push(u, v);
            }
        }
        for &(u, v) in &ins {
            b.push(u, v);
        }
        let want = b.build().unwrap();
        assert_eq!(applied.graph.num_edges(), want.num_edges());
        for v in g.nodes() {
            assert_eq!(applied.graph.neighbors(v), want.neighbors(v), "node {v}");
            for slot in applied.graph.slot_range(v) {
                assert_eq!(
                    applied.graph.edge_id_at(slot),
                    want.edge_id_at(slot),
                    "slot {slot}"
                );
            }
        }

        // A node is dirty exactly when its component in the patched graph
        // holds an endpoint of an effective insert or delete.
        let effective: Vec<(NodeId, NodeId)> = ins
            .iter()
            .filter(|&&(u, v)| !g.has_edge(u, v))
            .chain(del.iter().filter(|&&(u, v)| g.has_edge(u, v)))
            .copied()
            .collect();
        assert_eq!(applied.inserted + applied.deleted, effective.len());
        let comps = Components::compute(&applied.graph);
        let mut touched = vec![false; comps.count()];
        for &(u, v) in &effective {
            touched[comps.comp_of[u as usize] as usize] = true;
            touched[comps.comp_of[v as usize] as usize] = true;
        }
        for v in g.nodes() {
            assert_eq!(
                applied.dirty_nodes[v as usize], touched[comps.comp_of[v as usize] as usize],
                "dirty mask at node {v}"
            );
        }
        applied
    }

    #[test]
    fn insert_bridge_merges_components() {
        // disconnected_mix: triangle {0,1,2} + edge {3,4} + isolated 5.
        let g = fixtures::disconnected_mix();
        let applied = check(&g, &ins(&[(2, 3)]));
        assert_eq!(applied.inserted, 1);
        assert_eq!(applied.deleted, 0);
        // Both merged components are dirty; node 5 stays clean.
        assert!(applied.dirty_nodes[0] && applied.dirty_nodes[4]);
        assert!(!applied.dirty_nodes[5]);
    }

    #[test]
    fn delete_splits_component() {
        let g = fixtures::two_triangles_bridge();
        let applied = check(&g, &del(&[(2, 3)]));
        assert_eq!(applied.deleted, 1);
        // The whole former component is dirty.
        assert!(applied.dirty_nodes.iter().all(|&d| d));
    }

    #[test]
    fn noop_changes_nothing() {
        let g = fixtures::paper_fig2();
        // Insert an existing edge + delete a missing one: effective no-op.
        let delta = EdgeDelta {
            insert: vec![(0, 1)],
            delete: vec![(0, 9)],
        };
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 9));
        let applied = check(&g, &delta);
        assert_eq!(applied.inserted, 0);
        assert_eq!(applied.deleted, 0);
        assert!(applied.dirty_nodes.iter().all(|&d| !d));
        assert_eq!(applied.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn validation_errors() {
        let g = fixtures::path_graph(4);
        let err = |d: &EdgeDelta| apply(&g, d).unwrap_err();
        assert_eq!(err(&EdgeDelta::default()), DeltaError::Empty);
        assert_eq!(err(&ins(&[(1, 1)])), DeltaError::SelfLoop(1));
        assert_eq!(
            err(&del(&[(0, 7)])),
            DeltaError::EndpointOutOfRange { node: 7, n: 4 }
        );
        assert_eq!(
            err(&EdgeDelta {
                insert: vec![(0, 3)],
                delete: vec![(3, 0)],
            }),
            DeltaError::Conflict(0, 3)
        );
    }

    #[test]
    fn duplicate_and_reversed_edges_canonicalize() {
        let g = fixtures::path_graph(5);
        let applied = check(
            &g,
            &ins(&[(4, 0), (0, 4), (4, 0)]), // one canonical edge (0, 4)
        );
        assert_eq!(applied.inserted, 1);
        assert!(applied.graph.has_edge(0, 4));
    }

    #[test]
    fn mixed_batches_on_fixtures_match_rebuild() {
        for g in [
            fixtures::paper_fig2(),
            fixtures::grid_graph(4, 4),
            fixtures::lollipop_graph(5, 4),
            fixtures::disconnected_mix(),
            fixtures::star_graph(7),
        ] {
            let n = g.num_nodes() as NodeId;
            // A few deterministic mixed batches.
            let present: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
            let d1 = EdgeDelta {
                insert: vec![(0, n - 1)],
                delete: vec![present[0]],
            };
            check(&g, &d1);
            let d2 = EdgeDelta {
                insert: vec![(1, n - 2), (0, n / 2)],
                delete: vec![present[present.len() / 2], *present.last().unwrap()],
            };
            check(&g, &d2);
        }
    }

    #[test]
    fn randomized_batches_match_from_scratch() {
        // Deterministic xorshift so the graph crate needs no RNG dep.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let n = 6 + (next() % 14) as usize;
            let mut b = GraphBuilder::new(n);
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if next() % 100 < 22 {
                        b.push(u, v);
                    }
                }
            }
            let g = b.build().unwrap();
            let present: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
            let mut delta = EdgeDelta::default();
            for _ in 0..1 + next() % 4 {
                let u = (next() % n as u64) as NodeId;
                let v = (next() % n as u64) as NodeId;
                if u != v
                    && delta
                        .delete
                        .iter()
                        .all(|&(a, b)| (a, b) != (u.min(v), u.max(v)))
                {
                    delta.insert.push((u, v));
                }
            }
            for _ in 0..next() % 3 {
                if present.is_empty() {
                    break;
                }
                let e = present[(next() % present.len() as u64) as usize];
                if delta.insert.iter().all(|&(a, b)| (a.min(b), a.max(b)) != e) {
                    delta.delete.push(e);
                }
            }
            if delta.is_empty() {
                continue;
            }
            check(&g, &delta);
            let _ = round;
        }
    }
}
