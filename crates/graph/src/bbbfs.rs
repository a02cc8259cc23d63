//! Balanced bidirectional BFS (Borassi–Natale, KADABRA).
//!
//! For a node pair `(s, t)` the sampler must (a) compute the number of
//! shortest paths `σ_st` and (b) draw one of them uniformly. A unidirectional
//! BFS costs Θ(m) per sample; the bidirectional variant expands the cheaper
//! frontier of two simultaneous searches and, per Lemma 21 of the paper
//! (Theorem 4 of KADABRA), touches only `n^{1/2+o(1)}` edges on
//! power-law-ish graphs. This module is shared by the KADABRA baseline
//! (whole-graph sampling) and SaPHyRa_bc's `Gen_bc` (sampling restricted to
//! one biconnected component via an edge filter).
//!
//! Correctness sketch: each side settles complete BFS levels. When the sides
//! have jointly covered the true distance `D` (`Ls + Lt ≥ D`), every
//! shortest path crosses the *cut level* `L = max(0, D − Lt)` at exactly one
//! node `u` with `ds(u) = L`, `dt(u) = D − L`, both finalized, so
//! `σ_st = Σ_u σs(u) · σt(u)` and a uniform path is a σ-weighted meeting
//! node plus two independent σ-weighted backward walks.
//!
//! Layout: each side keeps one 16-byte record per node (σ, generation
//! stamp, distance), so a visit touches a single record; a query and a
//! path walk each fetch the CSR slices once.
//!
//! Determinism: the side to expand is the one whose frontier has the
//! smaller sum of *global* degrees (ties go forward), even under an edge
//! filter. Served paths depend on that rule, not only on the distance and
//! `σ_st` it computes: it fixes the cut level, and with it the order of the
//! meeting-node and predecessor walks that consume the RNG. Levels settle
//! in full and in slot order. Changing any of these moves every sampled
//! path.

use crate::csr::{Graph, NodeId};

const UNSET_DIST: u32 = u32::MAX;

/// One node's state on one side: path count, generation stamp and
/// distance, packed into 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    sigma: f64,
    stamp: u32,
    dist: u32,
}

/// The CSR slot range of `v` in `offsets`.
#[inline]
fn slots_of(offsets: &[u64], v: NodeId) -> std::ops::Range<usize> {
    offsets[v as usize] as usize..offsets[v as usize + 1] as usize
}

/// One direction of the bidirectional search, stamp-cleared like
/// [`crate::bfs::BfsWorkspace`].
#[derive(Debug)]
struct Side {
    nodes: Vec<NodeState>,
    generation: u32,
    order: Vec<NodeId>,
    level_starts: Vec<usize>,
    /// Sum of degrees of the current frontier (balance heuristic).
    frontier_degree: u64,
    /// Deepest fully-expanded level.
    depth: u32,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            nodes: vec![NodeState::default(); n],
            generation: 0,
            order: Vec::new(),
            level_starts: Vec::new(),
            frontier_degree: 0,
            depth: 0,
        }
    }

    fn reset(&mut self, root: NodeId, offsets: &[u64]) {
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.nodes.iter_mut().for_each(|rec| rec.stamp = 0);
            1
        });
        self.order.clear();
        self.level_starts.clear();
        self.depth = 0;
        self.nodes[root as usize] = NodeState {
            sigma: 1.0,
            stamp: self.generation,
            dist: 0,
        };
        self.order.push(root);
        self.frontier_degree = offsets[root as usize + 1] - offsets[root as usize];
        self.level_starts.push(0);
        self.level_starts.push(1);
    }

    /// `v`'s distance, or [`UNSET_DIST`] when this search has not settled
    /// it.
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        let rec = &self.nodes[v as usize];
        if rec.stamp == self.generation {
            rec.dist
        } else {
            UNSET_DIST
        }
    }

    #[inline]
    fn sigma(&self, v: NodeId) -> f64 {
        self.nodes[v as usize].sigma
    }

    fn frontier_range(&self) -> std::ops::Range<usize> {
        let k = self.level_starts.len();
        self.level_starts[k - 2]..self.level_starts[k - 1]
    }

    fn level_range(&self, d: u32) -> std::ops::Range<usize> {
        self.level_starts[d as usize]..self.level_starts[d as usize + 1]
    }

    /// Expands one full level, reporting every newly settled node to
    /// `on_settle`. Returns false if the frontier was empty (side exhausted).
    fn expand<F, S>(
        &mut self,
        (offsets, neighbors): (&[u64], &[NodeId]),
        keep_edge: &mut F,
        mut on_settle: S,
    ) -> bool
    where
        F: FnMut(usize) -> bool,
        S: FnMut(NodeId),
    {
        let frontier = self.frontier_range();
        if frontier.is_empty() {
            return false;
        }
        let d = self.depth;
        let generation = self.generation;
        self.frontier_degree = 0;
        for i in frontier {
            let v = self.order[i];
            let sv = self.nodes[v as usize].sigma;
            let range = slots_of(offsets, v);
            for (slot, &w) in range.clone().zip(&neighbors[range]) {
                if !keep_edge(slot) {
                    continue;
                }
                let rec = &mut self.nodes[w as usize];
                if rec.stamp != generation {
                    *rec = NodeState {
                        sigma: sv,
                        stamp: generation,
                        dist: d + 1,
                    };
                    self.order.push(w);
                    self.frontier_degree += offsets[w as usize + 1] - offsets[w as usize];
                    on_settle(w);
                } else if rec.dist == d + 1 {
                    rec.sigma += sv;
                }
            }
        }
        self.depth = d + 1;
        self.level_starts.push(self.order.len());
        true
    }
}

/// Outcome of a bidirectional pair query: distance, path count and the cut
/// level used for meeting-node enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairResult {
    /// Shortest-path distance `d(s, t)`.
    pub dist: u32,
    /// Number of shortest `s`–`t` paths (`f64`; exact for small counts).
    pub sigma_st: f64,
    cut_level: u32,
}

/// Reusable bidirectional-BFS workspace.
#[derive(Debug)]
pub struct BiBfs {
    fwd: Side,
    bwd: Side,
    s: NodeId,
    t: NodeId,
    /// Edges touched by the last query (for the Lemma 21 ablation bench).
    pub edges_touched: u64,
}

impl BiBfs {
    /// Allocates a workspace for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        BiBfs {
            fwd: Side::new(n),
            bwd: Side::new(n),
            s: 0,
            t: 0,
            edges_touched: 0,
        }
    }

    /// Computes distance and `σ_st`, or `None` when `s` and `t` are
    /// disconnected (within the filtered edge set). `keep_edge` filters CSR
    /// slots as in [`crate::bfs::BfsWorkspace::run_counting`].
    pub fn query<F>(
        &mut self,
        g: &Graph,
        s: NodeId,
        t: NodeId,
        mut keep_edge: F,
    ) -> Option<PairResult>
    where
        F: FnMut(usize) -> bool,
    {
        let (offsets, neighbors, _) = g.csr_arrays();
        self.s = s;
        self.t = t;
        self.fwd.reset(s, offsets);
        self.bwd.reset(t, offsets);
        self.edges_touched = 0;
        if s == t {
            return Some(PairResult {
                dist: 0,
                sigma_st: 1.0,
                cut_level: 0,
            });
        }

        let mut best = UNSET_DIST;
        loop {
            if best != UNSET_DIST && self.fwd.depth + self.bwd.depth >= best {
                break;
            }
            // Balance: expand the side whose frontier is cheaper.
            let expand_fwd = self.fwd.frontier_degree <= self.bwd.frontier_degree;
            let (active, passive) = if expand_fwd {
                (&mut self.fwd, &self.bwd)
            } else {
                (&mut self.bwd, &self.fwd)
            };
            let mut touched = 0u64;
            let new_depth = active.depth + 1;
            let progressed = active.expand(
                (offsets, neighbors),
                &mut |slot| {
                    touched += 1;
                    keep_edge(slot)
                },
                |w| {
                    let dw = passive.dist(w);
                    if dw != UNSET_DIST && new_depth + dw < best {
                        best = new_depth + dw;
                    }
                },
            );
            self.edges_touched += touched;
            if !progressed {
                return None; // a side exhausted: disconnected
            }
        }

        let dist = best;
        let cut_level = dist.saturating_sub(self.bwd.depth).min(self.fwd.depth);
        let back_level = dist - cut_level;
        let mut sigma_st = 0.0;
        for &u in &self.fwd.order[self.fwd.level_range(cut_level)] {
            if self.bwd.dist(u) == back_level {
                sigma_st += self.fwd.sigma(u) * self.bwd.sigma(u);
            }
        }
        debug_assert!(sigma_st > 0.0);
        Some(PairResult {
            dist,
            sigma_st,
            cut_level,
        })
    }

    /// Samples one uniformly random shortest path for the pair of the last
    /// successful [`BiBfs::query`] (the same `keep_edge` must be supplied).
    /// Returns the node sequence `s ..= t`.
    pub fn sample_path<R, F>(
        &self,
        g: &Graph,
        res: PairResult,
        rng: &mut R,
        keep_edge: F,
    ) -> Vec<NodeId>
    where
        R: rand::Rng + ?Sized,
        F: FnMut(usize) -> bool,
    {
        let mut path = Vec::new();
        self.sample_path_into(g, res, rng, keep_edge, &mut path);
        path
    }

    /// Allocation-free variant of [`BiBfs::sample_path`]: fills `path`
    /// (cleared first) — the samplers call this millions of times.
    pub fn sample_path_into<R, F>(
        &self,
        g: &Graph,
        res: PairResult,
        rng: &mut R,
        mut keep_edge: F,
        path: &mut Vec<NodeId>,
    ) where
        R: rand::Rng + ?Sized,
        F: FnMut(usize) -> bool,
    {
        path.clear();
        if res.dist == 0 {
            path.push(self.s);
            return;
        }
        let (offsets, neighbors, _) = g.csr_arrays();
        let csr = (offsets, neighbors);
        let back_level = res.dist - res.cut_level;
        // Meeting node ∝ σs(u)·σt(u).
        let mut x = rng.gen::<f64>() * res.sigma_st;
        let mut meet = NodeId::MAX;
        for &u in &self.fwd.order[self.fwd.level_range(res.cut_level)] {
            if self.bwd.dist(u) == back_level {
                meet = u;
                x -= self.fwd.sigma(u) * self.bwd.sigma(u);
                if x <= 0.0 {
                    break;
                }
            }
        }
        debug_assert!(meet != NodeId::MAX);

        path.resize(res.dist as usize + 1, 0);
        path[res.cut_level as usize] = meet;
        // Backward σ-weighted walk to s through the forward side.
        let mut v = meet;
        for d in (0..res.cut_level).rev() {
            v = weighted_pred(&self.fwd, csr, v, d, rng, &mut keep_edge);
            path[d as usize] = v;
        }
        // Forward walk to t through the backward side (dt decreasing).
        let mut v = meet;
        for d in (0..back_level).rev() {
            v = weighted_pred(&self.bwd, csr, v, d, rng, &mut keep_edge);
            path[(res.dist - d) as usize] = v;
        }
        debug_assert_eq!(path[0], self.s);
        debug_assert_eq!(path[res.dist as usize], self.t);
    }
}

#[inline]
fn weighted_pred<R, F>(
    side: &Side,
    (offsets, neighbors): (&[u64], &[NodeId]),
    v: NodeId,
    d: u32,
    rng: &mut R,
    keep_edge: &mut F,
) -> NodeId
where
    R: rand::Rng + ?Sized,
    F: FnMut(usize) -> bool,
{
    let mut x = rng.gen::<f64>() * side.sigma(v);
    let mut last = NodeId::MAX;
    let range = slots_of(offsets, v);
    for (slot, &u) in range.clone().zip(&neighbors[range]) {
        if !keep_edge(slot) {
            continue;
        }
        let rec = &side.nodes[u as usize];
        if rec.stamp == side.generation && rec.dist == d {
            last = u;
            x -= rec.sigma;
            if x <= 0.0 {
                return u;
            }
        }
    }
    debug_assert!(
        last != NodeId::MAX,
        "missing predecessor in bidirectional DAG"
    );
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsWorkspace;
    use crate::fixtures;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks dist/σ against a unidirectional reference for all pairs.
    fn check_against_reference(g: &Graph) {
        let n = g.num_nodes();
        let mut bb = BiBfs::new(n);
        let mut ws = BfsWorkspace::new(n);
        for s in g.nodes() {
            ws.run_counting(g, s, None, |_| true);
            for t in g.nodes() {
                let res = bb.query(g, s, t, |_| true);
                if !ws.visited(t) {
                    assert!(res.is_none(), "{s}->{t} should be disconnected");
                } else {
                    let r = res.expect("connected");
                    assert_eq!(r.dist, ws.dist(t), "dist {s}->{t}");
                    assert!(
                        (r.sigma_st - ws.sigma(t)).abs() < 1e-9,
                        "sigma {s}->{t}: {} vs {}",
                        r.sigma_st,
                        ws.sigma(t)
                    );
                }
            }
        }
    }

    #[test]
    fn matches_unidirectional_on_fixtures() {
        for g in [
            fixtures::path_graph(7),
            fixtures::cycle_graph(8),
            fixtures::grid_graph(5, 4),
            fixtures::paper_fig2(),
            fixtures::lollipop_graph(5, 4),
            fixtures::disconnected_mix(),
            fixtures::binary_tree(4),
        ] {
            check_against_reference(&g);
        }
    }

    #[test]
    fn matches_unidirectional_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let n = 30;
            let mut b = crate::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.12 {
                        b.push(u, v);
                    }
                }
            }
            check_against_reference(&b.build().unwrap());
        }
    }

    #[test]
    fn self_pair() {
        let g = fixtures::path_graph(3);
        let mut bb = BiBfs::new(3);
        let r = bb.query(&g, 1, 1, |_| true).unwrap();
        assert_eq!(r.dist, 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(bb.sample_path(&g, r, &mut rng, |_| true), vec![1]);
    }

    #[test]
    fn sampled_paths_are_valid() {
        let g = fixtures::grid_graph(6, 5);
        let mut bb = BiBfs::new(30);
        let mut rng = StdRng::seed_from_u64(5);
        for (s, t) in [(0u32, 29u32), (3, 27), (10, 19)] {
            let r = bb.query(&g, s, t, |_| true).unwrap();
            for _ in 0..30 {
                let p = bb.sample_path(&g, r, &mut rng, |_| true);
                assert_eq!(p.len(), r.dist as usize + 1);
                assert_eq!(p[0], s);
                assert_eq!(*p.last().unwrap(), t);
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn sampled_paths_are_uniform_small() {
        // 2x3 grid, corner to corner: 3 distinct shortest paths.
        let g = fixtures::grid_graph(3, 2);
        let mut bb = BiBfs::new(6);
        let r = bb.query(&g, 0, 5, |_| true).unwrap();
        assert_eq!(r.dist, 3);
        assert_eq!(r.sigma_st, 3.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = std::collections::BTreeMap::new();
        let trials = 6000;
        for _ in 0..trials {
            let p = bb.sample_path(&g, r, &mut rng, |_| true);
            *counts.entry(p).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        for &c in counts.values() {
            let frac = c as f64 / trials as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.04, "frac={frac}");
        }
    }

    #[test]
    fn respects_edge_filter() {
        // Two triangles joined by a bridge; filtering out the bridge
        // disconnects the halves.
        let g = fixtures::two_triangles_bridge();
        let bridge = g.edge_id(2, 3).unwrap();
        let mut bb = BiBfs::new(6);
        let res = bb.query(&g, 0, 4, |slot| g.edge_id_at(slot) != bridge);
        assert!(res.is_none());
        let res = bb.query(&g, 0, 2, |slot| g.edge_id_at(slot) != bridge);
        assert_eq!(res.unwrap().dist, 1);
    }

    #[test]
    fn bidirectional_touches_fewer_edges_than_full_bfs_on_grid() {
        let g = fixtures::grid_graph(40, 40);
        let mut bb = BiBfs::new(1600);
        // Adjacent pair in the middle: bidirectional should stay local.
        let s = 20 * 40 + 20;
        let r = bb.query(&g, s, s + 1, |_| true).unwrap();
        assert_eq!(r.dist, 1);
        assert!(
            bb.edges_touched < (2 * g.num_edges() as u64) / 4,
            "touched {} of {}",
            bb.edges_touched,
            2 * g.num_edges()
        );
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;
    use crate::bfs::BfsWorkspace;
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Enumerates every shortest s-t path by DFS over the BFS DAG.
    fn enumerate_paths(g: &Graph, ws: &BfsWorkspace, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut stack = vec![t];
        fn recurse(
            g: &Graph,
            ws: &BfsWorkspace,
            s: NodeId,
            stack: &mut Vec<NodeId>,
            out: &mut Vec<Vec<NodeId>>,
        ) {
            let v = *stack.last().unwrap();
            if v == s {
                let mut p: Vec<NodeId> = stack.clone();
                p.reverse();
                out.push(p);
                return;
            }
            let d = ws.dist(v);
            for &u in g.neighbors(v) {
                if ws.visited(u) && ws.dist(u) + 1 == d {
                    stack.push(u);
                    recurse(g, ws, s, stack, out);
                    stack.pop();
                }
            }
        }
        recurse(g, ws, s, &mut stack, &mut out);
        out
    }

    #[test]
    fn sampled_paths_are_uniform_against_enumeration() {
        let mut grng = StdRng::seed_from_u64(77);
        let mut rng = StdRng::seed_from_u64(78);
        for round in 0..5 {
            let n = 12 + round;
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if grng.gen::<f64>() < 0.25 {
                        b.push(u, v);
                    }
                }
            }
            let g = b.build().unwrap();
            let mut ws = BfsWorkspace::new(n);
            let mut bb = BiBfs::new(n);
            // Pick the pair with the most shortest paths for a sharp test.
            let (mut best, mut best_pair) = (0.0f64, None);
            for s in g.nodes() {
                ws.run_counting(&g, s, None, |_| true);
                for t in g.nodes() {
                    if t != s && ws.visited(t) && ws.sigma(t) > best && ws.dist(t) >= 2 {
                        best = ws.sigma(t);
                        best_pair = Some((s, t));
                    }
                }
            }
            let Some((s, t)) = best_pair else { continue };
            ws.run_counting(&g, s, None, |_| true);
            let all_paths = enumerate_paths(&g, &ws, s, t);
            assert_eq!(all_paths.len() as f64, ws.sigma(t));
            let res = bb.query(&g, s, t, |_| true).unwrap();
            assert_eq!(res.sigma_st, all_paths.len() as f64);

            let trials = 2000 * all_paths.len();
            let mut counts: std::collections::HashMap<Vec<NodeId>, usize> =
                std::collections::HashMap::new();
            let mut path = Vec::new();
            for _ in 0..trials {
                bb.sample_path_into(&g, res, &mut rng, |_| true, &mut path);
                *counts.entry(path.clone()).or_insert(0) += 1;
            }
            let expect = trials as f64 / all_paths.len() as f64;
            for p in &all_paths {
                let got = *counts.get(p).unwrap_or(&0) as f64;
                assert!(
                    (got - expect).abs() < 5.0 * expect.sqrt() + 0.1 * expect,
                    "round {round}: path {p:?} got {got} expect {expect}"
                );
            }
            // No invalid paths were produced.
            assert_eq!(counts.len(), all_paths.len());
        }
    }
}
