//! The benchmark's input graph and its exact centralities.
//!
//! The graph imitates the social networks of the paper's evaluation: a
//! Barabási–Albert core (power-law degrees, one giant biconnected block),
//! pendant leaves attached preferentially (the true-zero betweenness mass
//! of Flickr-like data, and many trivial blocks for the block-cut
//! decomposition) and a few small islands (disconnected pairs, which
//! harmonic centrality must score as 0). Node ids are shuffled so that id
//! order says nothing about structure.
//!
//! The oracles are independent of the service's code: Brandes for
//! betweenness, one BFS per target for harmonic mass and a first-passage
//! recursion for k-path centrality — each with the normalization the
//! service documents.

use std::collections::{HashSet, VecDeque};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::rng::Rng;

const CORE: usize = 2000;
const ATTACH: usize = 3;
const LEAVES: usize = 800;
const ISLANDS: usize = 20;
const ISLAND_NODES: usize = 6;
/// The core nodes of highest exact betweenness, held by every target set.
/// On seeds 1-300 both exceed every measure's ε (bc ≥ 0.07, k-path ≥
/// 0.012, harmonic ≥ 0.35), so a body whose scores are zeroed or inflated
/// twofold misses ε on them.
pub const ANCHORS: usize = 2;
/// The rest of each target set is drawn from this many other core nodes;
/// exact harmonic and k-path values are computed for these and the anchors
/// only.
const POOL: usize = 512;

/// Undirected graph in CSR form.
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl Graph {
    fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut deg = vec![0usize; n];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut fill = offsets[..n].to_vec();
        let mut adj = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            adj[fill[u as usize]] = v;
            fill[u as usize] += 1;
            adj[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        Graph { offsets, adj }
    }

    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// One run's graph: its edges (as written for the service), its exact
/// betweenness, and the nodes target sets are made of.
pub struct Input {
    pub graph: Graph,
    pub edges: Vec<(u32, u32)>,
    pub bc: Vec<f64>,
    pub anchors: Vec<u32>,
    pub pool: Vec<u32>,
}

pub fn generate(rng: &mut Rng) -> Input {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Node v appears deg(v) times: a uniform pick is preferential.
    let mut ends: Vec<u32> = Vec::new();
    for u in 0..=ATTACH as u32 {
        for v in u + 1..=ATTACH as u32 {
            edges.push((u, v));
            ends.extend([u, v]);
        }
    }
    let mut chosen = Vec::with_capacity(ATTACH);
    for v in ATTACH as u32 + 1..CORE as u32 {
        chosen.clear();
        while chosen.len() < ATTACH {
            let t = ends[rng.below(ends.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push((v, t));
            ends.extend([v, t]);
        }
    }
    let core_ends = ends.len();
    for leaf in CORE..CORE + LEAVES {
        edges.push((leaf as u32, ends[rng.below(core_ends)]));
    }
    let mut next = (CORE + LEAVES) as u32;
    for _ in 0..ISLANDS {
        // A random recursive tree plus one chord: a small component
        // holding one cycle.
        let base = next;
        let mut seen = HashSet::new();
        for i in 1..ISLAND_NODES as u32 {
            let j = base + rng.below(i as usize) as u32;
            seen.insert((j, base + i));
            edges.push((j, base + i));
        }
        let (a, b) = (base, base + ISLAND_NODES as u32 - 1);
        if seen.insert((a, b)) {
            edges.push((a, b));
        }
        next += ISLAND_NODES as u32;
    }
    let n = next as usize;

    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    for e in &mut edges {
        *e = (perm[e.0 as usize], perm[e.1 as usize]);
    }
    let graph = Graph::from_edges(n, &edges);
    let bc = betweenness(&graph);
    let mut core: Vec<u32> = perm[..CORE].to_vec();
    core.sort_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]).then(a.cmp(&b)));
    let anchors = core[..ANCHORS].to_vec();
    let pool = rng.sample(&core[ANCHORS..], POOL);
    Input {
        graph,
        edges,
        bc,
        anchors,
        pool,
    }
}

/// Writes the edge list in the service's format; the `# nodes:` header
/// keeps the node count exact.
pub fn write_edge_list(path: &Path, n: usize, edges: &[(u32, u32)]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# nodes: {n}")?;
    for (u, v) in edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Exact betweenness of every node (Brandes), normalized by `n(n-1)` over
/// ordered pairs.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    let n = g.n();
    let mut bc = vec![0.0; n];
    let mut dist = vec![-1i32; n];
    let mut sigma = vec![0.0f64; n];
    let mut dep = vec![0.0f64; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = VecDeque::with_capacity(n);
    for s in 0..n as u32 {
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                if dist[w as usize] < 0 {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            let coeff = (1.0 + dep[w as usize]) / sigma[w as usize];
            for &v in g.neighbors(w) {
                if dist[v as usize] == dw - 1 {
                    dep[v as usize] += sigma[v as usize] * coeff;
                }
            }
            if w != s {
                bc[w as usize] += dep[w as usize];
            }
        }
        for &v in &order {
            dist[v as usize] = -1;
            sigma[v as usize] = 0.0;
            dep[v as usize] = 0.0;
        }
    }
    let scale = 1.0 / (n as f64 * (n as f64 - 1.0));
    bc.iter_mut().for_each(|x| *x *= scale);
    bc
}

/// Harmonic mass `hc(v) = (1/n) Σ_u 1/d(u, v)` (unreachable and `u = v`
/// contribute 0).
pub fn harmonic(g: &Graph, v: u32) -> f64 {
    let n = g.n();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::from([v]);
    dist[v as usize] = 0;
    let mut sum = 0.0;
    while let Some(x) = queue.pop_front() {
        let d = dist[x as usize];
        if d > 0 {
            sum += 1.0 / d as f64;
        }
        for &y in g.neighbors(x) {
            if dist[y as usize] == u32::MAX {
                dist[y as usize] = d + 1;
                queue.push_back(y);
            }
        }
    }
    sum / n as f64
}

/// k-path centrality: the probability that a walk from a uniform start,
/// of uniform length `l` in `1..=k` with uniform-neighbor steps, visits
/// `v` after its start. `mass[x]` is the probability of standing at `x`
/// after `t` steps without having visited `v`; walks from isolated nodes
/// stay put.
pub fn kpath(g: &Graph, v: u32, k: usize) -> f64 {
    let n = g.n();
    let mut mass = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let (mut within, mut total) = (0.0, 0.0);
    for _ in 0..k {
        next.iter_mut().for_each(|x| *x = 0.0);
        for x in 0..n as u32 {
            let m = mass[x as usize];
            let nb = g.neighbors(x);
            if m == 0.0 {
                continue;
            }
            if nb.is_empty() {
                next[x as usize] += m;
                continue;
            }
            let share = m / nb.len() as f64;
            for &y in nb {
                if y == v {
                    within += share;
                } else {
                    next[y as usize] += share;
                }
            }
        }
        std::mem::swap(&mut mass, &mut next);
        total += within;
    }
    total / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_on_a_path() {
        // 0 - 1 - 2: node 1 is interior to the ordered pairs (0,2), (2,0).
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let bc = betweenness(&g);
        assert!((bc[1] - 2.0 / 6.0).abs() < 1e-12 && bc[0] == 0.0);
        assert!((harmonic(&g, 1) - 2.0 / 3.0).abs() < 1e-12);
        // One step: from 0 or 2 the walk surely reaches 1.
        assert!((kpath(&g, 1, 1) - 2.0 / 3.0).abs() < 1e-12);
    }
}
