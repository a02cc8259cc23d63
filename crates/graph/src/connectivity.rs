//! Connected components.
//!
//! The SaPHyRa distributions (γ, η, out-reach) are defined per connected
//! component; the paper implicitly assumes connectivity and we generalize by
//! computing pair weights within each component: a pair split across two
//! components has no shortest path, so it carries no betweenness mass.

use crate::bfs::BfsWorkspace;
use crate::csr::{Graph, NodeId};

/// Connected-component labelling of a graph.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component id per node.
    pub comp_of: Vec<u32>,
    /// Component sizes indexed by component id.
    pub sizes: Vec<u32>,
}

impl Components {
    /// Labels components via repeated BFS.
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut comp_of = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut ws = BfsWorkspace::new(n);
        for s in g.nodes() {
            if comp_of[s as usize] != u32::MAX {
                continue;
            }
            let id = sizes.len() as u32;
            ws.run(g, s);
            for &v in &ws.order {
                comp_of[v as usize] = id;
            }
            sizes.push(ws.order.len() as u32);
        }
        Components { comp_of, sizes }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the component containing `v`.
    #[inline]
    pub fn size_of(&self, v: NodeId) -> u32 {
        self.sizes[self.comp_of[v as usize] as usize]
    }

    /// Whether `u` and `v` share a component.
    #[inline]
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        self.comp_of[u as usize] == self.comp_of[v as usize]
    }

    /// Id of the largest component.
    pub fn largest(&self) -> u32 {
        (0..self.sizes.len() as u32)
            .max_by_key(|&c| self.sizes[c as usize])
            .expect("at least one component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn single_component() {
        let g = fixtures::grid_graph(3, 3);
        let c = Components::compute(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.sizes[0], 9);
        assert!(c.connected(0, 8));
    }

    #[test]
    fn disconnected_mix_components() {
        let g = fixtures::disconnected_mix();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 3);
        assert!(c.connected(0, 2));
        assert!(c.connected(3, 4));
        assert!(!c.connected(0, 3));
        assert!(!c.connected(4, 5));
        assert_eq!(c.size_of(5), 1);
        let mut sz = c.sizes.clone();
        sz.sort_unstable();
        assert_eq!(sz, vec![1, 2, 3]);
        assert_eq!(c.sizes[c.largest() as usize], 3);
    }
}
