//! Ground-truth oracle: exact parallel Brandes (the role the Cray XC40
//! played in the paper's evaluation, §V-A).

use saphyra_graph::brandes;
use saphyra_graph::Graph;

/// Exact betweenness with `threads` workers (0 = all available cores).
pub fn exact_betweenness(g: &Graph, threads: usize) -> Vec<f64> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    brandes::betweenness_exact_parallel(g, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saphyra_graph::fixtures;

    #[test]
    fn parallel_default_matches_serial() {
        let g = fixtures::grid_graph(7, 6);
        let a = exact_betweenness(&g, 0);
        let b = brandes::betweenness_exact(&g);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
