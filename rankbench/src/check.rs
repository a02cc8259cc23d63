//! Checks every distinct `/rank` body against exact centralities and
//! scores the ranking quality.
//!
//! Every target set holds the graph's two anchors (see
//! [`graph::ANCHORS`]), whose exact values exceed ε for every measure, so
//! the ε check fails a service that zeroes scores or inflates them twofold.
//! A mean ρ floor fails one whose scores stay within ε but no longer order
//! the targets.

use crate::graph::{self, Input};
use crate::json::Json;
use crate::workload::{Bodies, Measure, RankReq, DELTA, KHOPS};

/// Lowest acceptable mean Spearman ρ. The service scores about 0.9 here;
/// scores that rank the anchors first but the other 14 targets at random
/// score 0.33 in expectation.
const RHO_FLOOR: f64 = 0.5;

/// Exact values: betweenness for every node, harmonic and k-path for the
/// anchors and the target pool (NaN elsewhere).
pub struct Oracle {
    bc: Vec<f64>,
    harmonic: Vec<f64>,
    kpath: Vec<f64>,
}

impl Oracle {
    pub fn compute(input: &Input) -> Oracle {
        let g = &input.graph;
        let mut harmonic = vec![f64::NAN; g.n()];
        let mut kpath = vec![f64::NAN; g.n()];
        for &v in input.anchors.iter().chain(&input.pool) {
            harmonic[v as usize] = graph::harmonic(g, v);
            kpath[v as usize] = graph::kpath(g, v, KHOPS);
        }
        Oracle {
            bc: input.bc.clone(),
            harmonic,
            kpath,
        }
    }

    fn exact(&self, m: Measure, v: u32) -> f64 {
        let values = match m {
            Measure::Bc => &self.bc,
            Measure::KPath => &self.kpath,
            Measure::Harmonic => &self.harmonic,
        };
        values[v as usize]
    }
}

#[derive(Debug, Default)]
pub struct Verdict {
    /// Distinct bodies checked.
    pub checked: usize,
    /// Bodies that do not parse, echo the wrong targets, or carry scores
    /// and ranks that disagree.
    pub malformed: usize,
    /// Bodies with some target off its exact value by more than ε.
    pub violations: usize,
    rho_sum: f64,
}

impl Verdict {
    /// Mean Spearman ρ between the served ranking and the exact one (the
    /// paper's Eq. 1).
    pub fn rho(&self) -> f64 {
        self.rho_sum / self.checked.max(1) as f64
    }

    /// Every body well formed, the ranking above [`RHO_FLOOR`], and the
    /// (ε, δ) guarantee kept: it allows each body to miss with probability
    /// δ, so accept up to three standard deviations above that expectation.
    pub fn holds(&self) -> bool {
        let n = self.checked as f64;
        let allowed = DELTA * n + 3.0 * (n * DELTA * (1.0 - DELTA)).sqrt() + 1.0;
        self.checked > 0
            && self.malformed == 0
            && self.rho() >= RHO_FLOOR
            && self.violations as f64 <= allowed
    }
}

pub fn evaluate(bodies: &Bodies, oracle: &Oracle) -> Verdict {
    let mut v = Verdict::default();
    for (req, body) in bodies.map.values() {
        match check_one(req, body, oracle) {
            Some((rho, err)) => {
                v.checked += 1;
                v.rho_sum += rho;
                v.violations += usize::from(err > 1.0);
            }
            None => v.malformed += 1,
        }
    }
    v
}

/// `(ρ, max error / ε)` of one body, or `None` when it is malformed.
fn check_one(req: &RankReq, body: &str, oracle: &Oracle) -> Option<(f64, f64)> {
    let json = Json::parse(body).ok()?;
    let k = req.targets.len();
    let echoed = json.nums("targets")?;
    if echoed.len() != k
        || echoed
            .iter()
            .zip(&req.targets)
            .any(|(&a, &b)| a != f64::from(b))
    {
        return None;
    }
    let scores = json.nums("scores")?;
    let ranks = json.nums("ranks")?;
    if scores.len() != k || ranks.len() != k || scores.iter().any(|s| !(0.0..=1.0).contains(s)) {
        return None;
    }
    let mut sorted = ranks.clone();
    sorted.sort_by(f64::total_cmp);
    if sorted.iter().enumerate().any(|(i, &r)| r != (i + 1) as f64) {
        return None;
    }
    for i in 0..k {
        for j in 0..k {
            if scores[i] > scores[j] && ranks[i] > ranks[j] {
                return None;
            }
        }
    }

    let exact: Vec<f64> = req
        .targets
        .iter()
        .map(|&t| oracle.exact(req.measure, t))
        .collect();
    let err = scores
        .iter()
        .zip(&exact)
        .map(|(s, x)| (s - x).abs())
        .fold(0.0, f64::max)
        / req.measure.eps();
    // Exact ranks break ties by position, as the service does.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| exact[b].total_cmp(&exact[a]).then(a.cmp(&b)));
    let mut d2 = 0.0;
    for (r, &i) in order.iter().enumerate() {
        let d = ranks[i] - (r + 1) as f64;
        d2 += d * d;
    }
    let rho = if k > 1 {
        1.0 - 6.0 * d2 / (k as f64 * (k * k - 1) as f64)
    } else {
        1.0
    };
    Some((rho, err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::workload::{GRAPH_STREAM, TARGETS};

    /// A body answering `req` with `scores`, ranked as the service ranks.
    fn body(req: &RankReq, scores: &[f64]) -> String {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        let mut ranks = vec![0; scores.len()];
        for (r, &i) in order.iter().enumerate() {
            ranks[i] = r + 1;
        }
        let list = |v: Vec<String>| v.join(",");
        format!(
            r#"{{"targets":[{}],"scores":[{}],"ranks":[{}]}}"#,
            list(req.targets.iter().map(u32::to_string).collect()),
            list(scores.iter().map(f64::to_string).collect()),
            list(ranks.iter().map(usize::to_string).collect())
        )
    }

    #[test]
    fn zeroed_or_doubled_scores_miss_eps_on_the_anchors() {
        let input = graph::generate(&mut Rng::stream(1, GRAPH_STREAM));
        let oracle = Oracle::compute(&input);
        let mut targets = input.anchors.clone();
        targets.extend(&input.pool[..TARGETS - targets.len()]);
        for measure in [Measure::Bc, Measure::KPath, Measure::Harmonic] {
            let req = RankReq {
                measure,
                targets: targets.clone(),
                seed: 1,
            };
            let exact: Vec<f64> = targets.iter().map(|&t| oracle.exact(measure, t)).collect();
            let (rho, err) = check_one(&req, &body(&req, &exact), &oracle).unwrap();
            assert!(rho == 1.0 && err == 0.0, "{measure:?}: exact scores");
            for wrong in [
                vec![0.0; exact.len()],
                exact.iter().map(|x| 2.0 * x).collect(),
            ] {
                let (_, err) = check_one(&req, &body(&req, &wrong), &oracle).unwrap();
                assert!(err > 1.0, "{measure:?}: {wrong:?} within eps");
            }
        }
    }
}
