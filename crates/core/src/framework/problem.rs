//! The hypothesis-ranking problem abstraction (paper §II-B) and the batch
//! sampling contract behind the parallel `Gen(·)` engine.
//!
//! A problem owns the approximate sample space `X̃`, its distribution `D̃`,
//! and a hypothesis class `H = {h₁ … h_k}` with losses in `[0, 1]`.
//! Because a single sample touches few hypotheses (a shortest path contains
//! few target nodes), losses are reported *sparsely*: one sample yields the
//! hypotheses with a nonzero loss, as [`BlockAcc::Hit`]s — bare indices for
//! 0-1 losses (`u64` hit counts), `(index, loss)` pairs for fractional
//! losses ([`super::LossAcc`] moments).
//!
//! Sampling is split in two roles so the estimator can fan out across
//! cores:
//!
//! * [`HrProblem`] is the *shared, immutable* description — graph
//!   references, prefix-sum tables, index maps, distance tables. It must be
//!   [`Sync`]: every worker reads it concurrently through `&self`.
//! * [`HrSampler`] is a *per-worker* drawing head created by
//!   [`HrProblem::sampler`]. It owns all mutable scratch (BFS buffers, path
//!   stacks) so a draw never allocates and never contends. Workers receive their randomness as counter-based chunk
//!   RNGs ([`saphyra_stats::stream`]), which makes estimates bit-identical
//!   for every thread count.

use rand::RngCore;

use super::tracker::BlockAcc;

/// Result of the `Exact(·)` oracle (Algorithm 1, line 3): the probability
/// mass `λ̂` of the exact subspace and the per-hypothesis exact risks `ℓ̂ᵢ`
/// (Eq. 9), both under the *full* distribution `D`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactPart {
    /// `λ̂ = Pr_{x∼D}[x ∈ X̂]`.
    pub lambda_hat: f64,
    /// `ℓ̂ᵢ` for each hypothesis.
    pub exact_risks: Vec<f64>,
}

impl ExactPart {
    /// An empty exact subspace (`λ̂ = 0`): degrades SaPHyRa to direct
    /// estimation on `D`.
    pub fn trivial(k: usize) -> Self {
        ExactPart {
            lambda_hat: 0.0,
            exact_risks: vec![0.0; k],
        }
    }
}

/// A per-worker drawing head for one [`HrProblem`].
///
/// A sampler owns every mutable buffer one draw needs, so
/// [`HrSampler::sample_into`] performs no allocation on the hot path and
/// samplers on different threads never share mutable state. Samplers are
/// `Send` (they may be created on one thread and driven on another) but
/// need not be `Sync` — each worker drives exactly one.
pub trait HrSampler<A: BlockAcc>: Send {
    /// Draws one sample `x ∼ D̃` (the `Gen(·)` oracle) and appends one hit
    /// per hypothesis with a nonzero loss on `x`. `hits` arrives empty.
    fn sample_into(&mut self, rng: &mut dyn RngCore, hits: &mut Vec<A::Hit>);
}

/// A hypothesis-ranking problem over the approximate subspace.
///
/// Implementors: [`crate::bc::BcApproxProblem`] (random intra-component
/// shortest paths) and [`crate::kpath::KPathApproxProblem`] (random walks)
/// with 0-1 losses; [`crate::closeness::HarmonicApproxProblem`] (uniform
/// sources, their distances read from the targets' BFS rows) with
/// fractional losses.
///
/// The problem itself is the shared read-only half of the contract (hence
/// the `Sync` bound); all drawing state lives in the [`HrSampler`] values
/// it hands out.
pub trait HrProblem<A: BlockAcc>: Sync {
    /// Number of hypotheses `k`.
    fn num_hypotheses(&self) -> usize;

    /// Creates a drawing head with its own scratch buffers. The executors
    /// call this once per worker, then draw whole chunks through it.
    fn sampler(&self) -> Box<dyn HrSampler<A> + '_>;

    /// The worst-case budget `N_max` (Algorithm 1 line 7) after which every
    /// hypothesis is an (ε′, δ)-estimate without any Bernstein check. For
    /// 0-1 losses this is Lemma 4's VC bound with the tightest VC bound the
    /// problem can prove (Lemma 5 / Corollary 22; `⌊log₂ k⌋ + 1` is always
    /// sound because π_max ≤ k). Real-valued classes have no VC dimension;
    /// they fall back to Hoeffding plus a union bound over the `k`
    /// hypotheses.
    fn max_samples(&self, eps_prime: f64, delta: f64) -> usize;
}

/// A problem whose `Gen(·)` draw is **independent of the hypothesis set**,
/// split into a draw half and a score half so one drawn sample can be
/// scored by many subscribers.
///
/// The k-path walk is the canonical case: the walk (start node, length,
/// neighbor steps) consumes RNG but never looks at the targets; only the
/// cheap hit scan does. Problems like personalized-ISP betweenness (whose
/// rejection step consults the target set mid-draw) or harmonic closeness
/// (whose sources are uniform over `V ∖ A`) cannot implement this.
///
/// # Contract
///
/// For every implementor, `{ draw_artifact(rng, buf); score_artifact(&buf,
/// hits) }` must consume exactly the RNG values — and push exactly the hit
/// indices — that [`HrSampler::sample_into`] would on the same `rng`.
/// And because the batched engine lets problems score *each other's*
/// artifacts, `draw_artifact` must behave identically for every problem
/// instance over the same shared sample space (same graph, same walk
/// parameters): it may read the hypothesis set for nothing.
pub trait SharedDraw: HrProblem<u64> {
    /// Draws one sample's target-independent artifact (e.g. the walk's
    /// node sequence) into `buf` (cleared first).
    fn draw_artifact(&self, rng: &mut dyn RngCore, buf: &mut Vec<u32>);

    /// Scores a drawn artifact against *this* problem's hypotheses,
    /// appending hit indices to `hits` (which arrives empty).
    fn score_artifact(&self, artifact: &[u32], hits: &mut Vec<u32>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_exact_part() {
        let e = ExactPart::trivial(3);
        assert_eq!(e.lambda_hat, 0.0);
        assert_eq!(e.exact_risks, vec![0.0; 3]);
    }
}
