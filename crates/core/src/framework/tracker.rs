//! The per-subscriber half of the adaptive engine: a demand/absorb state
//! machine carrying one (est, ε) estimate through Algorithm 1's schedule —
//! pilot pass, δᵢ allocation, doubling rounds, Bernstein checks, forced
//! `N_max` finish.
//!
//! A tracker announces the next block it needs as a [`Demand`] (a
//! `(stream, first_chunk, count)` coordinate into the counter-based RNG
//! streams of [`saphyra_stats::stream`]), absorbs the resulting
//! accumulators, and advances its own stopping rule. [`super::estimate`]
//! steps every subscriber's tracker against one shared pass per round; a
//! tracker whose ε target is met detaches (demands nothing) while stricter
//! subscribers keep the stream going. Because a demand is a pure
//! coordinate, a tracker sees the same draws whoever else is in the pass.
//!
//! The accumulator kind is generic ([`BlockAcc`]): `u64` hit counts for 0-1
//! losses (Bernoulli variance shortcut) and [`super::LossAcc`] moment pairs
//! for fractional losses.

use saphyra_stats::{
    allocate_deltas, bernoulli_sample_variance, doubling_rounds, empirical_bernstein_epsilon,
    stream, C_VC,
};

/// Stream id of the pilot (variance) pass.
pub(crate) const STREAM_PILOT: u64 = 0;
/// Stream id of the main estimation pass (all doubling rounds).
pub(crate) const STREAM_MAIN: u64 = 1;

/// One block of samples a tracker wants drawn: `count` samples starting at
/// chunk `first_chunk` of logical stream `stream`. Pure coordinates into
/// the counter-based RNG space — *who* draws the block cannot change its
/// contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Logical stream id: 0 for the pilot pass, 1 for the main pass.
    pub stream: u64,
    /// First chunk of the block.
    pub first_chunk: u64,
    /// Samples to draw.
    pub count: usize,
}

/// A per-hypothesis block accumulator: what one sample reports, how it is
/// recorded, how blocks merge, and the statistics the stopping rule needs.
/// Everything that differs between 0-1 and fractional losses lives here,
/// so the round loop, the samplers and the executors are written once.
pub trait BlockAcc: Clone + Send {
    /// One sample's report for one hypothesis with a nonzero loss: its
    /// index for 0-1 losses, `(index, loss)` for fractional losses.
    type Hit: Copy + Send;
    /// The additive identity.
    fn zero() -> Self;
    /// Adds another block's contribution.
    fn add(&mut self, other: &Self);
    /// Records one hit into its hypothesis' accumulator.
    fn record(accs: &mut [Self], hit: Self::Hit);
    /// Unbiased sample variance over `n` observations.
    fn variance(&self, n: usize) -> f64;
    /// Mean loss over `n` observations.
    fn mean(&self, n: usize) -> f64;
    /// How many contiguous fold groups the local pass splits a demand of a
    /// `k`-hypothesis subscriber into (see [`super::unit_ranges`]).
    fn fold_groups(k: usize) -> usize;
}

impl BlockAcc for u64 {
    type Hit = u32;
    fn zero() -> Self {
        0
    }
    fn add(&mut self, other: &Self) {
        *self += *other;
    }
    #[inline]
    fn record(accs: &mut [Self], hit: u32) {
        accs[hit as usize] += 1;
    }
    fn variance(&self, n: usize) -> f64 {
        bernoulli_sample_variance(*self, n as u64)
    }
    fn mean(&self, n: usize) -> f64 {
        *self as f64 / n as f64
    }
    /// Integer counts merge exactly under any grouping: one per worker.
    fn fold_groups(_k: usize) -> usize {
        stream::int_groups()
    }
}

/// Telemetry and estimates of one subscriber's sampling phase.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// `ℓ̃ᵢ`: mean loss of each hypothesis over the drawn samples.
    pub estimates: Vec<f64>,
    /// Samples drawn in the main phase.
    pub samples_used: usize,
    /// Samples drawn in the (independent) pilot phase.
    pub pilot_samples: usize,
    /// Doubling rounds executed (Bernstein checks performed).
    pub rounds_run: usize,
    /// Initial budget `N₀ = c/ε′² ln(1/δ)` (line 6).
    pub n0: usize,
    /// Worst-case budget `N_max` (line 7).
    pub nmax: usize,
    /// Whether the Bernstein check stopped sampling before `N_max`.
    pub converged_early: bool,
    /// The largest per-hypothesis Bernstein deviation at the stop point
    /// (`≤ ε′` when `converged_early`; otherwise the worst-case bound
    /// guarantees ε′ at `N_max` regardless).
    pub achieved_eps: f64,
}

impl AdaptiveOutcome {
    /// Outcome of a skipped sampling phase (empty approximate subspace).
    pub fn empty() -> Self {
        AdaptiveOutcome {
            estimates: Vec::new(),
            samples_used: 0,
            pilot_samples: 0,
            rounds_run: 0,
            n0: 0,
            nmax: 0,
            converged_early: true,
            achieved_eps: 0.0,
        }
    }
}

/// Pilot budget `N₀ = c/ε′² ln(1/δ)` (Algorithm 1 line 6), floored at 16
/// so the variance estimates see a few observations even when ε′ is large.
pub(crate) fn pilot_budget(eps_prime: f64, delta: f64) -> usize {
    ((C_VC / (eps_prime * eps_prime) * (1.0 / delta).ln()).ceil() as usize).max(16)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Non-adaptive ablation: one `N_max` block, no checks.
    Fixed,
    /// Pilot variance pass (line 9).
    Pilot,
    /// Doubling rounds with Bernstein checks (lines 10-18).
    Main,
    /// Bernstein budget exhausted: one final block straight to `N_max`.
    Forced,
    /// Detached — the estimate is settled.
    Done,
}

/// One subscriber's estimation state: the demand/absorb form of
/// Algorithm 1's loop. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub(crate) struct Tracker<T: BlockAcc> {
    eps_prime: f64,
    delta: f64,
    adaptive: bool,
    k: usize,
    n0: usize,
    nmax: usize,
    rounds: usize,
    phase: Phase,
    totals: Vec<T>,
    deltas: Vec<f64>,
    n: usize,
    next_chunk: u64,
    target: usize,
    rounds_run: usize,
    converged_early: bool,
    achieved_eps: f64,
}

impl<T: BlockAcc> Tracker<T> {
    /// A tracker for `k` hypotheses at per-hypothesis accuracy `eps_prime`
    /// and failure probability `delta`. `nmax` is the problem's worst-case
    /// budget (floored here at the pilot budget); `adaptive = false` skips
    /// the pilot and the Bernstein checks and draws exactly `N_max` (the
    /// fixed-size VC-bound estimator).
    pub(crate) fn new(k: usize, eps_prime: f64, delta: f64, adaptive: bool, nmax: usize) -> Self {
        assert!(eps_prime > 0.0, "eps must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let n0 = pilot_budget(eps_prime, delta);
        let nmax = nmax.max(n0);
        let phase = if k == 0 {
            Phase::Done
        } else if !adaptive {
            Phase::Fixed
        } else {
            Phase::Pilot
        };
        Tracker {
            eps_prime,
            delta,
            adaptive,
            k,
            n0,
            nmax,
            rounds: doubling_rounds(n0, nmax),
            phase,
            totals: vec![T::zero(); k],
            deltas: Vec::new(),
            n: 0,
            next_chunk: 0,
            target: 0,
            rounds_run: 0,
            converged_early: false,
            achieved_eps: 0.0,
        }
    }

    /// The next block this subscriber needs, or `None` once detached.
    pub(crate) fn demand(&self) -> Option<Demand> {
        let (stream, first_chunk, count) = match self.phase {
            Phase::Fixed => (STREAM_MAIN, 0, self.nmax),
            Phase::Pilot => (STREAM_PILOT, 0, self.n0),
            Phase::Main => (STREAM_MAIN, self.next_chunk, self.target - self.n),
            Phase::Forced => (STREAM_MAIN, self.next_chunk, self.nmax - self.n),
            Phase::Done => return None,
        };
        Some(Demand {
            stream,
            first_chunk,
            count,
        })
    }

    /// Feeds back the accumulators of the block last demanded and advances
    /// the stopping rule.
    pub(crate) fn absorb(&mut self, block: &[T]) {
        debug_assert_eq!(block.len(), self.k);
        match self.phase {
            Phase::Fixed => {
                self.totals = block.to_vec();
                self.n = self.nmax;
                self.achieved_eps = self.eps_prime;
                self.phase = Phase::Done;
            }
            Phase::Pilot => {
                // The pilot block informs the δᵢ allocation (Eq. 13) and is
                // then discarded — main-phase estimates stay independent.
                let pilot_vars: Vec<f64> = block.iter().map(|a| a.variance(self.n0)).collect();
                self.deltas = allocate_deltas(
                    &pilot_vars,
                    self.nmax,
                    self.eps_prime,
                    self.delta / self.rounds as f64,
                );
                self.target = self.n0.min(self.nmax);
                self.phase = Phase::Main;
            }
            Phase::Main => {
                let block_len = self.target - self.n;
                self.next_chunk += stream::num_chunks(block_len, stream::CHUNK) as u64;
                for (t, b) in self.totals.iter_mut().zip(block) {
                    t.add(b);
                }
                self.n = self.target;
                self.rounds_run += 1;
                let mut max_eps = 0.0f64;
                for (t, &d) in self.totals.iter().zip(&self.deltas) {
                    let e =
                        empirical_bernstein_epsilon(self.n.max(2), d.min(0.5), t.variance(self.n));
                    if e > max_eps {
                        max_eps = e;
                    }
                }
                self.achieved_eps = max_eps;
                if max_eps <= self.eps_prime {
                    self.converged_early = true;
                    self.phase = Phase::Done;
                } else if self.target >= self.nmax {
                    // Forced stop: Lemma 4 guarantees ε′ at N_max.
                    self.phase = Phase::Done;
                } else if self.rounds_run >= self.rounds {
                    // Bernstein budget exhausted: run straight to N_max.
                    self.phase = Phase::Forced;
                } else {
                    self.target = (2 * self.target).min(self.nmax);
                }
            }
            Phase::Forced => {
                for (t, b) in self.totals.iter_mut().zip(block) {
                    t.add(b);
                }
                self.n = self.nmax;
                self.phase = Phase::Done;
            }
            Phase::Done => unreachable!("absorb on a detached tracker"),
        }
    }

    /// Finalizes the outcome once the tracker is done (a tracker that
    /// never sampled — `k = 0` — yields the empty outcome).
    pub(crate) fn finish(self) -> AdaptiveOutcome {
        debug_assert!(self.phase == Phase::Done);
        if self.k == 0 {
            return AdaptiveOutcome::empty();
        }
        AdaptiveOutcome {
            estimates: self.totals.iter().map(|t| t.mean(self.n)).collect(),
            samples_used: self.n,
            pilot_samples: if self.adaptive { self.n0 } else { 0 },
            rounds_run: self.rounds_run,
            n0: self.n0,
            nmax: self.nmax,
            converged_early: self.converged_early,
            achieved_eps: self.achieved_eps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_phase_is_one_block() {
        let mut t = Tracker::<u64>::new(2, 0.1, 0.1, false, 500);
        let d = t.demand().unwrap();
        assert_eq!(
            d,
            Demand {
                stream: STREAM_MAIN,
                first_chunk: 0,
                count: 500
            }
        );
        t.absorb(&[50, 10]);
        assert!(t.demand().is_none());
        let out = t.finish();
        assert_eq!(out.samples_used, 500);
        assert_eq!(out.pilot_samples, 0);
        assert!(!out.converged_early);
        assert_eq!(out.estimates, vec![0.1, 0.02]);
    }

    #[test]
    fn pilot_then_main_demands_advance_the_cursor() {
        let n0 = pilot_budget(0.05, 0.1);
        let mut t = Tracker::<u64>::new(1, 0.05, 0.1, true, 8 * n0);
        let d = t.demand().unwrap();
        assert_eq!(d.stream, STREAM_PILOT);
        assert_eq!(d.count, n0);
        // High pilot variance: deltas allocated, main phase starts at n0.
        t.absorb(&[(n0 / 2) as u64]);
        let d = t.demand().unwrap();
        assert_eq!(d.stream, STREAM_MAIN);
        assert_eq!(d.first_chunk, 0);
        assert_eq!(d.count, n0);
        // A noisy block keeps it going: the next demand starts past the
        // chunks just drawn and doubles the total.
        t.absorb(&[(n0 / 2) as u64]);
        if let Some(d2) = t.demand() {
            assert_eq!(d2.first_chunk, stream::num_chunks(n0, stream::CHUNK) as u64);
            assert_eq!(d2.count, n0); // target doubled: block = 2n0 - n0
        }
    }

    #[test]
    fn zero_hypotheses_detaches_immediately() {
        let t = Tracker::<u64>::new(0, 0.1, 0.1, true, 16);
        assert!(t.demand().is_none());
        assert_eq!(t.finish().samples_used, 0);
    }

    #[test]
    fn zero_variance_converges_at_first_check() {
        let n0 = pilot_budget(0.05, 0.1);
        let mut t = Tracker::<u64>::new(3, 0.05, 0.1, true, 10 * n0);
        t.absorb(&[0, 0, 0]); // pilot: zero variance
        t.absorb(&[0, 0, 0]); // first main block: Bernstein check passes
        assert!(t.demand().is_none());
        let out = t.finish();
        assert!(out.converged_early);
        assert_eq!(out.samples_used, n0);
        assert_eq!(out.rounds_run, 1);
    }
}
