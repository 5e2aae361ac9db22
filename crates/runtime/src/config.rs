//! The run configuration consumed by
//! [`Execution::drive`](crate::Execution::drive), faulted or not, and
//! its flat twin consumed by
//! [`FlatExecution::drive`](crate::FlatExecution::drive).
//!
//! [`RunConfig`] describes a run as orthogonal knobs:
//!
//! - [`rounds`](RunConfig::rounds) — the round budget (the only
//!   mandatory knob, and the constructor);
//! - [`threads`](RunConfig::threads) — shard each round over contiguous
//!   agent ranges (bit-identical to sequential at any count);
//! - [`observer`](RunConfig::observer) — attach an [`Observer`] to the
//!   round/message stream;
//! - [`membership`](RunConfig::membership) — churn: apply the
//!   membership's rejoin policy before every round;
//! - [`measure`](RunConfig::measure) /
//!   [`measure_with`](RunConfig::measure_with) — record a per-round
//!   distance trace and judge ε-convergence post hoc;
//! - [`confirm`](RunConfig::confirm) — stop early after the outputs
//!   stay in the ε-ball this many consecutive rounds;
//! - [`invariant`](RunConfig::invariant) — evaluate a mass functional
//!   over the final states into the report.
//!
//! A fault plan is not a knob of the run but the execution's delivery
//! policy, attached once with
//! [`Execution::faults`](crate::Execution::faults).
//!
//! [`FlatRunConfig`] carries the knobs that apply to the flat engine:
//! the budget, the thread count, the scalar measurement knobs
//! ([`measure`](FlatRunConfig::measure) against a target, and
//! [`confirm`](FlatRunConfig::confirm)), a bandwidth
//! meter, and [`probe`](FlatRunConfig::probe), which attaches a
//! [`CountingProbe`] the way [`observer`](RunConfig::observer) attaches
//! an observer.

use crate::algorithm::Algorithm;
use crate::bandwidth::{BandwidthCap, ByteLedger};
use crate::churn::Membership;
use crate::metric::{EuclideanMetric, Metric};
use crate::probe::CountingProbe;
use crate::telemetry::Observer;

/// A distance functional over the whole output vector, as installed by
/// [`RunConfig::measure`] / [`RunConfig::measure_with`].
pub type DistanceFn<'a, O> = Box<dyn Fn(&[O]) -> f64 + 'a>;

/// A mass functional over the final states ([`RunConfig::invariant`]).
pub type InvariantFn<'a, S> = &'a dyn Fn(&[S]) -> f64;

/// Declarative description of one `drive` call: budget, parallelism,
/// observation, churn, and measurement. See the module docs.
pub struct RunConfig<'a, A: Algorithm> {
    pub(crate) rounds: u64,
    pub(crate) threads: usize,
    pub(crate) observer: Option<&'a mut dyn Observer<A>>,
    #[allow(clippy::type_complexity)] // one borrowed pair, named inline
    pub(crate) membership: Option<(&'a Membership, &'a dyn Fn(usize, &A::State) -> A::State)>,
    pub(crate) dist: Option<DistanceFn<'a, A::Output>>,
    pub(crate) eps: f64,
    pub(crate) confirm: Option<u64>,
    pub(crate) invariant: Option<InvariantFn<'a, A::State>>,
    pub(crate) bandwidth: Option<(BandwidthCap, &'a ByteLedger)>,
}

impl<'a, A: Algorithm> RunConfig<'a, A> {
    /// A plain run of `rounds` rounds: sequential, unobserved,
    /// unmeasured. Every other knob is added with a builder call.
    pub fn rounds(rounds: u64) -> RunConfig<'a, A> {
        RunConfig {
            rounds,
            threads: 1,
            observer: None,
            membership: None,
            dist: None,
            eps: 0.0,
            confirm: None,
            invariant: None,
            bandwidth: None,
        }
    }

    /// Shard each round across `threads` workers over contiguous agent
    /// ranges. Bit-identical to `threads = 1` at any count, observed or
    /// not, with or without a fault plan.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach an [`Observer`] to the run: it sees every round boundary
    /// and every delivered message, and `on_converged` fires once the
    /// report is sealed (measured runs only).
    pub fn observer(mut self, obs: &'a mut dyn Observer<A>) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Run under churn: before every round, apply `membership`'s rejoin
    /// policy — under [`ReinjectPolicy::Reset`](crate::churn::ReinjectPolicy)
    /// each rejoining agent's parked state is replaced by
    /// `reinit(agent, &parked)`. The network is still expected to mask
    /// absent agents (wrap it in [`ChurnMasked`](crate::churn::ChurnMasked)).
    pub fn membership(
        mut self,
        membership: &'a Membership,
        reinit: &'a dyn Fn(usize, &A::State) -> A::State,
    ) -> Self {
        self.membership = Some((membership, reinit));
        self
    }

    /// Measure the worst-case distance of the outputs from `target`
    /// under `metric` each round, and judge convergence at tolerance
    /// `eps` post hoc over the whole trace (§2.3). A non-finite
    /// distance ends the run at once with `diverged_at` set.
    pub fn measure<M: Metric<A::Output>>(
        self,
        metric: &'a M,
        target: &'a A::Output,
        eps: f64,
    ) -> Self {
        self.measure_with(
            move |outputs| crate::metric::max_distance(metric, outputs, target),
            eps,
        )
    }

    /// Like [`RunConfig::measure`], with an arbitrary distance
    /// functional over the output vector (e.g. per-agent targets).
    pub fn measure_with(mut self, dist: impl Fn(&[A::Output]) -> f64 + 'a, eps: f64) -> Self {
        self.dist = Some(Box::new(dist));
        self.eps = eps;
        self
    }

    /// Stop early once the measured distance has stayed within the
    /// ε-ball for `confirm` consecutive rounds (the budget-saving sweep
    /// variant). Only meaningful together with a `measure*` knob.
    pub fn confirm(mut self, confirm: u64) -> Self {
        self.confirm = Some(confirm);
        self
    }

    /// Evaluate `f` over the final states and record it as the report's
    /// `mass_deficit` — the conservation ledger of the fault and churn
    /// oracles.
    pub fn invariant(mut self, f: &'a dyn Fn(&[A::State]) -> f64) -> Self {
        self.invariant = Some(f);
        self
    }

    /// Meter the run under a bandwidth cap: each round, `ledger` is
    /// charged `edges × cap.bits_per_edge()` bits of channel traffic.
    ///
    /// Metering only — the cap is *enforced* structurally by running a
    /// quantized algorithm whose codewords fit the cap (see
    /// `kya_runtime::bandwidth`); truncating messages in the executor
    /// would silently corrupt state. [`BandwidthCap::Unlimited`] makes
    /// this rung a pure observer: the run is bitwise identical to one
    /// without it.
    pub fn bandwidth(mut self, cap: BandwidthCap, ledger: &'a ByteLedger) -> Self {
        self.bandwidth = Some((cap, ledger));
        self
    }
}

/// [`RunConfig`]'s flat twin, consumed by
/// [`FlatExecution::drive`](crate::FlatExecution::drive).
///
/// The flat executor's outputs are always `f64` and it runs on static
/// graphs without observers or churn, so only the measurement knobs
/// carry over: a round budget, a thread count, an optional distance
/// functional with tolerance `eps` (judged post hoc over the whole
/// trace, exactly like the boxed loop), and confirmed early stopping.
/// The flat engine's observation is a [`CountingProbe`], attached with
/// [`FlatRunConfig::probe`].
pub struct FlatRunConfig<'a> {
    pub(crate) rounds: u64,
    pub(crate) threads: usize,
    pub(crate) dist: Option<DistanceFn<'a, f64>>,
    pub(crate) eps: f64,
    pub(crate) confirm: Option<u64>,
    pub(crate) bandwidth: Option<(BandwidthCap, &'a ByteLedger)>,
    pub(crate) probe: Option<&'a mut CountingProbe>,
}

impl<'a> FlatRunConfig<'a> {
    /// A plain run of `rounds` rounds: sequential and unmeasured.
    pub fn rounds(rounds: u64) -> FlatRunConfig<'a> {
        FlatRunConfig {
            rounds,
            threads: 1,
            dist: None,
            eps: 0.0,
            confirm: None,
            bandwidth: None,
            probe: None,
        }
    }

    /// Shard each round across `threads` workers. Bit-identical to
    /// `threads = 1` at any count — probed or not.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Measure the worst-case absolute distance of the outputs from
    /// `target` each round and judge ε-convergence post hoc — the flat
    /// spelling of [`RunConfig::measure`] with the Euclidean metric on
    /// scalars. A non-finite distance ends the run at once with
    /// `diverged_at` set.
    pub fn measure(mut self, target: f64, eps: f64) -> Self {
        self.dist = Some(Box::new(move |outputs: &[f64]| {
            crate::metric::max_distance(&EuclideanMetric, outputs, &target)
        }));
        self.eps = eps;
        self
    }

    /// Stop early once the measured distance has stayed within the
    /// ε-ball for `confirm` consecutive rounds.
    pub fn confirm(mut self, confirm: u64) -> Self {
        self.confirm = Some(confirm);
        self
    }

    /// Meter the run under a bandwidth cap — the flat spelling of
    /// [`RunConfig::bandwidth`]: each round, `ledger` is charged one
    /// `cap.bits_per_edge()` charge per routing-plan slot (= per edge).
    pub fn bandwidth(mut self, cap: BandwidthCap, ledger: &'a ByteLedger) -> Self {
        self.bandwidth = Some((cap, ledger));
        self
    }

    /// Record every executed round into `probe`: the round event a boxed
    /// [`TraceSink`](crate::TraceSink) would record — counters and a
    /// bit-exact digest of strided state samples (the deterministic
    /// stream) — plus the wall-clock phase breakdown in its separate
    /// timing block. The probe only reads; a probed run computes
    /// the same bits as an unprobed one.
    pub fn probe(mut self, probe: &'a mut CountingProbe) -> Self {
        self.probe = Some(probe);
        self
    }
}
