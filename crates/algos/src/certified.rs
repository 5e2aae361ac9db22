//! Certified variants of Push-Sum and Push-Sum frequency: run on
//! machine-checked [`Enclosure`]s, escalate to ℚ only at certification
//! points.
//!
//! The certified backend is the middle rung of a three-rung ladder:
//!
//! 1. **f64** ([`PushSum`](crate::push_sum::PushSum),
//!    [`PushSumFrequency`](crate::push_sum::PushSumFrequency)) — fast, no
//!    guarantees;
//! 2. **certified** (this module) — the same dynamics on directed-rounding
//!    intervals. Every real value *and* every round-to-nearest f64
//!    trajectory of the algorithm lies inside the per-agent enclosure
//!    (see [`kya_arith::interval`] for the lemma), so the enclosure both
//!    certifies the f64 run and bounds its error, at a small constant
//!    factor over plain f64;
//! 3. **exact ℚ** ([`PushSumExact`](crate::push_sum::PushSumExact),
//!    [`PushSumFrequencyExact`](crate::push_sum::PushSumFrequencyExact))
//!    — escalated to only when an enclosure cannot decide a pending
//!    comparison (a convergence threshold, an α-safety sign, a
//!    frequency-table tie): the run is replayed on the exact algorithm
//!    itself, whose inbox sums normalize once per inbox.

use kya_arith::{Certainty, Enclosure};
use kya_runtime::IsotropicAlgorithm;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Certified scalar Push-Sum
// ---------------------------------------------------------------------

/// Scalar Push-Sum over [`Enclosure`]s: identical dynamics to the f64
/// and exact variants, with interval state `(y, z)` and output `y / z`
/// (the whole line when `z` cannot be certified away from zero).
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifiedPushSum;

/// State of certified Push-Sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CertifiedPushSumState {
    /// Value mass enclosure.
    pub y: Enclosure,
    /// Weight mass enclosure (positive at initialization).
    pub z: Enclosure,
}

impl CertifiedPushSumState {
    /// Unit-weight initial states from the same f64 values the f64
    /// variant starts from (exact point enclosures).
    pub fn averaging(values: &[f64]) -> Vec<CertifiedPushSumState> {
        values
            .iter()
            .map(|&v| CertifiedPushSumState {
                y: Enclosure::point(v),
                z: Enclosure::one(),
            })
            .collect()
    }
}

impl IsotropicAlgorithm for CertifiedPushSum {
    type State = CertifiedPushSumState;
    type Msg = (Enclosure, Enclosure);
    type Output = Enclosure;

    fn message(&self, state: &CertifiedPushSumState, outdegree: usize) -> Self::Msg {
        let d = outdegree as u64;
        (state.y.div_u64(d), state.z.div_u64(d))
    }

    fn transition(
        &self,
        _state: &CertifiedPushSumState,
        inbox: &[Self::Msg],
    ) -> CertifiedPushSumState {
        let y = inbox.iter().map(|&(ys, _)| ys).sum();
        let z = inbox.iter().map(|&(_, zs)| zs).sum();
        CertifiedPushSumState { y, z }
    }

    fn output(&self, state: &CertifiedPushSumState) -> Enclosure {
        state.y / state.z
    }
}

// ---------------------------------------------------------------------
// Certified frequency Push-Sum (Algorithm 1)
// ---------------------------------------------------------------------

/// Algorithm 1 over [`Enclosure`] masses (frequency mode): per-value
/// interval Push-Sum instances. The output carries one enclosure per
/// value heard of; a weight enclosure that cannot be certified positive
/// — the frequency-table tie — yields [`Enclosure::ENTIRE`], which no
/// finite f64 escapes but which certifies nothing, forcing escalation.
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifiedPushSumFrequency;

/// Per-value enclosure mass pair.
pub type CertifiedMass = (Enclosure, Enclosure);

/// State of [`CertifiedPushSumFrequency`].
#[derive(Clone, Debug, PartialEq)]
pub struct CertifiedFrequencyState {
    /// Per-value `(y, z)` mass enclosures.
    pub masses: BTreeMap<u64, CertifiedMass>,
}

impl CertifiedFrequencyState {
    /// Initial states: each agent starts its own value's instance at
    /// the exact point `(1, 1)`.
    pub fn initial(values: &[u64]) -> Vec<CertifiedFrequencyState> {
        values
            .iter()
            .map(|&v| {
                let mut masses = BTreeMap::new();
                masses.insert(v, (Enclosure::one(), Enclosure::one()));
                CertifiedFrequencyState { masses }
            })
            .collect()
    }
}

impl IsotropicAlgorithm for CertifiedPushSumFrequency {
    type State = CertifiedFrequencyState;
    type Msg = BTreeMap<u64, CertifiedMass>;
    type Output = BTreeMap<u64, Enclosure>;

    fn message(&self, state: &CertifiedFrequencyState, outdegree: usize) -> Self::Msg {
        let d = outdegree as u64;
        state
            .masses
            .iter()
            .map(|(&v, &(y, z))| (v, (y.div_u64(d), z.div_u64(d))))
            .collect()
    }

    fn transition(
        &self,
        state: &CertifiedFrequencyState,
        inbox: &[Self::Msg],
    ) -> CertifiedFrequencyState {
        let mut next: BTreeMap<u64, CertifiedMass> = BTreeMap::new();
        for msg in inbox {
            for (&v, &(ys, zs)) in msg {
                let e = next
                    .entry(v)
                    .or_insert((Enclosure::zero(), Enclosure::zero()));
                e.0 = e.0 + ys;
                e.1 = e.1 + zs;
            }
        }
        for (v, mass) in next.iter_mut() {
            if !state.masses.contains_key(v) {
                mass.1 = mass.1 + Enclosure::one();
            }
        }
        CertifiedFrequencyState { masses: next }
    }

    fn output(&self, state: &CertifiedFrequencyState) -> Self::Output {
        state
            .masses
            .iter()
            .map(|(&v, &(y, z))| {
                let x = match z.sign_positive() {
                    Certainty::Certain(true) => y / z,
                    // The tie: z straddles zero (or is certainly
                    // non-positive, which exact replay will refute).
                    _ => Enclosure::ENTIRE,
                };
                (v, x)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Certification points
// ---------------------------------------------------------------------

/// How many certifications a certified run attempted and how many had to
/// escalate to exact arithmetic. The escalation *rate* is the cost model
/// of the certified backend: ℚ work is paid `escalations` times, not
/// once per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscalationStats {
    /// Comparisons the enclosures were asked to decide.
    pub certifications: u64,
    /// Comparisons the enclosures could not decide (escalated to ℚ).
    pub escalations: u64,
}

impl EscalationStats {
    /// Record one certification attempt; `decided = false` escalates.
    pub fn record(&mut self, decided: bool) {
        self.certifications += 1;
        if !decided {
            self.escalations += 1;
        }
    }

    /// Escalations per certification (0 when none were attempted).
    pub fn rate(&self) -> f64 {
        if self.certifications == 0 {
            0.0
        } else {
            self.escalations as f64 / self.certifications as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_sum::{
        ExactFrequencyState, FrequencyState, PushSum, PushSumExact, PushSumExactState,
        PushSumFrequency, PushSumFrequencyExact, PushSumState,
    };
    use kya_arith::BigRational;
    use kya_graph::{generators, DynamicGraph, StaticGraph};
    use kya_runtime::{Execution, Isotropic, RunConfig};

    fn nets() -> Vec<StaticGraph> {
        vec![
            StaticGraph::new(generators::bidirectional_ring(6)),
            StaticGraph::new(generators::complete(5)),
            StaticGraph::new(generators::random_strongly_connected(7, 6, 3)),
        ]
    }

    #[test]
    fn certified_push_sum_encloses_f64_and_exact_runs() {
        let values = [3.25, -1.5, 4.125, 0.75, 9.0, 2.5];
        for net in nets() {
            let n = net.n();
            let vals = &values[..n.min(values.len())];
            let vals: Vec<f64> = (0..n).map(|i| vals[i % vals.len()] + i as f64).collect();
            let mut f64_exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&vals));
            let mut cert_exec = Execution::new(
                Isotropic(CertifiedPushSum),
                CertifiedPushSumState::averaging(&vals),
            );
            let exact_init: Vec<PushSumExactState> = vals
                .iter()
                .map(|&v| {
                    PushSumExactState::new(BigRational::from_f64(v).unwrap(), BigRational::one())
                })
                .collect();
            let mut exact_exec = Execution::new(Isotropic(PushSumExact), exact_init);
            for _ in 0..15 {
                f64_exec.drive(&net, RunConfig::rounds(1));
                cert_exec.drive(&net, RunConfig::rounds(1));
                exact_exec.drive(&net, RunConfig::rounds(1));
                let enc = cert_exec.outputs();
                let f = f64_exec.outputs();
                let q = exact_exec.outputs();
                for v in 0..n {
                    assert!(
                        enc[v].contains(f[v]),
                        "f64 output {} escaped enclosure {:?}",
                        f[v],
                        enc[v]
                    );
                    assert!(
                        enc[v].contains_rational(&q[v]),
                        "exact output {:?} escaped enclosure {:?}",
                        q[v],
                        enc[v]
                    );
                }
            }
        }
    }

    #[test]
    fn certified_frequency_encloses_both_runs() {
        let values = [2u64, 7, 2, 9, 7, 2, 4];
        for net in nets() {
            let n = net.n();
            let vals = &values[..n];
            let mut f64_exec = Execution::new(
                Isotropic(PushSumFrequency::frequency()),
                FrequencyState::initial(vals),
            );
            let mut cert_exec = Execution::new(
                Isotropic(CertifiedPushSumFrequency),
                CertifiedFrequencyState::initial(vals),
            );
            let mut exact = Execution::new(
                Isotropic(PushSumFrequencyExact),
                ExactFrequencyState::initial(vals),
            );
            exact.drive(&net, RunConfig::rounds(10));
            f64_exec.drive(&net, RunConfig::rounds(10));
            cert_exec.drive(&net, RunConfig::rounds(10));
            let exact_out = exact.outputs();
            for (agent, (enc_map, f_map)) in cert_exec
                .outputs()
                .iter()
                .zip(f64_exec.outputs().iter())
                .enumerate()
            {
                assert_eq!(
                    enc_map.keys().collect::<Vec<_>>(),
                    f_map.keys().collect::<Vec<_>>(),
                    "key sets diverged at agent {agent}"
                );
                for (v, enc) in enc_map {
                    assert!(enc.contains(f_map[v]), "f64 freq escaped enclosure");
                    if let Some(q) = exact_out[agent].get(v) {
                        assert!(enc.contains_rational(q), "exact freq escaped enclosure");
                    }
                }
            }
        }
    }

    #[test]
    fn escalation_stats_count_and_rate() {
        assert_eq!(EscalationStats::default().rate(), 0.0);
        let mut stats = EscalationStats::default();
        stats.record(true);
        stats.record(false);
        stats.record(true);
        assert_eq!(stats.certifications, 3);
        assert_eq!(stats.escalations, 1);
        assert!((stats.rate() - 1.0 / 3.0).abs() < 1e-15);
    }
}
