//! The certified rung: Push-Sum and Push-Sum frequency over
//! machine-checked [`Enclosure`]s, escalating to ℚ only at
//! certification points.
//!
//! The certified backend is the middle rung of a three-rung ladder. All
//! three rungs run the same two dynamics, [`PushSum<M>`](struct@PushSum) and
//! [`PushSumFrequency<M>`], written once over the
//! [`Mass`](crate::push_sum::Mass) numbers:
//!
//! 1. **f64** ([`PushSum`](struct@PushSum), [`PushSumFrequency`]) — fast, no
//!    guarantees;
//! 2. **certified** (`M = Enclosure`, named here) — the same dynamics on
//!    directed-rounding intervals. Every real value *and* every
//!    round-to-nearest f64 trajectory of the algorithm lies inside the
//!    per-agent enclosure (see [`kya_arith::interval`] for the lemma), so
//!    the enclosure both certifies the f64 run and bounds its error, at a
//!    small constant factor over plain f64;
//! 3. **exact ℚ** ([`PushSumExact`](type@crate::push_sum::PushSumExact),
//!    [`PushSumFrequencyExact`](type@crate::push_sum::PushSumFrequencyExact))
//!    — escalated to only when an enclosure cannot decide a pending
//!    comparison (a convergence threshold, an α-safety sign, a
//!    frequency-table tie): the run is replayed on the exact rung,
//!    whose inbox sums normalize once per inbox.
//!
//! A scalar state is the same [`MassPair<M>`](MassPair) on each rung:
//! [`PushSumState`](crate::push_sum::PushSumState) on f64,
//! [`CertifiedPushSumState`] here and
//! [`PushSumExactState`](crate::push_sum::PushSumExactState) on ℚ.

use crate::push_sum::{FrequencyState, MassPair, PushSum, PushSumFrequency};
use kya_arith::Enclosure;
use std::marker::PhantomData;

/// Scalar Push-Sum over [`Enclosure`]s: interval state `(y, z)` and
/// output `y / z` (the whole line when `z` cannot be certified positive).
pub type CertifiedPushSum = PushSum<Enclosure>;

/// Scalar Push-Sum over [`Enclosure`]s.
#[allow(non_upper_case_globals)]
pub const CertifiedPushSum: CertifiedPushSum = PushSum { rung: PhantomData };

/// State of certified Push-Sum.
pub type CertifiedPushSumState = MassPair<Enclosure>;

impl MassPair<Enclosure> {
    /// Unit-weight initial states from the same f64 values the f64
    /// variant starts from (exact point enclosures).
    pub fn averaging(values: &[f64]) -> Vec<CertifiedPushSumState> {
        values
            .iter()
            .map(|&v| MassPair {
                y: Enclosure::point(v),
                z: Enclosure::one(),
            })
            .collect()
    }
}

/// Algorithm 1 over [`Enclosure`] masses: one enclosure per value heard
/// of. A weight enclosure that cannot be certified positive — the
/// frequency-table tie — yields [`Enclosure::ENTIRE`], which no finite
/// f64 escapes but which certifies nothing, forcing escalation.
pub type CertifiedPushSumFrequency = PushSumFrequency<Enclosure>;

/// Algorithm 1 over [`Enclosure`] masses, frequency mode.
#[allow(non_upper_case_globals)]
pub const CertifiedPushSumFrequency: CertifiedPushSumFrequency = PushSumFrequency::new(None);

/// State of [`CertifiedPushSumFrequency`](type@CertifiedPushSumFrequency).
pub type CertifiedFrequencyState = FrequencyState<Enclosure>;

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
        Mass, PushSumExact, PushSumExactState, PushSumFrequencyExact, PushSumState,
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

    /// Frequency mode and leader mode (agent 0 leads): the generic
    /// dynamics gives every rung both.
    #[test]
    fn certified_frequency_encloses_both_runs() {
        fn inits<M: Mass>(vals: &[u64], leaders: Option<usize>) -> Vec<FrequencyState<M>> {
            match leaders {
                None => FrequencyState::initial(vals),
                Some(_) => {
                    let flags: Vec<bool> = (0..vals.len()).map(|i| i == 0).collect();
                    FrequencyState::initial_with_leaders(vals, &flags)
                }
            }
        }
        let values = [2u64, 7, 2, 9, 7, 2, 4];
        for (net, leaders) in nets().iter().flat_map(|g| [(g, None), (g, Some(1))]) {
            let n = net.n();
            let vals = &values[..n];
            let f64_algo = match leaders {
                None => PushSumFrequency::frequency(),
                Some(ell) => PushSumFrequency::with_leaders(ell),
            };
            let mut f64_exec = Execution::new(Isotropic(f64_algo), inits(vals, leaders));
            let mut cert_exec = Execution::new(
                Isotropic(CertifiedPushSumFrequency::new(leaders)),
                inits(vals, leaders),
            );
            let mut exact = Execution::new(
                Isotropic(PushSumFrequencyExact::new(leaders)),
                inits(vals, leaders),
            );
            exact.drive(net, RunConfig::rounds(10));
            f64_exec.drive(net, RunConfig::rounds(10));
            cert_exec.drive(net, RunConfig::rounds(10));
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
