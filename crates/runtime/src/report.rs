//! The unified per-cell convergence report.
//!
//! Every experiment in this repository — fault-free convergence runs,
//! fault-injection recovery runs, and the bench sweeps — ultimately
//! measures the same thing: a per-round worst-case distance trace to a
//! target, summarized as "when did the outputs enter (and stay in) the
//! ε-ball, and what happened along the way". [`CellReport`] is that
//! summary, sealed by the one measuring loop behind
//! [`Execution::drive`](crate::Execution::drive) (faulted or not) and
//! [`FlatExecution::drive`](crate::FlatExecution::drive), and consumed
//! verbatim by the `kya_harness` result sink.
//!
//! For a fault-free run the fault-specific fields are simply zero /
//! default: `last_fault_round == 0`, `events == FaultEvents::default()`,
//! and `converged_at` measures from the start of the run.

use crate::config::DistanceFn;
use crate::faults::FaultEvents;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The measured outcome of one experiment cell: a run of an algorithm on
/// a network against a convergence target.
///
/// This type unifies the former `StabilizationReport` (discrete-metric
/// stabilization), `RecoveryReport` (fault injection), and the ad-hoc
/// per-binary record structs of the bench drivers. Field semantics:
///
/// - `converged_at` is the first round at the end of which every output
///   was within `eps` of the target *and stayed there* for the remainder
///   of the run (the stay-in-ball criterion of §2.3). For faulted runs
///   only rounds strictly after `last_fault_round` qualify, so it doubles
///   as the recovery round.
/// - `convergence_rounds` is `converged_at` minus the last fault round
///   (or minus the measurement start, for fault-free runs): the rounds
///   the algorithm actually needed once the adversary went quiet.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Rounds executed while measuring.
    pub rounds_run: u64,
    /// First round at the end of which every output was within `eps` of
    /// the target and stayed there for the rest of the run; `None` if the
    /// outputs never (re-)entered the ε-ball.
    pub converged_at: Option<u64>,
    /// `converged_at - max(last_fault_round, start)`: rounds needed to
    /// converge after the final fault (or from the measurement start when
    /// the run was fault-free).
    pub convergence_rounds: Option<u64>,
    /// Distance from the target at the final round.
    pub final_distance: f64,
    /// Last round at which a fault was actually injected (0 = the run
    /// was fault-free).
    pub last_fault_round: u64,
    /// Worst-case distance from the target over the fault window
    /// (`rounds <= last_fault_round`); 0 for a fault-free run.
    pub max_divergence_during_faults: f64,
    /// Deficit of the caller-supplied conserved quantity at the final
    /// round (e.g. Push-Sum mass), if an invariant was supplied.
    pub mass_deficit: Option<f64>,
    /// First round whose measured distance was non-finite — an output
    /// went NaN/inf (e.g. Push-Sum's `y / z` after `z` underflowed to
    /// 0.0). `None` for a numerically sane run. A diverged run never
    /// converges.
    pub diverged_at: Option<u64>,
    /// Per-round worst-case distance from the target (round `start+1`
    /// first).
    pub distances: Vec<f64>,
    /// Fault counters for the measured window (all zero for fault-free
    /// runs).
    pub events: FaultEvents,
}

impl CellReport {
    /// Summarize a distance trace into a report.
    ///
    /// `start` is the round count *before* the measured window began (so
    /// `distances[i]` is the worst-case distance at the end of round
    /// `start + i + 1`). `last_fault_round` is an absolute round number
    /// (0 = fault-free); only rounds strictly after it can qualify as
    /// converged.
    pub fn from_trace(
        start: u64,
        distances: Vec<f64>,
        eps: f64,
        last_fault_round: u64,
        events: FaultEvents,
        mass_deficit: Option<f64>,
    ) -> CellReport {
        let rounds_run = distances.len() as u64;
        // Worst divergence over rounds start+1 ..= last_fault_round.
        let fault_window = if last_fault_round > start {
            (last_fault_round - start) as usize
        } else {
            0
        };
        let max_divergence_during_faults = distances[..fault_window.min(distances.len())]
            .iter()
            .fold(0.0, |a: f64, &b| a.max(b));
        // First round strictly after the last fault whose distance is
        // <= eps and stays <= eps until the end of the trace.
        let mut converged_idx = None;
        for (i, &d) in distances.iter().enumerate().skip(fault_window) {
            if d <= eps {
                converged_idx.get_or_insert(i);
            } else {
                converged_idx = None;
            }
        }
        let converged_at = converged_idx.map(|i| start + i as u64 + 1);
        let convergence_rounds = converged_at.map(|r| r - last_fault_round.max(start));
        // A non-finite distance is a numerical divergence, never
        // convergence (NaN fails `d <= eps` above, so the stay-in-ball
        // scan already rejects it — this dates the failure).
        let diverged_at = distances
            .iter()
            .position(|d| !d.is_finite())
            .map(|i| start + i as u64 + 1);
        CellReport {
            rounds_run,
            converged_at,
            convergence_rounds,
            final_distance: distances.last().copied().unwrap_or(0.0),
            last_fault_round,
            max_divergence_during_faults,
            mass_deficit,
            diverged_at,
            distances,
            events,
        }
    }

    /// The same report with the per-round distance trace dropped — what
    /// sweeps serialize, where a full trace per cell would dwarf the
    /// summary.
    pub fn without_trace(mut self) -> CellReport {
        self.distances.clear();
        self
    }

    /// Whether the outputs converged (entered the ε-ball and stayed).
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

/// The measuring half of a `drive` call: the round budget and the
/// optional ε-judgement, as read from a [`RunConfig`](crate::RunConfig)
/// or a [`FlatRunConfig`](crate::FlatRunConfig).
pub(crate) struct Measure<'a, O> {
    pub(crate) rounds: u64,
    pub(crate) dist: Option<DistanceFn<'a, O>>,
    pub(crate) eps: f64,
    pub(crate) confirm: Option<u64>,
}

/// The fault-side fields a sealed report carries; all zero for a
/// fault-free, churn-free run.
#[derive(Default)]
pub(crate) struct Seal {
    pub(crate) last_fault_round: u64,
    pub(crate) events: FaultEvents,
    pub(crate) mass: Option<f64>,
}

impl<O> Measure<'_, O> {
    /// The one measuring loop. Execute up to `rounds` rounds of `exec`
    /// through `step` (one round per call), from round `start`. When
    /// measuring, record the distance of `outputs(exec)` after every
    /// round; end early once the distance has stayed within `eps` for
    /// `confirm` rounds, or at once when it goes non-finite (no later
    /// round can converge). Then seal the trace into a report with the
    /// fault-side fields `seal(exec)` returns. Unmeasured runs report
    /// only `rounds_run`.
    pub(crate) fn run<E>(
        self,
        exec: &mut E,
        start: u64,
        mut step: impl FnMut(&mut E),
        outputs: impl Fn(&E) -> Vec<O>,
        seal: impl FnOnce(&E) -> Seal,
    ) -> CellReport {
        let Measure {
            rounds,
            dist,
            eps,
            confirm,
        } = self;
        let mut distances = Vec::new();
        let mut entered: Option<u64> = None;
        let mut executed: u64 = 0;
        while executed < rounds {
            step(exec);
            executed += 1;
            if let Some(dist) = &dist {
                let d = dist(&outputs(exec));
                distances.push(d);
                if !d.is_finite() {
                    break;
                }
                if let Some(confirm) = confirm {
                    let round = start + executed;
                    if d <= eps {
                        let at = *entered.get_or_insert(round);
                        if round - at >= confirm {
                            break;
                        }
                    } else {
                        entered = None;
                    }
                }
            }
        }
        let Seal {
            last_fault_round,
            events,
            mass,
        } = seal(exec);
        let mut report =
            CellReport::from_trace(start, distances, eps, last_fault_round, events, mass);
        if dist.is_none() {
            report.rounds_run = executed;
        }
        report
    }
}

impl fmt::Display for CellReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let after = if self.last_fault_round > 0 {
            write!(
                f,
                "faults until round {} (max divergence {:.3e}); ",
                self.last_fault_round, self.max_divergence_during_faults
            )?;
            "last fault"
        } else {
            "start"
        };
        match self.converged_at {
            Some(r) => write!(
                f,
                "converged at round {r} ({} rounds after {after})",
                self.convergence_rounds.unwrap_or(0)
            )?,
            None => write!(f, "not converged after {} rounds", self.rounds_run)?,
        }
        write!(f, "; final distance {:.3e}", self.final_distance)?;
        if let Some(d) = self.mass_deficit {
            write!(f, "; mass deficit {d:.3e}")?;
        }
        if let Some(r) = self.diverged_at {
            write!(f, "; DIVERGED (non-finite output) at round {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_trace_converges_from_start() {
        let report = CellReport::from_trace(
            0,
            vec![4.0, 2.0, 0.5, 0.9, 0.1, 0.05],
            1.0,
            0,
            FaultEvents::default(),
            None,
        );
        // Enters the ball at index 2 (round 3) and stays.
        assert_eq!(report.converged_at, Some(3));
        assert_eq!(report.convergence_rounds, Some(3));
        assert_eq!(report.rounds_run, 6);
        assert_eq!(report.final_distance, 0.05);
        assert_eq!(report.max_divergence_during_faults, 0.0);
        assert!(report.converged());
    }

    #[test]
    fn stay_in_ball_resets_on_exit() {
        let report = CellReport::from_trace(
            0,
            vec![4.0, 0.5, 2.0, 0.5, 0.1],
            1.0,
            0,
            FaultEvents::default(),
            None,
        );
        // Enters at round 2, exits at round 3, re-enters at round 4.
        assert_eq!(report.converged_at, Some(4));
    }

    #[test]
    fn faulted_trace_measures_from_last_fault() {
        let report = CellReport::from_trace(
            0,
            vec![0.0, 3.0, 2.0, 1.0, 0.0, 0.0],
            0.5,
            3,
            FaultEvents {
                dropped: 7,
                ..FaultEvents::default()
            },
            Some(0.25),
        );
        // Round 1's 0.0 is inside the fault window and must not count.
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.convergence_rounds, Some(2));
        assert_eq!(report.max_divergence_during_faults, 3.0);
        assert_eq!(report.mass_deficit, Some(0.25));
    }

    #[test]
    fn nonzero_start_offsets_rounds() {
        let report =
            CellReport::from_trace(10, vec![2.0, 0.0], 0.1, 0, FaultEvents::default(), None);
        assert_eq!(report.converged_at, Some(12));
        assert_eq!(report.convergence_rounds, Some(2));
    }

    #[test]
    fn divergent_trace_reports_none() {
        let report =
            CellReport::from_trace(0, vec![1.0, 2.0, 3.0], 0.5, 0, FaultEvents::default(), None);
        assert_eq!(report.converged_at, None);
        assert_eq!(report.convergence_rounds, None);
        assert!(!report.converged());
        assert_eq!(report.final_distance, 3.0);
    }

    #[test]
    fn non_finite_trace_reports_divergence() {
        let report = CellReport::from_trace(
            0,
            vec![1.0, f64::INFINITY, f64::NAN],
            0.5,
            0,
            FaultEvents::default(),
            None,
        );
        assert_eq!(report.diverged_at, Some(2));
        assert!(!report.converged());
        // A sane run reports no divergence.
        let sane = CellReport::from_trace(0, vec![1.0, 0.1], 0.5, 0, FaultEvents::default(), None);
        assert_eq!(sane.diverged_at, None);
    }

    #[test]
    fn without_trace_drops_only_distances() {
        let full =
            CellReport::from_trace(0, vec![1.0, 0.0], 0.0, 1, FaultEvents::default(), Some(0.5));
        let lean = full.clone().without_trace();
        assert!(lean.distances.is_empty());
        assert_eq!(lean.converged_at, full.converged_at);
        assert_eq!(lean.mass_deficit, full.mass_deficit);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = CellReport::from_trace(
            2,
            vec![3.5, 0.25, 0.0],
            0.5,
            3,
            FaultEvents {
                dropped: 4,
                duplicated: 1,
                bounced_to_crashed: 2,
                crashed_rounds: 3,
                last_fault_round: 3,
            },
            Some(1.5),
        );
        let json = serde::to_json_string(&report);
        let back: CellReport = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn display_mentions_convergence() {
        let report =
            CellReport::from_trace(0, vec![1.0, 0.0, 0.0], 0.0, 1, FaultEvents::default(), None);
        let s = report.to_string();
        assert!(s.contains("faults until round 1"), "{s}");
        assert!(s.contains("converged at round 2"), "{s}");
    }
}
