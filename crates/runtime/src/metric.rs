//! Output metrics and convergence (§2.3).
//!
//! Computability in the paper is parameterized by a metric `δ` on the
//! output space: with the **discrete** metric, outputs must eventually
//! equal the target exactly (finite-time computation, though agents need
//! not detect it); with the **Euclidean** metric, outputs need only
//! converge asymptotically (the standard notion in distributed control).

use std::fmt;

/// A metric on an output space `X`.
pub trait Metric<X: ?Sized> {
    /// The distance `δ(a, b) >= 0`.
    fn distance(&self, a: &X, b: &X) -> f64;
}

/// The discrete metric `δ0`: `0` if equal, `1` otherwise. The finest
/// topology — convergence in `δ0` means exact stabilization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiscreteMetric;

impl<X: PartialEq> Metric<X> for DiscreteMetric {
    fn distance(&self, a: &X, b: &X) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }
}

/// The Euclidean metric on `f64` and on `Vec<f64>` / `[f64]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EuclideanMetric;

impl Metric<f64> for EuclideanMetric {
    fn distance(&self, a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }
}

impl Metric<[f64]> for EuclideanMetric {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

impl Metric<Vec<f64>> for EuclideanMetric {
    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        Metric::<[f64]>::distance(self, a.as_slice(), b.as_slice())
    }
}

/// The worst-case distance of any output from `target`.
///
/// Returns `0.0` for empty input. A non-finite per-output distance (a
/// NaN or infinite output — e.g. Push-Sum's `y / z` after `z` underflows
/// to 0.0) yields `f64::INFINITY`: `f64::max` silently *drops* NaN
/// (`f64::max(0.0, NaN) == 0.0`), which used to let a diverged agent
/// vanish from the maximum and report spurious convergence.
pub fn max_distance<X, M: Metric<X>>(metric: &M, outputs: &[X], target: &X) -> f64 {
    outputs
        .iter()
        .map(|o| {
            let d = metric.distance(o, target);
            if d.is_finite() {
                d
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// A convergence trace: per-round worst-case distance to the target,
/// useful for plotting rate experiments (Theorem 5.2's `O(n²D log 1/ε)`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceTrace {
    distances: Vec<f64>,
}

impl ConvergenceTrace {
    /// An empty trace.
    pub fn new() -> ConvergenceTrace {
        ConvergenceTrace::default()
    }

    /// Record the worst-case distance of a round.
    pub fn record<X, M: Metric<X>>(&mut self, metric: &M, outputs: &[X], target: &X) {
        self.distances.push(max_distance(metric, outputs, target));
    }

    /// Per-round worst-case distances.
    pub fn distances(&self) -> &[f64] {
        &self.distances
    }

    /// The first recorded round (0-based) whose distance drops to `eps`
    /// *and stays there* for the rest of the trace.
    pub fn rounds_to(&self, eps: f64) -> Option<usize> {
        let mut candidate = None;
        for (i, &d) in self.distances.iter().enumerate() {
            if d <= eps {
                candidate.get_or_insert(i);
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

impl fmt::Display for ConvergenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace[{} rounds]", self.distances.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_metric() {
        let m = DiscreteMetric;
        assert_eq!(m.distance(&1, &1), 0.0);
        assert_eq!(m.distance(&1, &2), 1.0);
    }

    #[test]
    fn euclidean_metric() {
        let m = EuclideanMetric;
        assert_eq!(m.distance(&1.0, &4.0), 3.0);
        assert_eq!(m.distance(&vec![0.0, 0.0], &vec![3.0, 4.0]), 5.0);
        assert_eq!(max_distance(&m, &[1.0, 2.0, 3.5], &2.0), 1.5);
        assert_eq!(max_distance::<f64, _>(&m, &[], &0.0), 0.0);
    }

    #[test]
    fn max_distance_does_not_drop_nan() {
        let m = EuclideanMetric;
        // A NaN output must dominate the max, not vanish from it.
        assert_eq!(max_distance(&m, &[1.0, f64::NAN], &0.0), f64::INFINITY);
        assert_eq!(max_distance(&m, &[f64::NAN, 1.0], &0.0), f64::INFINITY);
        assert_eq!(max_distance(&m, &[1.0, f64::INFINITY], &0.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn euclidean_rejects_mismatched_dims() {
        let m = EuclideanMetric;
        let _ = m.distance(&vec![1.0], &vec![1.0, 2.0]);
    }

    #[test]
    fn trace_rounds_to() {
        let mut t = ConvergenceTrace::new();
        let m = EuclideanMetric;
        for d in [4.0, 2.0, 0.5, 0.9, 0.1, 0.05] {
            t.record(&m, &[d], &0.0);
        }
        // Drops below 1.0 at index 2 and stays.
        assert_eq!(t.rounds_to(1.0), Some(2));
        // Below 0.6 at 2 but bounces to 0.9: final entry-point is 4.
        assert_eq!(t.rounds_to(0.6), Some(4));
        assert_eq!(t.rounds_to(0.01), None);
        assert_eq!(t.distances().len(), 6);
    }
}
