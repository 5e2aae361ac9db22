//! Shared harness code for the experiment sweeps and criterion benches.
//!
//! The sweeps (`kya sweep NAME`, see [`experiments`]) regenerate the
//! paper's evaluation artifacts:
//!
//! - `table1` / `table2`: every cell of Tables 1 and 2, each certified by
//!   a *positive* run (the witnessing algorithm computes the class
//!   representative) and a *negative* run (the lifting-lemma
//!   counterexample shows the next-larger class is out of reach);
//! - `f1`: Theorem 5.2's `O(n² D log 1/ε)` convergence bound, swept over
//!   `n`, `D`, and `ε`;
//! - `f2`: the `n + D` stabilization bound of §3.2 and the depth-cap
//!   (finite-state) trade-off of §4.2;
//! - `f4`: the §5 algorithm family compared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod profile;

use kya_algos::min_base::ViewState;
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, DynamicGraph, StaticGraph};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{Algorithm, Execution, Isotropic, RunConfig};

/// A named static test network with inputs.
pub struct StaticCase {
    /// Short label for report rows.
    pub name: &'static str,
    /// The topology (self-loops added by the runtime).
    pub graph: Digraph,
    /// Per-agent input values.
    pub values: Vec<u64>,
}

/// The standard directed family used by the Table 1 harness.
pub fn directed_cases() -> Vec<StaticCase> {
    vec![
        StaticCase {
            name: "ring8",
            graph: generators::directed_ring(8),
            values: vec![5, 3, 5, 3, 5, 3, 5, 3],
        },
        StaticCase {
            name: "torus3x3",
            graph: generators::directed_torus(3, 3),
            values: vec![1, 2, 3, 1, 2, 3, 1, 2, 3],
        },
        StaticCase {
            name: "random10",
            graph: generators::random_strongly_connected(10, 8, 7),
            values: vec![9, 9, 1, 4, 4, 4, 9, 1, 1, 4],
        },
        StaticCase {
            name: "lift(2,3,4)",
            graph: {
                let base = generators::random_strongly_connected(3, 2, 17).with_self_loops();
                generators::connected_lift(&base, &[2, 3, 4], 17, 256)
                    .expect("connected lift")
                    .0
            },
            values: vec![0, 0, 100, 100, 100, 200, 200, 200, 200],
        },
    ]
}

/// The standard bidirectional family used by the symmetric column.
pub fn symmetric_cases() -> Vec<StaticCase> {
    vec![
        StaticCase {
            name: "star6",
            graph: generators::star(6),
            values: vec![8, 2, 2, 2, 2, 2],
        },
        StaticCase {
            name: "hypercube3",
            graph: generators::hypercube(3),
            values: vec![1, 1, 2, 2, 3, 3, 4, 4],
        },
        StaticCase {
            name: "randbi9",
            graph: generators::random_bidirectional_connected(9, 5, 3),
            values: vec![6, 6, 6, 1, 1, 2, 2, 2, 2],
        },
    ]
}

/// Enough rounds for any static min-base pipeline on `g` (`n + D` plus
/// slack).
pub fn stabilization_budget(g: &Digraph) -> u64 {
    let d = kya_graph::connectivity::diameter(&g.with_self_loops()).unwrap_or(g.n());
    (g.n() + d + 8) as u64
}

/// Run `algo` on a static graph and return the final outputs.
pub fn run_static<A: Algorithm + Sync>(
    algo: A,
    g: &Digraph,
    inits: Vec<A::State>,
    rounds: u64,
) -> Vec<A::Output>
where
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    let net = StaticGraph::new(g.clone());
    let mut exec = Execution::new(algo, inits);
    exec.drive(&net, RunConfig::rounds(rounds));
    exec.outputs()
}

/// Rounds until every Push-Sum output is within `eps` of the average
/// *and stays there* through `max_rounds` (returns `None` on timeout).
pub fn pushsum_rounds_to(
    net: &dyn DynamicGraph,
    values: &[f64],
    eps: f64,
    max_rounds: u64,
) -> Option<u64> {
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(values));
    exec.drive(
        net,
        RunConfig::rounds(max_rounds).measure(&EuclideanMetric, &avg, eps),
    )
    .converged_at
}

/// First round at which every agent's distributed min-base candidate has
/// reached its final (round-`max`) value. Returns `(stabilized_round,
/// rounds_run)`.
pub fn minbase_stabilization_round<A>(
    algo: A,
    g: &Digraph,
    values: &[u64],
    max_rounds: u64,
) -> Option<u64>
where
    A: Algorithm<State = ViewState>,
    A::Output: PartialEq + Clone,
{
    let net = StaticGraph::new(g.clone());
    let mut exec = Execution::new(algo, ViewState::initial(values));
    let mut history: Vec<Vec<A::Output>> = Vec::new();
    for _ in 0..max_rounds {
        let gr = net.graph(exec.round() + 1);
        exec.step(&gr);
        history.push(exec.outputs());
    }
    let final_outputs = history.last()?.clone();
    // Walk backwards to the first round from which outputs never change.
    let mut stab = history.len();
    for (i, outs) in history.iter().enumerate().rev() {
        if *outs == final_outputs {
            stab = i + 1; // rounds are 1-based
        } else {
            break;
        }
    }
    Some(stab as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_algos::gossip::SetGossip;
    use kya_runtime::Broadcast;

    #[test]
    fn cases_are_well_formed() {
        for case in directed_cases() {
            assert_eq!(case.graph.n(), case.values.len(), "{}", case.name);
            assert!(
                kya_graph::connectivity::is_strongly_connected(&case.graph),
                "{}",
                case.name
            );
        }
        for case in symmetric_cases() {
            assert_eq!(case.graph.n(), case.values.len(), "{}", case.name);
            assert!(case.graph.is_bidirectional(), "{}", case.name);
        }
    }

    #[test]
    fn pushsum_rounds_measurable() {
        let net = StaticGraph::new(generators::directed_ring(4));
        let r = pushsum_rounds_to(&net, &[0.0, 1.0, 2.0, 3.0], 1e-3, 2000).expect("converges");
        assert!(r > 0 && r < 2000);
    }

    #[test]
    fn minbase_stabilization_measurable() {
        let g = generators::directed_ring(5);
        let r = minbase_stabilization_round(
            Broadcast(kya_algos::min_base::MinBaseBroadcast),
            &g,
            &[1, 2, 1, 2, 1],
            40,
        )
        .expect("stabilizes");
        assert!(r <= 12, "ring of 5 stabilizes quickly, got {r}");
    }

    #[test]
    fn run_static_helper() {
        let g = generators::directed_ring(3);
        let outs = run_static(Broadcast(SetGossip), &g, SetGossip::initial(&[5, 1, 3]), 4);
        assert!(outs.iter().all(|s| s == &vec![1, 3, 5]));
    }
}
