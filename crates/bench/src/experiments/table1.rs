//! Regenerate **Table 1** (computable functions in static, strongly
//! connected anonymous networks) as a harness sweep: the algorithm
//! axis carries the four communication-model columns, the variant axis
//! the four centralized-help rows. Each cell runs the column's positive
//! certification (the witnessing algorithm computes the class
//! representative) and negative certification (the lifting-lemma
//! counterexample) and carries one boolean detail per sub-check.

use super::{Experiment, Nets};
use crate::{directed_cases, run_static, stabilization_budget, symmetric_cases, StaticCase};
use kya_algos::frequency::{CensusOutdegree, CensusPorts, CensusSymmetric};
use kya_algos::gossip::{set_functions, SetGossip};
use kya_algos::min_base::ViewState;
use kya_arith::BigInt;
use kya_core::functions::{average, maximum, sum};
use kya_core::table::{computable_class, render_table, CentralizedHelp, NetworkKind};
use kya_core::value;
use kya_graph::{generators, Digraph};
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::{Broadcast, CommunicationModel, Isotropic};

/// The Table 1 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table1",
    about: "certify every cell of Table 1 (static networks) positively and negatively",
    extra_flags: &[],
    ignored_flags: &[
        "topologies",
        "sizes",
        "seeds",
        "seed",
        "rounds",
        "eps",
        "engine",
    ],
    nets: Nets::Unchecked,
    churn_variants: false,
    build,
    cell,
    render,
};

pub(crate) const HELPS: [&str; 4] = ["none", "bound-known", "size-known", "leader"];

pub(crate) fn parse_help(variant: &str) -> CentralizedHelp {
    match variant {
        "none" => CentralizedHelp::None,
        "bound-known" => CentralizedHelp::BoundKnown,
        "size-known" => CentralizedHelp::SizeKnown,
        "leader" => CentralizedHelp::Leader,
        other => panic!("unknown help variant `{other}`"),
    }
}

/// One spec whose axes no flag moves: every sweep flag that could is in
/// [`EXPERIMENT`]'s `ignored_flags`.
fn build(_: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    Ok(vec![ExperimentSpec::new("table1")
        .algorithms(["broadcast", "outdegree", "symmetric", "ports"])
        .variants(HELPS)])
}

type Check = (String, bool);

/// Positive: gossip computes max everywhere (set-based witness).
fn positive_broadcast(checks: &mut Vec<Check>) {
    for case in directed_cases() {
        let rounds = stabilization_budget(&case.graph);
        let outs = run_static(
            Broadcast(SetGossip),
            &case.graph,
            SetGossip::initial(&case.values),
            rounds,
        );
        let ok = outs
            .iter()
            .all(|s| set_functions::max(s) == Some(maximum(&case.values)));
        checks.push((format!("max via gossip [{}]", case.name), ok));
    }
}

/// The unequal-fibre-lift pair of §4.1 adapted to broadcast.
fn broadcast_counterexample() -> (Digraph, Digraph, Vec<u64>, Vec<u64>) {
    // Base: a <-> b with doubled a->b edge, plus self-loops.
    let mut base = Digraph::new(2);
    base.add_edge(0, 1);
    base.add_edge(0, 1);
    base.add_edge(1, 0);
    let base = base.with_self_loops();
    let small = base.clone(); // fibre sizes (1, 1)
    let (large, fibre_of) =
        generators::connected_lift(&base, &[1, 2], 11, 256).expect("connected lift");
    let vals_small = vec![6u64, 12];
    let vals_large: Vec<u64> = fibre_of.iter().map(|&f| vals_small[f]).collect();
    (small, large, vals_small, vals_large)
}

/// Negative for simple broadcast: the average differs across the pair,
/// yet gossip cannot separate them.
fn negative_broadcast(checks: &mut Vec<Check>) {
    let (small, large, vs, vl) = broadcast_counterexample();
    let outs_small = run_static(Broadcast(SetGossip), &small, SetGossip::initial(&vs), 12);
    let outs_large = run_static(Broadcast(SetGossip), &large, SetGossip::initial(&vl), 12);
    let indist = outs_small[0] == outs_large[0];
    let separated = average(&vs) != average(&vl);
    checks.push((
        "average invisible to broadcast (lift pair)".to_string(),
        indist && separated,
    ));
}

type CensusFn = dyn Fn(&Digraph, &[u64], u64) -> Option<kya_algos::FibreCensus>;

/// Positive: the census pipeline of a column computes average (and,
/// with n or a leader, the sum).
fn positive_census(
    checks: &mut Vec<Check>,
    cases: &[StaticCase],
    help: CentralizedHelp,
    run: &CensusFn,
) {
    for case in cases {
        let rounds = stabilization_budget(&case.graph);
        // In the leader row, distinguish agent 0 through its input value.
        let values: Vec<u64> = match help {
            CentralizedHelp::Leader => case
                .values
                .iter()
                .enumerate()
                .map(|(i, &v)| value::encode(v, i == 0))
                .collect(),
            _ => case.values.clone(),
        };
        let Some(census) = run(&case.graph, &values, rounds) else {
            checks.push((format!("census [{}]: no stabilization", case.name), false));
            continue;
        };
        let ok = match help {
            CentralizedHelp::None | CentralizedHelp::BoundKnown => {
                average(&census.canonical_vector()) == average(&values)
            }
            CentralizedHelp::SizeKnown => census
                .multiplicities_known_n(case.graph.n())
                .map(|m| {
                    m.iter().map(|(v, k)| &BigInt::from(*v) * k).sum::<BigInt>() == sum(&values)
                })
                .unwrap_or(false),
            CentralizedHelp::Leader => census
                .multiplicities_with_leaders(1, value::is_leader)
                .map(|m| {
                    m.iter()
                        .map(|(v, k)| &BigInt::from(value::decode(*v).0) * k)
                        .sum::<BigInt>()
                        == sum(&case.values)
                })
                .unwrap_or(false),
        };
        let witness = match help {
            CentralizedHelp::None | CentralizedHelp::BoundKnown => "average",
            _ => "sum",
        };
        checks.push((format!("{witness} [{}]", case.name), ok));
    }
}

/// Negative for the frequency rows: the sum is invisible because R_4
/// and its double cover R_8 produce identical censuses.
fn negative_sum_invisible(checks: &mut Vec<Check>, run: &CensusFn) {
    let small = generators::bidirectional_ring(4);
    let large = generators::bidirectional_ring(8);
    let vs: Vec<u64> = vec![1, 2, 3, 2];
    let vl: Vec<u64> = (0..8).map(|i| vs[i % 4]).collect();
    let census_s = run(&small, &vs, 24).expect("stabilized");
    let census_l = run(&large, &vl, 24).expect("stabilized");
    let indist = census_s == census_l;
    let separated = sum(&vs) != sum(&vl);
    checks.push((
        "sum invisible (ring double cover)".to_string(),
        indist && separated,
    ));
}

/// Negative for the multiset rows: only symmetric functions are
/// computable (Lemma 3.3).
fn negative_only_multiset(checks: &mut Vec<Check>, run: &CensusFn) {
    let g = generators::bidirectional_ring(5);
    let values: Vec<u64> = vec![4, 8, 15, 16, 23];
    let perm = [2usize, 3, 4, 0, 1];
    let gp = g.relabel(&perm);
    let mut vp = vec![0u64; 5];
    for (i, &p) in perm.iter().enumerate() {
        vp[p] = values[i];
    }
    let census_a = run(&g, &values, 24).expect("stabilized");
    let census_b = run(&gp, &vp, 24).expect("stabilized");
    let indist = census_a == census_b;
    let separated = values[0] != vp[0];
    checks.push((
        "only multiset-based (isomorphism invariance)".to_string(),
        indist && separated,
    ));
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let help = parse_help(&ctx.cell.variant);
    let census_outdegree = |g: &Digraph, v: &[u64], r: u64| {
        run_static(Isotropic(CensusOutdegree), g, ViewState::initial(v), r)
            .into_iter()
            .next()
            .flatten()
    };
    let census_symmetric = |g: &Digraph, v: &[u64], r: u64| {
        run_static(Broadcast(CensusSymmetric), g, ViewState::initial(v), r)
            .into_iter()
            .next()
            .flatten()
    };
    let census_ports = |g: &Digraph, v: &[u64], r: u64| {
        run_static(CensusPorts, g, ViewState::initial(v), r)
            .into_iter()
            .next()
            .flatten()
    };

    let mut checks: Vec<Check> = Vec::new();
    let model = match ctx.cell.algorithm.as_str() {
        "broadcast" => {
            positive_broadcast(&mut checks);
            negative_broadcast(&mut checks);
            CommunicationModel::SimpleBroadcast
        }
        "outdegree" => {
            positive_census(&mut checks, &directed_cases(), help, &census_outdegree);
            match help {
                CentralizedHelp::None | CentralizedHelp::BoundKnown => {
                    negative_sum_invisible(&mut checks, &census_outdegree)
                }
                _ => negative_only_multiset(&mut checks, &census_outdegree),
            }
            CommunicationModel::OutdegreeAware
        }
        "symmetric" => {
            positive_census(&mut checks, &symmetric_cases(), help, &census_symmetric);
            match help {
                CentralizedHelp::None | CentralizedHelp::BoundKnown => {
                    negative_sum_invisible(&mut checks, &census_symmetric)
                }
                _ => negative_only_multiset(&mut checks, &census_symmetric),
            }
            CommunicationModel::Symmetric
        }
        "ports" => {
            // Output port awareness: an equal-fibre lift with ports.
            let mut base = Digraph::new(2);
            base.add_edge_with_port(0, 1, Some(0));
            base.add_edge_with_port(1, 0, Some(0));
            base.add_edge_with_port(0, 0, Some(1));
            base.add_edge_with_port(1, 1, Some(1));
            let (g, fibre_of) =
                generators::connected_lift(&base, &[3, 3], 3, 256).expect("connected lift");
            let values: Vec<u64> = fibre_of.iter().map(|&f| [4, 8][f]).collect();
            let case = StaticCase {
                name: "port-lift(3,3)",
                graph: g,
                values,
            };
            positive_census(&mut checks, &[case], help, &census_ports);
            match help {
                CentralizedHelp::None | CentralizedHelp::BoundKnown => {
                    negative_sum_invisible(&mut checks, &census_symmetric)
                }
                _ => negative_only_multiset(&mut checks, &census_symmetric),
            }
            CommunicationModel::OutputPortAware
        }
        other => panic!("unknown table1 column `{other}`"),
    };

    let class = computable_class(NetworkKind::Static, model, help).to_string();
    let all = checks.iter().all(|(_, ok)| *ok);
    let mut out = CellOutcome::new().ok(all).detail("class", class);
    for (label, ok) in checks {
        out = out.detail(label, ok);
    }
    out
}

pub(crate) fn render_checks(sink: &ResultSink, kind: NetworkKind, title: &str) -> String {
    let mut out = format!(
        "{}\nMeasured certification of every cell:\n\n",
        render_table(kind)
    );
    for r in sink.records() {
        let class = match r.detail("class") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        out.push_str(&format!(
            "--- help: {}, column: {} -> {class}\n",
            r.variant, r.algorithm
        ));
        for (label, v) in &r.details {
            if let serde::Value::Bool(ok) = v {
                out.push_str(&format!("  [{}] {label}\n", if *ok { "ok" } else { "XX" }));
            }
        }
    }
    if sink.all_ok() {
        out.push_str(&format!(
            "\n{title}: all measured cells match the paper's claims.\n"
        ));
    } else {
        out.push_str(&format!(
            "\n{title}: MISMATCHES FOUND — see [XX] lines above.\n"
        ));
    }
    out
}

fn render(sink: &ResultSink) -> String {
    render_checks(sink, NetworkKind::Static, "TABLE 1")
}
