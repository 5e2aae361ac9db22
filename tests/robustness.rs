//! Integration: robustness regimes beyond the clean model — population
//! protocols (pairwise interactions), self-stabilization, and the §6
//! weak-connectivity regime — exercised through the public API.

use know_your_audience::algos::gossip::SetGossip;
use know_your_audience::algos::metropolis::{FixedWeight, Metropolis};
use know_your_audience::algos::min_base::{DepthCapped, MinBaseBroadcast, ViewState};
use know_your_audience::algos::push_sum::{total_mass, PushSum, PushSumState, SelfHealingPushSum};
use know_your_audience::algos::views::View;
use know_your_audience::graph::{
    generators, DynamicGraph, PairingScheduler, RandomDynamicGraph, RoundRobinCover,
    SparselyConnected, StaticGraph, UniformRandom,
};
use know_your_audience::runtime::churn::{ChurnMasked, ChurnPlan};
use know_your_audience::runtime::faults::{FaultPlan, FaultyNetwork};
use know_your_audience::runtime::metric::EuclideanMetric;
use know_your_audience::runtime::testing::{check_self_stabilization, SelfStabOutcome};
use know_your_audience::runtime::{Broadcast, Execution, Isotropic, RunConfig};

#[test]
fn gossip_floods_over_pairwise_interactions() {
    // The population-protocol network class (§2 footnote 2): gossip
    // still floods, it just needs more rounds than a connected-per-round
    // adversary.
    let n = 8;
    let values: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
    let net = PairingScheduler::new(n, UniformRandom::new(n / 2), 99);
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
    exec.drive(&net, RunConfig::rounds(200));
    for out in exec.outputs() {
        assert_eq!(out, vec![0, 1, 2]);
    }
}

#[test]
fn fixed_weight_averages_over_pairwise_interactions() {
    let n = 6;
    let values: Vec<f64> = vec![0.0, 6.0, 12.0, 0.0, 6.0, 12.0];
    let net = PairingScheduler::new(n, UniformRandom::new(3), 123);
    let mut exec = Execution::new(Broadcast(FixedWeight::new(n)), values);
    exec.drive(&net, RunConfig::rounds(5000));
    for x in exec.outputs() {
        assert!((x - 6.0).abs() < 1e-7, "{x}");
    }
}

#[test]
fn depth_capped_min_base_recovers_from_corruption_end_to_end() {
    let g = generators::star(5);
    let values = [9u64, 2, 2, 2, 2];
    let cap = 14;
    let net = StaticGraph::new(g.clone());

    // Clean target output.
    let clean = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
    let mut reference = Execution::new(clean, ViewState::initial(&values));
    reference.drive(&net, RunConfig::rounds(30));
    let truth = reference.outputs()[0].clone().expect("stabilized");

    // Adversarial garbage views of a consistent depth.
    let corrupted: Vec<ViewState> = values
        .iter()
        .map(|&v| ViewState {
            value: v,
            view: View::node(1234, vec![(9, View::leaf(777))]),
        })
        .collect();
    let algo = DepthCapped::new(Broadcast(MinBaseBroadcast), cap);
    let outcome = check_self_stabilization(algo, &net, corrupted, |_| Some(truth.clone()), 60);
    assert!(
        matches!(outcome, SelfStabOutcome::Stabilized { .. }),
        "depth-capped min base must self-stabilize"
    );
}

#[test]
fn push_sum_is_not_self_stabilizing() {
    // §6: Push-Sum does not tolerate arbitrary initialization — corrupt
    // the mass invariants and the quot-sum limit moves with them.
    let values = [2.0, 4.0, 6.0];
    let truth = 4.0;
    let net = StaticGraph::new(generators::complete(3));
    // Corrupted weights (z != 1) shift the limit away from the average.
    let corrupted = vec![
        PushSumState::new(2.0, 1.0),
        PushSumState::new(4.0, 3.0), // bogus weight
        PushSumState::new(6.0, 1.0),
    ];
    let mut exec = Execution::new(Isotropic(PushSum), corrupted);
    exec.drive(&net, RunConfig::rounds(300));
    let settled = exec.outputs()[0];
    assert!(
        (settled - truth).abs() > 0.5,
        "corruption must be visible: {settled}"
    );
    // It converges — to the corrupted quot-sum, exactly as theory says.
    let corrupted_target = (2.0 + 4.0 + 6.0) / (1.0 + 3.0 + 1.0);
    assert!((settled - corrupted_target).abs() < 1e-9);
    let _ = values;
}

#[test]
fn weak_connectivity_still_converges_for_symmetric_consensus() {
    // Geometric communication gaps: no finite dynamic diameter, yet the
    // doubly-stochastic update keeps contracting (Moreau's regime).
    let n = 6;
    let values: Vec<f64> = vec![3.0, 9.0, 0.0, 6.0, 12.0, 6.0];
    let target = 6.0;
    let inner = RandomDynamicGraph::symmetric(n, 2, 5);
    let net = SparselyConnected::geometric(inner, 1, 4000);
    let mut exec = Execution::new(Broadcast(FixedWeight::new(n)), values);
    let mut errors = Vec::new();
    for _ in 0..11 {
        exec.drive(&net, RunConfig::rounds(364));
        let worst = exec
            .outputs()
            .iter()
            .map(|x| (x - target).abs())
            .fold(0.0f64, f64::max);
        errors.push(worst);
    }
    // Strictly decreasing over communication epochs, and well below the
    // initial spread at the end.
    assert!(
        errors.last().unwrap() < &0.5,
        "final error {:?}",
        errors.last()
    );
    assert!(errors.first().unwrap() > errors.last().unwrap());
}

#[test]
fn gossip_floods_despite_heavy_link_drops() {
    // Set gossip is fault-oblivious by design: it only needs every
    // ordered pair to be connected by a path *eventually*. Under a
    // FaultyNetwork dropping 30% of links per round, each scripted edge
    // still appears infinitely often, so the flood completes — merely
    // later than the fault-free D + 1 bound.
    let n = 8;
    let values: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
    let plan = FaultPlan::new(1234).drop_links(0.3);
    let net = FaultyNetwork::new(StaticGraph::new(generators::directed_ring(n)), plan);
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
    exec.drive(&net, RunConfig::rounds(120));
    for out in exec.outputs() {
        assert_eq!(out, vec![0, 1, 2]);
    }
}

#[test]
fn self_healing_push_sum_recovers_from_crash_recover() {
    // End-to-end F6 scenario: an agent crashes mid-run and comes back;
    // messages to it bounce and are reabsorbed by their senders. Mass
    // never leaks, and after the crash window the outputs re-enter the
    // eps-ball around the true average — measured by the recovery
    // report.
    let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
    let n = values.len();
    let target = values.iter().sum::<f64>() / n as f64;
    let net = StaticGraph::new(generators::complete(n));
    let plan = FaultPlan::new(6).drop_links(0.3).until(40).crash(2, 10..30);
    let mut exec = Execution::new(
        Isotropic(SelfHealingPushSum),
        PushSumState::averaging(&values),
    )
    .faults(plan);
    let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
    let report = exec.drive(
        &net,
        RunConfig::rounds(200)
            .measure(&EuclideanMetric, &target, 1e-9)
            .invariant(&z_deficit),
    );
    assert!(report.events.dropped > 0 && report.events.bounced_to_crashed > 0);
    assert!(
        report.mass_deficit.unwrap().abs() < 1e-9,
        "self-healing conserves mass: deficit {:?}",
        report.mass_deficit
    );
    let recovered = report.converged_at.expect("re-enters the eps-ball");
    assert!(recovered > report.last_fault_round);
    assert!(report.final_distance < 1e-9);
}

#[test]
fn plain_push_sum_does_not_recover_from_message_loss() {
    // Negative control for the scenario above: identical fault script,
    // but bounced shares are discarded. The weight mass decays during
    // the fault window and the deficit persists forever — the outputs
    // settle on the quot-sum of the *surviving* mass, not the average.
    let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
    let n = values.len();
    let target = values.iter().sum::<f64>() / n as f64;
    let net = StaticGraph::new(generators::complete(n));
    let plan = FaultPlan::new(6).drop_links(0.3).until(40).crash(2, 10..30);
    let mut exec =
        Execution::new(Isotropic(PushSum), PushSumState::averaging(&values)).faults(plan);
    let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
    let report = exec.drive(
        &net,
        RunConfig::rounds(200)
            .measure(&EuclideanMetric, &target, 1e-9)
            .invariant(&z_deficit),
    );
    assert!(
        report.mass_deficit.unwrap() > 1.0,
        "plain push-sum must leak visibly, deficit {:?}",
        report.mass_deficit
    );
    assert_eq!(
        report.converged_at, None,
        "the lost mass shifts the limit permanently"
    );
}

#[test]
fn self_healing_push_sum_recovers_under_pairing_churn_and_faults() {
    // The F8 combined-adversary scenario: an Angluin-style pairing
    // scheduler (round-robin cover fairness), a churn script parking an
    // agent mid-run (Carry: its mass freezes and returns intact), and
    // message drops until a horizon — all stacked. The churn-aware
    // report counts convergence only strictly after the last fault OR
    // churn transition.
    let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
    let n = values.len();
    let target = values.iter().sum::<f64>() / n as f64;
    let net = PairingScheduler::new(n, RoundRobinCover, 0);
    let membership = ChurnPlan::default().leave(2, 10..30).membership(n);
    let stack = ChurnMasked::new(net, membership.clone());
    let plan = FaultPlan::new(6).drop_links(0.3).until(40);
    let fresh = PushSumState::averaging(&values);
    let reinit = |v: usize, _parked: &PushSumState| fresh[v];
    let mut exec = Execution::new(Isotropic(SelfHealingPushSum), fresh.clone()).faults(plan);
    let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
    let report = exec.drive(
        &stack,
        RunConfig::rounds(400)
            .membership(&membership, &reinit)
            .measure(&EuclideanMetric, &target, 1e-9)
            .invariant(&z_deficit),
    );
    assert!(report.events.dropped > 0, "faults actually fired");
    assert!(
        report.mass_deficit.unwrap().abs() < 1e-9,
        "Carry churn conserves mass: deficit {:?}",
        report.mass_deficit
    );
    // The quiet period starts only after both adversaries go quiescent.
    assert!(report.last_fault_round >= membership.last_transition());
    let recovered = report.converged_at.expect("re-enters the eps-ball");
    assert!(recovered > report.last_fault_round);
    assert!(report.final_distance < 1e-9);
}

#[test]
fn churned_reports_agree_with_and_without_a_quiescent_fault_plan() {
    // Carry-policy Metropolis on a ring: the outputs sit in the eps-ball
    // long before agent 2 departs at round 100. A membership transition
    // counts as a fault for the recovery measurement whether or not a
    // fault plan is attached, so both runs date convergence after it.
    let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
    let n = values.len();
    let target = values.iter().sum::<f64>() / n as f64;
    let membership = ChurnPlan::default().depart(2, 100).membership(n);
    let keep = |_: usize, parked: &f64| *parked;
    let run = |plan: Option<FaultPlan>| {
        let net = StaticGraph::new(generators::bidirectional_ring(n));
        let stack = ChurnMasked::new(net, membership.clone());
        let mut exec = Execution::new(Isotropic(Metropolis), values.to_vec());
        if let Some(plan) = plan {
            exec = exec.faults(plan);
        }
        exec.drive(
            &stack,
            RunConfig::rounds(200)
                .membership(&membership, &keep)
                .measure(&EuclideanMetric, &target, 1e-9),
        )
    };
    let plain = run(None);
    assert!(
        plain.distances[..99].iter().any(|&d| d <= 1e-9),
        "consensus precedes the departure"
    );
    assert_eq!(plain, run(Some(FaultPlan::new(0))));
    assert_eq!(plain.last_fault_round, membership.last_transition());
    assert!(plain.converged_at > Some(plain.last_fault_round));
}

#[test]
fn exact_mass_is_conserved_through_the_full_adversary_stack() {
    // Exact-backend oracle over the full composition FaultyNetwork ∘
    // ChurnMasked ∘ PairingScheduler: every masking layer is a per-edge
    // predicate that preserves self-loops, so a parked agent's whole
    // (y, z) recirculates through its self-loop and Σy, Σz over ALL
    // agent slots are conserved as exact rationals — no tolerance.
    use know_your_audience::algos::push_sum::{PushSumExact, PushSumExactState};
    use know_your_audience::arith::BigRational;
    let ints: Vec<i64> = vec![3, 1, 4, 1, 5, 9];
    let n = ints.len();
    let inits = PushSumExactState::averaging(&ints);
    let y0: BigRational = inits.iter().map(|s| &s.y).sum();
    let z0: BigRational = inits.iter().map(|s| &s.z).sum();
    let membership = ChurnPlan::default()
        .leave(1, 5..20)
        .depart(4, 25)
        .membership(n);
    let stack = FaultyNetwork::new(
        ChurnMasked::new(
            PairingScheduler::new(n, UniformRandom::new(n / 2), 3),
            membership.clone(),
        ),
        FaultPlan::new(9).drop_links(0.25).until(30),
    );
    let mut exec = Execution::new(Isotropic(PushSumExact), inits);
    // Carry policy: rejoins restore the parked state, reinit never runs.
    let reinit = |_: usize, parked: &PushSumExactState| parked.clone();
    exec.drive(
        &stack,
        RunConfig::rounds(60).membership(&membership, &reinit),
    );
    let y: BigRational = exec.states().iter().map(|s| &s.y).sum();
    let z: BigRational = exec.states().iter().map(|s| &s.z).sum();
    assert_eq!(y, y0, "Σy is exactly conserved");
    assert_eq!(z, z0, "Σz is exactly conserved");
}

#[test]
fn parallel_execution_agrees_with_sequential_for_push_sum() {
    let n = 10;
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let net = RandomDynamicGraph::directed(n, 5, 777);
    let mut seq = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
    let mut par = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
    for _ in 0..30 {
        let g = net.graph(seq.round() + 1);
        seq.step(&g);
        par.drive(&g, RunConfig::rounds(1).threads(3));
    }
    // Same messages, same per-agent sums, bit-identical trajectories.
    for (a, b) in seq.states().iter().zip(par.states()) {
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
}
