//! Property-based tests of the algorithm layer's core invariants.

use kya_algos::frequency::CensusOutdegree;
use kya_algos::gossip::SetGossip;
use kya_algos::lifting::{check_lifting, close_fibration, ring_fibration};
use kya_algos::min_base::{MinBaseBroadcast, ViewState};
use kya_algos::push_sum::{PushSumExact, PushSumExactState};
use kya_algos::views::View;
use kya_arith::BigRational;
use kya_fibration::iso::are_isomorphic;
use kya_fibration::MinimumBase;
use kya_graph::{generators, DynamicGraph, RandomDynamicGraph, StaticGraph};
use kya_runtime::testing::check_multiset_invariance;
use kya_runtime::{Broadcast, Execution, Isotropic, RunConfig};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 3.1 on every divisor fibration R_n -> R_p, for gossip.
    #[test]
    fn lifting_lemma_gossip_on_rings(
        p in 2usize..5,
        mult in 2usize..4,
        values in proptest::collection::vec(0u64..6, 4),
    ) {
        let n = p * mult;
        let (g, b, phi) = ring_fibration(n, p);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        let base_values: Vec<u64> = values.iter().take(p).copied().collect();
        let inits = SetGossip::initial(&base_values);
        prop_assert!(check_lifting(&Broadcast(SetGossip), &gc, &bc, &phic, inits, 2 * n as u64).is_ok());
    }

    /// Lemma 3.1 for exact Push-Sum (isotropic; ring fibrations preserve
    /// outdegrees).
    #[test]
    fn lifting_lemma_pushsum_on_rings(
        p in 2usize..4,
        mult in 2usize..4,
        seed_vals in proptest::collection::vec(-20i64..20, 4),
    ) {
        let n = p * mult;
        let (g, b, phi) = ring_fibration(n, p);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        let base_values: Vec<i64> = seed_vals.iter().take(p).copied().collect();
        let inits = PushSumExactState::averaging(&base_values);
        prop_assert!(
            check_lifting(&Isotropic(PushSumExact), &gc, &bc, &phic, inits, (n + 4) as u64).is_ok()
        );
    }

    /// The distributed broadcast min-base equals the centralized one on
    /// random strongly connected graphs.
    #[test]
    fn distributed_matches_centralized_min_base(
        n in 4usize..9,
        extra in 0usize..6,
        seed in 0u64..500,
        val_period in 1usize..4,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed);
        let values: Vec<u64> = (0..n).map(|i| (i % val_period) as u64).collect();
        let d = kya_graph::connectivity::diameter(&g.with_self_loops()).unwrap();
        let rounds = (n + d + 3) as u64;
        let net = StaticGraph::new(g.clone());
        let mut exec = Execution::new(Broadcast(MinBaseBroadcast), ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds(rounds));
        let reference = MinimumBase::compute(&g.with_self_loops(), &values);
        for out in exec.outputs() {
            let cb = out.expect("stabilized by n + D");
            prop_assert!(are_isomorphic(
                &cb.graph,
                &cb.values,
                reference.base(),
                reference.base_values()
            )
            .is_some());
        }
    }

    /// The outdegree census recovers exact value frequencies on random
    /// strongly connected graphs.
    #[test]
    fn census_frequencies_are_exact(
        n in 3usize..8,
        extra in 1usize..6,
        seed in 0u64..300,
        val_period in 1usize..4,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed);
        let values: Vec<u64> = (0..n).map(|i| (i % val_period) as u64 * 7).collect();
        let d = kya_graph::connectivity::diameter(&g.with_self_loops()).unwrap();
        let net = StaticGraph::new(g.clone());
        let mut exec = Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds((n + d + 3) as u64));
        let census = exec.outputs()[0].clone().expect("stabilized");
        for (v, f) in census.frequencies() {
            let count = values.iter().filter(|&&w| w == v).count() as i64;
            prop_assert_eq!(f, BigRational::from_i64(count, n as i64));
        }
    }

    /// Exact Push-Sum conserves both masses on arbitrary dynamic graphs.
    #[test]
    fn pushsum_mass_conservation(
        n in 2usize..7,
        seed in 0u64..300,
        vals in proptest::collection::vec(-50i64..50, 7),
        rounds in 1u64..12,
    ) {
        let net = RandomDynamicGraph::directed(n, 2, seed);
        let values: Vec<i64> = vals.iter().take(n).copied().collect();
        let inits = PushSumExactState::averaging(&values);
        let y0: BigRational = inits.iter().map(|s| &s.y).sum();
        let z0: BigRational = inits.iter().map(|s| &s.z).sum();
        let mut exec = Execution::new(Isotropic(PushSumExact), inits);
        exec.drive(&net, RunConfig::rounds(rounds));
        let y1: BigRational = exec.states().iter().map(|s| &s.y).sum();
        let z1: BigRational = exec.states().iter().map(|s| &s.z).sum();
        prop_assert_eq!(y0, y1);
        prop_assert_eq!(z0, z1);
    }

    /// Every core algorithm's transition is multiset-invariant
    /// (anonymity contract of §2.2).
    #[test]
    fn transitions_are_multiset_invariant(
        vals in proptest::collection::vec(0u64..9, 3..6),
        seed in 0u64..1000,
    ) {
        // Gossip.
        let inbox: Vec<Vec<u64>> = vals.iter().map(|&v| vec![v]).collect();
        prop_assert!(check_multiset_invariance(
            &Broadcast(SetGossip),
            &vec![1u64],
            &inbox,
            8,
            seed
        ));
        // Min base (views).
        let view_inbox: Vec<View> = vals.iter().map(|&v| View::leaf(v)).collect();
        prop_assert!(check_multiset_invariance(
            &Broadcast(MinBaseBroadcast),
            &ViewState::new(3),
            &view_inbox,
            8,
            seed
        ));
        // Exact Push-Sum (exact arithmetic is genuinely order-invariant).
        let ps_inbox: Vec<Arc<(BigRational, BigRational)>> = vals
            .iter()
            .map(|&v| {
                Arc::new((
                    BigRational::from_i64(v as i64, 3),
                    BigRational::from_i64(1, 3),
                ))
            })
            .collect();
        prop_assert!(check_multiset_invariance(
            &Isotropic(PushSumExact),
            &PushSumExactState::new(BigRational::zero(), BigRational::one()),
            &ps_inbox,
            8,
            seed
        ));
    }

    /// Truncation laws: `truncate` is idempotent-compatible and preserves
    /// values and annotations.
    #[test]
    fn truncate_composes(
        depth_vals in proptest::collection::vec(0u64..5, 4..7),
        a in 0usize..4,
        b in 0usize..4,
    ) {
        // Build a chain view of depth len-1 (each node one child).
        let mut v = View::leaf(depth_vals[0]);
        for &val in &depth_vals[1..] {
            v = View::node(val, vec![(0, v)]);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assume!(hi < v.depth());
        prop_assert_eq!(v.truncate(hi).truncate(lo), v.truncate(lo));
        prop_assert_eq!(v.truncate(v.depth()), v.clone());
        prop_assert_eq!(v.truncate(lo).value(), v.value());
    }
}

/// Deterministic cross-run canonical form: rebuilding the same network's
/// views in two separate executions yields identical candidate bases
/// even though the interner assigns fresh ids (regression test for the
/// canonical-hash ordering).
#[test]
fn candidate_base_is_canonical_across_runs() {
    let g = generators::bidirectional_ring(5);
    let values: Vec<u64> = vec![4, 8, 15, 16, 23];
    let run = || {
        let net = StaticGraph::new(g.clone());
        let mut exec = Execution::new(Broadcast(MinBaseBroadcast), ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds(20));
        exec.outputs()[0].clone().expect("stabilized")
        // Execution dropped here: all views die, the interner forgets.
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Async-start masking hint sanity: the masked network's measured
/// dynamic diameter is finite and within the paper's max(s) + D bound.
#[test]
fn async_start_masked_diameter_bound() {
    use kya_graph::dynamic::measured_dynamic_diameter;
    use kya_runtime::adversary::AsyncStarts;
    let inner = StaticGraph::new(generators::complete(4));
    let starts = vec![1, 3, 2, 4];
    let masked = AsyncStarts::new(inner, starts);
    let hint = masked.diameter_hint().expect("hinted");
    let measured = measured_dynamic_diameter(&masked, 16, 12).expect("finite");
    assert!(measured <= hint, "measured {measured} > hint {hint}");
}
