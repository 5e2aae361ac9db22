//! Persistence contracts for the adversary scripts: `FaultPlan` (F6)
//! and `ChurnPlan` (F8) round-trip through JSON exactly, and — since
//! archived plans outlive releases — a plan written by a *newer* build
//! with extra fields must still load (unknown fields are ignored, never
//! an error).

use kya_runtime::churn::{ChurnPlan, ReinjectPolicy};
use kya_runtime::faults::FaultPlan;

/// Splice an unknown key into the top-level JSON object, simulating a
/// field added by a future release.
fn with_future_field(json: &str) -> String {
    assert!(json.starts_with('{'), "plans serialize to objects");
    json.replacen('{', "{\"future_field\":[1,{\"nested\":true}],", 1)
}

#[test]
fn fault_plan_roundtrips_and_tolerates_unknown_fields() {
    let plan = FaultPlan::new(0xf6)
        .drop_links(0.125)
        .duplicate(0.25)
        .retry_within(5)
        .until(80)
        .crash(1, 10..30)
        .crash_stop(3, 50);
    let json = serde::to_json_string(&plan);
    let back: FaultPlan = serde::from_json_str(&json).expect("round-trip parses");
    assert_eq!(back, plan);
    let forward: FaultPlan =
        serde::from_json_str(&with_future_field(&json)).expect("unknown field tolerated");
    assert_eq!(forward, plan, "unknown fields ignored, known ones kept");
}

#[test]
fn churn_plan_roundtrips_and_tolerates_unknown_fields() {
    for policy in [ReinjectPolicy::Carry, ReinjectPolicy::Reset] {
        let plan = ChurnPlan::default()
            .leave(2, 10..40)
            .leave(4, 25..55)
            .depart(0, 70)
            .policy(policy);
        let json = serde::to_json_string(&plan);
        let back: ChurnPlan = serde::from_json_str(&json).expect("round-trip parses");
        assert_eq!(back, plan);
        let forward: ChurnPlan =
            serde::from_json_str(&with_future_field(&json)).expect("unknown field tolerated");
        assert_eq!(forward, plan);
    }
}

#[test]
fn quiescent_plans_roundtrip() {
    let fault = FaultPlan::new(0);
    let churn = ChurnPlan::default();
    assert!(fault.is_quiescent() && churn.is_quiescent());
    let fault_back: FaultPlan =
        serde::from_json_str(&serde::to_json_string(&fault)).expect("parses");
    let churn_back: ChurnPlan =
        serde::from_json_str(&serde::to_json_string(&churn)).expect("parses");
    assert_eq!(fault_back, fault);
    assert_eq!(churn_back, churn);
}

#[test]
fn unknown_reinject_policy_is_rejected() {
    // The flip side of tolerance: an unknown *enum variant* cannot be
    // defaulted away — a plan asking for a policy this build does not
    // implement must fail loudly, not silently fall back to Carry.
    let json = serde::to_json_string(&ChurnPlan::default().leave(0, 1..2));
    let bad = json.replace("\"Carry\"", "\"Teleport\"");
    assert_ne!(bad, json, "fixture actually rewrote the policy");
    assert!(serde::from_json_str::<ChurnPlan>(&bad).is_err());
}
