//! Escalation-rate guard for the certified backend (the CI bench-smoke
//! companion): on the small matrix, the backend oracle's enclosures must
//! decide essentially every certification themselves — escalating to a
//! replay on the exact Push-Sum algorithms (`PushSumExact`,
//! `PushSumFrequencyExact`) is the *rare* path, and a regression that balloons
//! interval widths (losing the error-free fast paths, say) would show up
//! here as a rate above the pinned threshold long before it shows up as
//! a wall-clock regression.

use kya_conformance::{specs, CheckKind, Matrix};
use kya_harness::Runner;
use serde::Value;

/// Escalations per certification the small matrix is allowed. The
/// measured rate is exactly 0 (every enclosure stays bounded); the pin
/// leaves headroom of one escalation per hundred certifications before
/// the guard trips.
const PINNED_MAX_RATE: f64 = 0.01;

#[test]
fn certified_backend_escalation_rate_stays_pinned() {
    let (kind, spec) = specs(Matrix::Small)
        .into_iter()
        .find(|(k, _)| *k == CheckKind::Backend)
        .expect("backend spec present");
    let sink = Runner::new(&spec).run(|ctx| kind.run(ctx));
    assert!(
        sink.all_ok(),
        "{} backend cell(s) failed",
        sink.failures().len()
    );

    let mut certifications = 0u64;
    let mut escalations = 0u64;
    for r in sink.records() {
        let get = |key: &str| match r.detail(key) {
            Some(Value::UInt(v)) => *v,
            Some(Value::Int(v)) if *v >= 0 => *v as u64,
            other => panic!("cell {}: missing numeric detail `{key}`: {other:?}", r.cell),
        };
        certifications += get("certifications");
        escalations += get("escalations");
    }
    assert!(certifications > 0, "backend oracle certified nothing");
    let rate = escalations as f64 / certifications as f64;
    assert!(
        rate <= PINNED_MAX_RATE,
        "escalation rate {rate:.4} ({escalations}/{certifications}) above the \
         pinned threshold {PINNED_MAX_RATE}"
    );
}
