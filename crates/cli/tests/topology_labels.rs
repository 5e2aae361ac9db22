//! A bad `--topologies` label, or a fault or churn script that does not
//! fit its network, ends every label-driven sweep with a `kya:` message
//! and exit status 1 before any cell runs, not with a panic inside a
//! cell.

use std::process::Command;

/// Run `kya sweep ARGS` and assert it fails cleanly.
fn assert_clean_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_kya"))
        .arg("sweep")
        .args(args)
        .output()
        .expect("kya runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("kya sweep {args:?}");
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    assert!(stderr.starts_with("kya: "), "{case}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
}

#[test]
fn bad_topology_labels_are_errors() {
    for experiment in ["f1", "f2", "f4", "f5", "f6", "f7", "f8"] {
        for label in ["nosuch:3", ""] {
            assert_clean_error(&[experiment, "--topologies", label]);
        }
    }
}

/// F6 crashes agents 0 and 1, and F8's churn scripts name agents 0, 1
/// and 2, so a network with fewer agents cannot run them; neither can a
/// fault plan with a zero horizon or a drop rate of 1 or more.
#[test]
fn scripts_that_do_not_fit_are_errors() {
    for args in [
        &["f6", "--sizes", "1"][..],
        &["f8", "--sizes", "2"],
        &["f8", "--topologies", "pair:uniform:2:1"],
        &["f6", "--horizon", "0"],
        &["f6", "--drops", "1.5"],
        &["f8", "--drop", "0.4", "--horizon", "0"],
        &["f8", "--drop", "1.5"],
    ] {
        assert_clean_error(args);
    }
}
