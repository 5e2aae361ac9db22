//! A bad `--topologies` label, or a fault or churn script that does not
//! fit its network, ends every label-driven sweep with a `kya:` message
//! and exit status 1 before any cell runs, not with a panic inside a
//! cell. And every sweep ends, at every network size.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Run `kya sweep ARGS`, killing it after a minute; returns its exit
/// code (`None` when killed) and its standard error.
fn sweep(args: &[&str]) -> (Option<i32>, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let log = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep{run}.err"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_kya"))
        .arg("sweep")
        .args(args)
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&log).expect("stderr log"))
        .spawn()
        .expect("kya runs");
    let start = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("kya is waited on") {
            break status.code();
        }
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kya is killed");
            child.wait().expect("kya is reaped");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (code, std::fs::read_to_string(&log).unwrap_or_default())
}

/// Run `kya sweep ARGS`, assert it fails cleanly, and return its
/// standard error.
fn assert_clean_error(args: &[&str]) -> String {
    let (code, stderr) = sweep(args);
    let case = format!("kya sweep {args:?}");
    assert_eq!(code, Some(1), "{case}: {stderr}");
    assert!(stderr.starts_with("kya: "), "{case}: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    stderr
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
/// fault plan with a zero horizon or a drop rate of 1 or more, nor the
/// flat sweep on zero threads.
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
        &["flat", "--threads", "0"],
    ] {
        assert_clean_error(args);
    }
}

/// Table 1's cells run a fixed set of networks, so every axis flag they
/// would ignore is an error that names the flag, where it used to rerun
/// the same verdicts under a label they never read.
#[test]
fn flags_table1_ignores_are_errors() {
    for (flag, value) in [
        ("--sizes", "0,5"),
        ("--topologies", "ring:5"),
        ("--seeds", "1,2"),
        ("--seed", "7"),
        ("--rounds", "10"),
        ("--eps", "0.1"),
        ("--engine", "flat"),
    ] {
        let stderr = assert_clean_error(&["table1", flag, value]);
        assert!(stderr.contains(flag), "kya sweep table1 {flag}: {stderr}");
    }
}

/// At zero, one, two and three agents every sweep ends within a minute,
/// with every cell passing or with a `kya:` error before any cell runs:
/// no generator loops forever, no bound misses a tiny network, and no
/// panic.
#[test]
fn every_sweep_ends_at_every_size() {
    let mut wrong = Vec::new();
    let experiments = [
        "table1", "table2", "f1", "f2", "f4", "f5", "f6", "f7", "f8", "flat",
    ];
    for experiment in experiments {
        for size in ["0", "1", "2", "3"] {
            let (code, stderr) = sweep(&[experiment, "--sizes", size]);
            let clean = match code {
                Some(0) => true,
                Some(1) => stderr.starts_with("kya: ") && !stderr.contains("FAILED"),
                _ => false,
            };
            if !clean {
                wrong.push(format!(
                    "kya sweep {experiment} --sizes {size}: exit {code:?}: {stderr}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// F4 and F5 give a symmetric network only the extra pairs it has room
/// for, so at two and three agents they run their cells instead of
/// ending with an error.
#[test]
fn small_symmetric_sweeps_run_their_cells() {
    for experiment in ["f4", "f5"] {
        for size in ["2", "3"] {
            let (code, stderr) = sweep(&[experiment, "--sizes", size]);
            assert_eq!(
                code,
                Some(0),
                "kya sweep {experiment} --sizes {size}: {stderr}"
            );
        }
    }
}
