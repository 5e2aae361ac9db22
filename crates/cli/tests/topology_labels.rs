//! A bad `--topologies` label ends every label-driven sweep with a
//! `kya:` message and exit status 1 before any cell runs, not with a
//! panic inside a cell.

use std::process::Command;

#[test]
fn bad_topology_labels_are_errors() {
    for experiment in ["f1", "f2", "f4", "f5", "f6", "f7", "f8"] {
        for label in ["nosuch:3", ""] {
            let out = Command::new(env!("CARGO_BIN_EXE_kya"))
                .args(["sweep", experiment, "--topologies", label])
                .output()
                .expect("kya runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("kya sweep {experiment} --topologies `{label}`");
            assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
            assert!(stderr.starts_with("kya: "), "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        }
    }
}
