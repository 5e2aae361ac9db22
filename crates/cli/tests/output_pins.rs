//! Byte pins of the `kya faults`, `kya churn` and `kya bandwidth`
//! standard output, text and `--json`.
//!
//! Each case runs the built `kya` binary and compares the length and the
//! FNV-1a 64 hash of everything it printed. The invocations are the
//! README examples, the CI smoke runs and the inputs of the CLI's own
//! unit tests, so a changed byte in any of these reports fails here,
//! under the scenario's test name.

use std::process::Command;

/// One pinned invocation: the subcommand's arguments (split at spaces),
/// the byte length of its standard output and the FNV-1a 64 hash of
/// those bytes.
type Pin = (&'static str, usize, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `kya SUBCOMMAND ARGS` for every pin and report every mismatch at
/// once, with the measured values.
fn check(subcommand: &str, pins: &[Pin]) {
    let mut wrong = Vec::new();
    for &(args, len, hash) in pins {
        let out = Command::new(env!("CARGO_BIN_EXE_kya"))
            .arg(subcommand)
            .args(args.split_whitespace())
            .output()
            .expect("kya runs");
        assert!(
            out.status.success(),
            "kya {subcommand} {args} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = (out.stdout.len(), fnv1a(&out.stdout));
        if got != (len, hash) {
            wrong.push(format!(
                "kya {subcommand} {args}: measured ({}, 0x{:016x})",
                got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "output changed:\n{}", wrong.join("\n"));
}

#[test]
fn faults_output_is_pinned() {
    check(
        "faults",
        &[
            // README example.
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --crash 2:10:40",
                409,
                0x3a78b4416e22c058,
            ),
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --crash 2:10:40 --json",
                9220,
                0x033e11e5bf2ab760,
            ),
            // The unit-test inputs: seeded drops, the plain negative
            // control, crash-recover plus crash-stop.
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --rounds 200 --seed 7",
                372,
                0x7ae6b5abbb9b6ec2,
            ),
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --rounds 200 --seed 7 --json",
                6258,
                0x442d47f7402305e4,
            ),
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --rounds 200 --plain",
                373,
                0xb4bae2d8ff2b260e,
            ),
            (
                "--graph biring:6 --values 3,1,4,1,5,9 --drop 0.3 --rounds 200 --plain --json",
                4512,
                0x66f66711cd157ec6,
            ),
            (
                "--graph complete:4 --values 8,0,0,0 --crash 1:5:15,2:30:-",
                400,
                0x36c2f5a76f70230f,
            ),
            (
                "--graph complete:4 --values 8,0,0,0 --crash 1:5:15,2:30:- --json",
                1704,
                0x453f102995e041b9,
            ),
            // Duplication, an explicit horizon and eps.
            (
                "--graph ring:5 --values 1,2,3,4,5 --dup 0.2 --until 50 --eps 1e-4",
                333,
                0x7c01e35e664cee4f,
            ),
            (
                "--graph ring:5 --values 1,2,3,4,5 --dup 0.2 --until 50 --eps 1e-4 --json",
                6333,
                0x5331b5d57f43b365,
            ),
        ],
    );
}

#[test]
fn churn_output_is_pinned() {
    check(
        "churn",
        &[
            // README example.
            ("--n 8 --values 3,1,4,1,5,9,2,6 --fairness cover --churn c1:10:30 --drop 0.2", 470, 0x8893745f8ed8a459),
            ("--n 8 --values 3,1,4,1,5,9,2,6 --fairness cover --churn c1:10:30 --drop 0.2 --json", 9843, 0xe632da690f8e0997),
            // The unit-test inputs: carry rejoin on the cover; reset
            // rejoins with drops under Metropolis.
            ("--n 6 --values 3,1,4,1,5,9 --fairness cover --churn c1:10:30 --rounds 200", 477, 0xdfe61a04b24f4bb5),
            ("--n 6 --values 3,1,4,1,5,9 --fairness cover --churn c1:10:30 --rounds 200 --json", 6695, 0xb94038f07cfafc0c),
            ("--n 6 --values 3,1,4,1,5,9 --churn c1:10:30,2:20:45+reset --algo metropolis --drop 0.2 --rounds 200 --seed 7", 463, 0xf1003c0cd9dd226c),
            ("--n 6 --values 3,1,4,1,5,9 --churn c1:10:30,2:20:45+reset --algo metropolis --drop 0.2 --rounds 200 --seed 7 --json", 4539, 0xbd99b88501587d12),
            // A permanent departure, an explicit horizon and eps.
            ("--n 5 --values 1,2,3,4,5 --churn c0:30:- --until 40 --eps 1e-4", 458, 0xd3e5e7f605ad143c),
            ("--n 5 --values 1,2,3,4,5 --churn c0:30:- --until 40 --eps 1e-4 --json", 7176, 0x1c503d804c20ec6c),
        ],
    );
}

#[test]
fn bandwidth_output_is_pinned() {
    check(
        "bandwidth",
        &[
            // README example and the two CI smoke runs.
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 4", 504, 0x50003a3afb01a78c),
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 4 --json", 309, 0xbef9ca76a527e680),
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 4 --algo qpushsum", 504, 0x50003a3afb01a78c),
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 4 --algo qpushsum --json", 309, 0xbef9ca76a527e680),
            ("--graph complete:6 --values 3,1,4,1,5,9 --bits inf --algo qmetropolis", 363, 0x73f720f197ab2831),
            ("--graph complete:6 --values 3,1,4,1,5,9 --bits inf --algo qmetropolis --json", 339, 0x6292226d6541094e),
            // Capped Metropolis, the uncapped Push-Sum rung, the default
            // cap, and inputs above 13 (the Metropolis bound follows them).
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 2 --algo qmetropolis --rounds 100", 494, 0x41ed6d08d9c0c99d),
            ("--graph biring:8 --values 3,1,4,1,5,9,2,6 --bits 2 --algo qmetropolis --rounds 100 --json", 282, 0x717747eb322aaf34),
            ("--graph complete:6 --values 3,1,4,1,5,9 --bits inf", 360, 0x27b239e24009fca2),
            ("--graph complete:6 --values 3,1,4,1,5,9 --bits inf --json", 335, 0xc7b3a2dc7b8deb23),
            ("--graph path:4 --values 20,0,7,1 --algo qmetropolis", 363, 0x9712830c4a565b14),
            ("--graph path:4 --values 20,0,7,1 --algo qmetropolis --json", 281, 0x7d9e8abe680adc85),
        ],
    );
}
