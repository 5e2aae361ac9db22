//! Every user-facing parser is total: on any label built from the
//! grammars' tokens it returns `Ok`/`Err` (or `Some`/`None`) and never
//! panics. `ChurnPlan::parse` and `parse_crashes` build their plans
//! through the builders, so every label they accept builds; every label
//! `parse_net` accepts builds its first round; and serialized
//! `FaultPlan`/`ChurnPlan` scripts edited into ones the builders refuse
//! fail to deserialize.
//!
//! Labels are shaped like the grammars — `family:N`, `family:NxN`,
//! `family:N:N:N`, dynamic networks, value lists, churn windows, crash
//! windows — or are free token soup
//! (operands joined by separators). Numbers come from two pools: small
//! sizes, and the edges of the integer types (2^32 − 1, 2^32, 2^64 − 1
//! and digit strings past `u64`). Small numbers stay at most 4, and no
//! two numbers are ever adjacent, so any label that parses builds at
//! most a few thousand agents.

use kya_conformance::{CheckKind, Matrix};
use kya_harness::spec::MAX_AGENTS;
use kya_harness::{parse_graph, parse_net, parse_values, Args};
use kya_runtime::churn::ChurnPlan;
use kya_runtime::faults::{parse_crashes, FaultPlan};
use kya_runtime::BandwidthCap;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The graph families of `parse_graph`.
const FAMILIES: &[&str] = &[
    "ring",
    "biring",
    "star",
    "instar",
    "path",
    "complete",
    "torus",
    "hypercube",
    "debruijn",
    "kautz",
    "layered",
    "random",
    "randbi",
];

/// Words of the other grammars (churn, matrix, backend, check and cap
/// names) plus one word no grammar knows.
const OTHER_WORDS: &[&str] = &[
    "stable",
    "c",
    "small",
    "full",
    "f64",
    "exact",
    "certified",
    "paths",
    "bandwidth",
    "b",
    "inf",
    "binf",
    "unlimited",
    "bogus",
];

const SEPARATORS: &[&str] = &[":", "x", ",", "+reset", "-"];

const SMALL: &[&str] = &["0", "1", "2", "3", "4"];

const LARGE: &[&str] = &[
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
];

/// Picks tokens with a fixed vector of random `u64`s, one per pick.
struct Draw {
    words: Vec<u64>,
    next: usize,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        let w = self.words[self.next % self.words.len()];
        self.next += 1;
        (w % n as u64) as usize
    }

    fn pick(&mut self, from: &[&'static str]) -> &'static str {
        from[self.below(from.len())]
    }

    /// A small or a large number, with equal odds.
    fn number(&mut self) -> &'static str {
        let i = self.below(SMALL.len() + LARGE.len());
        SMALL
            .get(i)
            .copied()
            .unwrap_or_else(|| LARGE[i - SMALL.len()])
    }

    fn word(&mut self) -> &'static str {
        let i = self.below(FAMILIES.len() + OTHER_WORDS.len());
        FAMILIES
            .get(i)
            .copied()
            .unwrap_or_else(|| OTHER_WORDS[i - FAMILIES.len()])
    }

    fn operand(&mut self) -> &'static str {
        if self.below(2) == 0 {
            self.number()
        } else {
            self.word()
        }
    }
}

/// One label of the given shape, its tokens picked with `words`.
fn label(shape: usize, words: Vec<u64>) -> String {
    let mut d = Draw { words, next: 0 };
    let mut s = String::new();
    match shape {
        0 => {
            s += d.pick(FAMILIES);
            s += ":";
            s += d.number();
        }
        1 => {
            s += d.pick(FAMILIES);
            s += ":";
            s += d.number();
            s += "x";
            s += d.number();
        }
        2 => {
            s += d.pick(FAMILIES);
            for _ in 0..3 {
                s += ":";
                s += d.number();
            }
        }
        3 => {
            // A value list: `N` or `NxN` items.
            for i in 0..=d.below(4) {
                if i > 0 {
                    s += ",";
                }
                s += d.number();
                if d.below(2) == 0 {
                    s += "x";
                    s += d.number();
                }
            }
        }
        4 => {
            // Churn windows `AGENT:LEAVE:REJOIN`, `-` for a departure.
            s += "c";
            for i in 0..=d.below(3) {
                if i > 0 {
                    s += ",";
                }
                s += d.number();
                s += ":";
                s += d.number();
                s += ":";
                s += if d.below(3) == 0 { "-" } else { d.number() };
            }
            if d.below(2) == 0 {
                s += "+reset";
            }
        }
        6 if d.below(4) == 0 => {
            // A periodic network `periodic:N`.
            s += "periodic:";
            s += d.number();
        }
        6 => {
            // Dynamic networks `dyn:KIND:N:N:N` or `pair:KIND:N:N`, a
            // kind word of either family, after an optional
            // `async:N:N:` or `sparse:N:N:`.
            if d.below(2) == 0 {
                s += d.pick(&["async:", "sparse:"]);
                s += d.number();
                s += ":";
                s += d.number();
                s += ":";
            }
            let (head, fields) = [("dyn", 3), ("pair", 2)][d.below(2)];
            s += head;
            s += ":";
            s += d.pick(&["directed", "symmetric", "uniform", "cover"]);
            for _ in 0..fields {
                s += ":";
                s += d.number();
            }
        }
        5 => {
            // Crash windows `AGENT:FROM:UNTIL`, `-` for a crash-stop.
            for i in 0..=d.below(3) {
                if i > 0 {
                    s += ",";
                }
                s += d.number();
                s += ":";
                s += d.number();
                s += ":";
                s += if d.below(3) == 0 { "-" } else { d.number() };
            }
        }
        _ => {
            // Token soup: operands joined by separators.
            s += d.operand();
            for _ in 0..d.below(7) {
                s += d.pick(SEPARATORS);
                s += d.operand();
            }
        }
    }
    s
}

/// Run `parse` on `input`; fail the test, naming both, if it panics.
fn total<T>(parser: &str, input: &str, parse: impl FnOnce() -> T) {
    let outcome = catch_unwind(AssertUnwindSafe(parse));
    assert!(outcome.is_ok(), "{parser} panicked on `{input}`");
}

/// `Args::parse` and every typed accessor on flags named after the
/// label's comma-separated pieces.
fn args_total(input: &str) {
    let pieces: Vec<&str> = input.split(',').collect();
    let argv: Vec<String> = pieces
        .iter()
        .map(|p| match p.chars().next() {
            Some(c) if c.is_ascii_alphabetic() => format!("--{p}"),
            _ => p.to_string(),
        })
        .collect();
    total("Args::parse", input, || {
        let args = Args::parse(&argv);
        let _ = args.reject_unknown("check", &["graph", "values"]);
        for key in &pieces {
            let _ = args.required(key);
            let _ = args.is_set(key);
            let _ = args.f64_flag(key, 0.0);
            let _ = args.u64_flag(key, 0);
            let _ = args.usize_flag(key, 0);
            let _ = args.usize_list_flag(key, &[]);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn parsers_never_panic(
        shape in 0usize..8,
        words in collection::vec(any::<u64>(), 32),
    ) {
        let s = label(shape, words);
        total("parse_graph", &s, || parse_graph(&s).map(|g| g.n()));
        total("parse_values", &s, || parse_values(&s));
        total("ChurnPlan::parse", &s, || ChurnPlan::parse(&s));
        total("parse_crashes", &s, || parse_crashes(&s, FaultPlan::new(0)));
        total("parse_net + graph(1)", &s, || parse_net(&s).map(|net| net.graph(1).n()));
        total("BandwidthCap::parse", &s, || BandwidthCap::parse(&s));
        total("BandwidthCap::from_str", &s, || s.parse::<BandwidthCap>());
        total("CheckKind::parse", &s, || CheckKind::parse(&s));
        total("Matrix::parse", &s, || Matrix::parse(&s));
        args_total(&s);
    }
}

/// A size outside a family's range is an error, never clamped to one
/// inside it.
#[test]
fn out_of_range_network_sizes_are_rejected() {
    let past = MAX_AGENTS + 1;
    for family in ["instar", "periodic"] {
        for n in [0, past] {
            let label = format!("{family}:{n}");
            assert!(parse_net(&label).is_err(), "{label}");
        }
    }
    for label in ["instar:1", "periodic:1"] {
        assert_eq!(parse_net(label).expect(label).n(), 1, "{label}");
    }
}

/// Round 0 and empty windows: labels the churn builder rejects by panic,
/// so the parser has to reject them first.
#[test]
fn accepted_churn_labels_build() {
    for label in [
        "c1:0:5",
        "c1:15:5",
        "c1:0:-",
        "c1:5:5",
        "c0:1:3,2:0:-+reset",
    ] {
        total("ChurnPlan::parse", label, || ChurnPlan::parse(label));
    }
}

/// Serialized fault and churn scripts, edited into values their
/// builders panic on: deserialization rejects each one, as the label
/// parsers reject the same windows, so every script that deserializes
/// could have been built.
#[test]
fn edited_serialized_specs_are_rejected() {
    let plan = FaultPlan::new(11)
        .drop_links(0.25)
        .duplicate(0.5)
        .retry_within(5)
        .until(9)
        .crash(1, 3..7)
        .crash_stop(2, 4);
    let churn = ChurnPlan::default().leave(1, 3..7).depart(2, 4);
    let plan_json = serde::to_json_string(&plan);
    let churn_json = serde::to_json_string(&churn);
    let back: FaultPlan = serde::from_json_str(&plan_json).expect("unedited plan");
    assert_eq!(back, plan);
    let back: ChurnPlan = serde::from_json_str(&churn_json).expect("unedited churn");
    assert_eq!(back, churn);

    let edit = |json: &str, from: &str, to: &str| {
        assert!(json.contains(from), "`{from}` not in {json}");
        json.replacen(from, to, 1)
    };
    for (from, to, why) in [
        (r#""drop_p":0.25"#, r#""drop_p":1.0"#, "drop rate"),
        (r#""drop_p":0.25"#, r#""drop_p":-0.5"#, "drop rate"),
        (r#""dup_p":0.5"#, r#""dup_p":1.5"#, "duplication rate"),
        (r#""horizon":9"#, r#""horizon":0"#, "fault horizon"),
        (r#""retry_within":5"#, r#""retry_within":0"#, "retry bound"),
        (r#""from":3"#, r#""from":0"#, "numbered from 1"),
        (r#""until":7"#, r#""until":3"#, "is empty"),
        (r#""from":4"#, r#""from":0"#, "numbered from 1"),
    ] {
        let json = edit(&plan_json, from, to);
        let err = serde::from_json_str::<FaultPlan>(&json).expect_err(&json);
        assert!(err.to_string().contains(why), "{json}: {err}");
    }
    for (from, to, why) in [
        (r#""leave":3"#, r#""leave":0"#, "numbered from 1"),
        (r#""rejoin":7"#, r#""rejoin":3"#, "is empty"),
        (r#""rejoin":7"#, r#""rejoin":2"#, "is empty"),
        (r#""leave":4"#, r#""leave":0"#, "numbered from 1"),
    ] {
        let json = edit(&churn_json, from, to);
        let err = serde::from_json_str::<ChurnPlan>(&json).expect_err(&json);
        assert!(err.to_string().contains(why), "{json}: {err}");
    }
}
