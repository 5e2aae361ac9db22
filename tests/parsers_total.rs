//! Every user-facing parser is total: on any label built from the
//! grammars' tokens it returns `Ok`/`Err` (or `Some`/`None`) and never
//! panics.
//!
//! Labels are shaped like the grammars — `family:N`, `family:NxN`,
//! `family:N:N:N`, value lists, churn windows — or are free token soup
//! (operands joined by separators). Numbers come from two pools: small
//! sizes, and the edges of the integer types (2^32 − 1, 2^32, 2^64 − 1
//! and digit strings past `u64`). Small numbers stay at most 4, and no
//! two numbers are ever adjacent, so any label that parses builds at
//! most a few thousand agents.

use kya_conformance::{CheckKind, Matrix};
use kya_harness::{parse_graph, parse_values, Args, ChurnSpec};
use kya_runtime::{Backend, BandwidthCap};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The graph families of `parse_graph`.
const FAMILIES: &[&str] = &[
    "ring",
    "biring",
    "star",
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
        shape in 0usize..6,
        words in collection::vec(any::<u64>(), 32),
    ) {
        let s = label(shape, words);
        total("parse_graph", &s, || parse_graph(&s).map(|g| g.n()));
        total("parse_values", &s, || parse_values(&s));
        total("ChurnSpec::parse", &s, || ChurnSpec::parse(&s));
        total("BandwidthCap::parse", &s, || BandwidthCap::parse(&s));
        total("BandwidthCap::from_str", &s, || s.parse::<BandwidthCap>());
        total("Backend::parse", &s, || Backend::parse(&s));
        total("Backend::from_str", &s, || s.parse::<Backend>());
        total("CheckKind::parse", &s, || CheckKind::parse(&s));
        total("Matrix::parse", &s, || Matrix::parse(&s));
        args_total(&s);
    }
}
