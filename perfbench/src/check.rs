//! `check_full`: the full conformance matrix, to its verdict.
//!
//! Each repetition runs `kya_conformance::run_only(Matrix::Full,
//! nproc, None)` (the timed phase) and checks that no cell failed and
//! that every cell of the matrix reported. Once per run the matrix also
//! runs at one worker, and the two NDJSON streams must have the same
//! digest. The inputs are fixed by the matrix; the seed changes nothing.
//! The `flat` and `probe` oracles run their cells at 1, 2 and 4 threads
//! by design, whatever the host's processor count.

use crate::trace::Tracer;
use crate::{median, Cfg, Outcome};
use kya_conformance::{failure_count, run_only, specs, to_ndjson, CheckKind, Matrix};
use kya_harness::ResultSink;
use std::time::Instant;

/// Every oracle kind, in matrix order, with its span name.
const KINDS: [(CheckKind, &str); 9] = [
    (CheckKind::Paths, "conformance.paths"),
    (CheckKind::Backend, "conformance.backend"),
    (CheckKind::Relabel, "conformance.relabel"),
    (CheckKind::Mass, "conformance.mass"),
    (CheckKind::Lift, "conformance.lift"),
    (CheckKind::Churn, "conformance.churn"),
    (CheckKind::Flat, "conformance.flat"),
    (CheckKind::Probe, "conformance.probe"),
    (CheckKind::Bandwidth, "conformance.bandwidth"),
];

/// Threads the `flat` and `probe` oracles step their cells at.
const ORACLE_THREADS: usize = 4;

/// Set-up repetitions: building the specs takes well under a
/// millisecond, so its median needs many samples.
const SETUP_REPS: usize = 500;

type Results = Vec<(CheckKind, ResultSink)>;

pub fn run(cfg: &Cfg, tr: &mut Tracer, out: &mut Outcome) {
    let matrix = if cfg.smoke {
        Matrix::Small
    } else {
        Matrix::Full
    };
    let workers = cfg.nproc;
    out.host("workers", workers);
    out.host("oracle_threads", "1,2,4");
    out.host("oracle_oversubscribed", ORACLE_THREADS > cfg.nproc);
    let mark = tr.len();

    // Set-up: the matrix's specs and their cell enumeration.
    let mut setup = Vec::new();
    let (mut cells, mut agent_rounds) = (0, 0u64);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let specs = specs(matrix);
        let enumerated: Vec<_> = specs
            .iter()
            .map(|(_, spec)| (spec.round_budget(), spec.cells()))
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        cells = enumerated.iter().map(|(_, c)| c.len()).sum::<usize>();
        agent_rounds = enumerated
            .iter()
            .flat_map(|(r, c)| c.iter().map(move |cell| cell.n as u64 * r))
            .sum();
    }

    let (mut wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut per_kind: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); KINDS.len()];
    let (mut spent, mut last) = (0.0, 0.0);
    while cfg.another(wall.len() + traced_wall.len(), spent, last) {
        let rep = wall.len() + traced_wall.len();
        let traced = cfg.traced && rep % 2 == 0;
        let t = Instant::now();
        let results: Results = if traced {
            let was = tr.set_enabled(true);
            let results = KINDS
                .iter()
                .flat_map(|&(kind, span)| tr.span(span, |_| run_only(matrix, workers, Some(kind))))
                .collect();
            tr.set_enabled(was);
            results
        } else {
            run_only(matrix, workers, None)
        };
        last = t.elapsed().as_secs_f64();
        spent += last;
        eprintln!("perfbench: repetition {rep}: timed {last:.4} s");
        if traced {
            traced_wall.push(last);
        } else {
            wall.push(last);
        }

        out.e2e("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        let expected_failures = usize::from(cfg.wrong);
        let failures = failure_count(&results);
        out.check(failures == expected_failures, || {
            format!("{failures} conformance cells failed")
        });
        let reported: usize = results.iter().map(|(_, sink)| sink.len()).sum();
        out.check(reported == cells, || {
            format!("{reported} cells reported, the matrix has {cells}")
        });
        for (k, (kind, _)) in KINDS.iter().enumerate() {
            let sink = results.iter().find(|(r, _)| r == kind).map(|(_, s)| s);
            per_kind[k].0.push(sink.map_or(0, |s| s.len()) as u64);
            per_kind[k]
                .1
                .push(sink.map_or(0, |s| s.failures().len()) as u64);
        }
        if rep == 0 {
            let digest = fnv1a(to_ndjson(&results).as_bytes()) ^ u64::from(cfg.wrong);
            let single = fnv1a(to_ndjson(&run_only(matrix, 1, None)).as_bytes());
            out.check(single == digest, || {
                format!("NDJSON digest {single:016x} at 1 worker, {digest:016x} at {workers}")
            });
        }
    }

    let wall_s = median(&wall);
    out.e2e("wall_s", wall_s, "s");
    out.e2e("setup_s", median(&setup), "s");
    out.e2e("agent_rounds_per_s", agent_rounds as f64 / wall_s, "1/s");
    out.e2e("cells_per_s", cells as f64 / wall_s, "1/s");
    if !cfg.traced {
        return;
    }
    out.layer("trace_overhead_s", median(&traced_wall) - wall_s, "s");
    for (k, (_, span)) in KINDS.iter().enumerate() {
        out.layer(&format!("{span}.s"), median(&tr.secs(mark, span)), "s");
        out.count(&format!("{span}.cells"), &per_kind[k].0);
        out.count(&format!("{span}.failed"), &per_kind[k].1);
    }
}

/// FNV-1a over a byte string: the digest compared across worker counts.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
