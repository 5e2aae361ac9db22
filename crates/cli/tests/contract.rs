//! The behavioural contract: every output the reproduction's claims
//! rest on, pinned by byte length and FNV-1a 64 hash in
//! `contract.manifest` next to this file.
//!
//! Each manifest line reads `LEN HASH ARGS`: run the built `kya` with
//! `ARGS` (split at spaces), require exit status 0, and require that the
//! bytes it produced are `LEN` long and hash to `HASH`. The bytes are
//! standard output, or the file the command writes when one argument is
//! the word `FILE` (a trace or probe stream). A `"rounds_per_sec":…`
//! field is a wall-clock rate, so it is deleted before hashing.
//!
//! An argument written `1|4` runs once per count, and every count must
//! match the one line: output that must not depend on the worker or
//! thread count says so in the manifest, and a regenerated manifest
//! cannot hide a divergence.
//!
//! A mismatch reports every differing command at once, writes the
//! measured manifest to the test's scratch directory and prints the one
//! `cp` command that adopts it.

use std::path::Path;
use std::process::Command;

const MANIFEST: &str = include_str!("contract.manifest");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `bytes` with every `"rounds_per_sec":VALUE` field and one adjacent
/// comma removed.
fn without_timing(bytes: Vec<u8>) -> Vec<u8> {
    const KEY: &[u8] = b"\"rounds_per_sec\":";
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i..].starts_with(KEY) {
            out.push(bytes[i]);
            i += 1;
            continue;
        }
        i += KEY.len();
        while i < bytes.len() && !matches!(bytes[i], b',' | b'}') {
            i += 1;
        }
        if bytes.get(i) == Some(&b',') {
            i += 1;
        } else if out.last() == Some(&b',') {
            out.pop();
        }
    }
    out
}

/// Run `kya ARGV` and return the bytes it pins, or why it failed.
fn measure(argv: &[&str]) -> Result<Vec<u8>, String> {
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract.out");
    let _ = std::fs::remove_file(&file);
    let out = Command::new(env!("CARGO_BIN_EXE_kya"))
        .args(argv.iter().map(|&a| match a {
            "FILE" => file.as_os_str(),
            a => a.as_ref(),
        }))
        .output()
        .map_err(|e| format!("cannot run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "exit status {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let bytes = if argv.contains(&"FILE") {
        std::fs::read(&file).map_err(|e| format!("cannot read its FILE: {e}"))?
    } else {
        out.stdout
    };
    Ok(without_timing(bytes))
}

/// One argument list per alternative of the line's `A|B` argument.
fn expand(args: &str) -> Vec<Vec<&str>> {
    let words: Vec<&str> = args.split_whitespace().collect();
    let Some(at) = words.iter().position(|w| w.contains('|')) else {
        return vec![words];
    };
    words[at]
        .split('|')
        .map(|alt| {
            let mut argv = words.clone();
            argv[at] = alt;
            argv
        })
        .collect()
}

#[test]
fn every_output_matches_the_manifest() {
    let mut wrong = Vec::new();
    let mut measured = String::new();
    for line in MANIFEST.lines() {
        if line.is_empty() || line.starts_with('#') {
            measured.push_str(line);
            measured.push('\n');
            continue;
        }
        let mut fields = line.splitn(3, ' ');
        let (Some(len), Some(hash), Some(args)) = (fields.next(), fields.next(), fields.next())
        else {
            panic!("manifest line `{line}` is not `LEN HASH ARGS`");
        };
        let pin = (
            len.parse::<usize>().expect("LEN is a number"),
            u64::from_str_radix(hash, 16).expect("HASH is hexadecimal"),
        );
        let mut first = None;
        for argv in expand(args) {
            let command = format!("kya {}", argv.join(" "));
            match measure(&argv) {
                Err(why) => wrong.push(format!("{command}: {why}")),
                Ok(bytes) => {
                    let got = (bytes.len(), fnv1a(&bytes));
                    if got != pin {
                        wrong.push(format!("{command}: measured {} {:016x}", got.0, got.1));
                    }
                    first.get_or_insert(got);
                }
            }
        }
        let (len, hash) = first.unwrap_or(pin);
        measured.push_str(&format!("{len} {hash:016x} {args}\n"));
    }
    if !wrong.is_empty() {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract.manifest");
        std::fs::write(&path, measured).expect("the measured manifest is written");
        panic!(
            "{} output(s) differ from the manifest:\n{}\n\n\
             If every change is intended, adopt the measured manifest with\n  cp {} {}",
            wrong.len(),
            wrong.join("\n"),
            path.display(),
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/contract.manifest"),
        );
    }
}
