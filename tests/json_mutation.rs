//! Seeded mutation suite for the JSON reader: every text maps to a
//! `Value` or to an error that names a byte offset of the text, never to
//! a panic or a stack overflow.
//!
//! The seeds are the committed lint baselines `examples/fixtures/*.json`
//! (the exporters' shape: nested objects, arrays, strings, integers).
//! Each trial mutates one of them — bytes flipped, inserted, deleted or
//! duplicated, JSON tokens inserted (brackets, quotes, escapes, number
//! and literal fragments), spans of another fixture spliced in, and now
//! and then a run of opening brackets or `{"k":` members past
//! `json::MAX_DEPTH` — and runs it through `Value::parse`. A panic
//! fails the trial with the seed and the mutant; an error must end in
//! `at byte N` with `N` at most the text's length. The sweep must see
//! mutants that parse, mutants that do not, and mutants refused for
//! their depth. A fixed case nests 100,000 brackets.
//!
//! Replay one seed with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test json_mutation`;
//! `RECEIVERS_DIFF_MUTANTS=<n>` shrinks the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::obs::json::{Value, MAX_DEPTH};

/// Default number of mutants; override with `RECEIVERS_DIFF_MUTANTS`.
const DEFAULT_MUTANTS: u64 = 20_000;

/// Base offset separating this sweep's seed space from the other suites.
const SWEEP_BASE: u64 = 0x5E7E_0000;

/// Fragments a mutation may insert: structure, string escapes, and
/// pieces of numbers and literals.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\u12",
    "\\ud800",
    "-",
    "0",
    "1e",
    "1e999",
    "-.",
    "18446744073709551616",
    "null",
    "nul",
    "true",
    "fals",
    " ",
    "\n",
    "é",
    "\u{1F600}",
];

static PARSED: AtomicU64 = AtomicU64::new(0);
static REFUSED: AtomicU64 = AtomicU64::new(0);
static TOO_DEEP: AtomicU64 = AtomicU64::new(0);

/// The committed JSON fixtures, each checked to parse.
fn seeds() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("fixture");
            Value::parse(&text).expect("fixture parses");
            (p.display().to_string(), text)
        })
        .collect()
}

/// One mutant of `text`, with `others` every seed.
fn mutate(text: &str, others: &[(String, String)], rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.random_range(1..=3u32) {
        let k = rng.random_range(0..=bytes.len());
        match rng.random_range(0..16u32) {
            0..=2 if k < bytes.len() => bytes[k] ^= 1 << rng.random_range(0..8u32),
            3 => bytes.insert(k, rng.random_range(0..=255u32) as u8),
            4..=5 if k < bytes.len() => {
                let to = (k + rng.random_range(1..8usize)).min(bytes.len());
                bytes.drain(k..to);
            }
            6 => {
                let to = (k + rng.random_range(0..12usize)).min(bytes.len());
                let slice = bytes[k..to].to_vec();
                bytes.splice(k..k, slice);
            }
            7..=11 => {
                let token = TOKENS[rng.random_range(0..TOKENS.len())];
                bytes.splice(k..k, token.bytes());
            }
            12..=14 => {
                let other = others[rng.random_range(0..others.len())].1.as_bytes();
                let from = rng.random_range(0..other.len());
                let to = (from + rng.random_range(1..64usize)).min(other.len());
                bytes.splice(k..k, other[from..to].iter().copied());
            }
            _ => {
                let unit = if rng.random_bool(0.5) { "[" } else { "{\"k\":" };
                let depth = rng.random_range(MAX_DEPTH - 2..=MAX_DEPTH + 2);
                bytes.splice(k..k, unit.repeat(depth).into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` parses, or fails with an error ending in `at byte N`, `N` an
/// offset of `text`; otherwise the trial fails, naming `what`.
fn check(text: &str, what: &dyn Fn() -> String) {
    match catch_unwind(AssertUnwindSafe(|| Value::parse(text))) {
        Ok(Ok(_)) => {
            PARSED.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Err(e)) => {
            let at = e
                .rsplit_once(" at byte ")
                .and_then(|(_, at)| at.parse::<usize>().ok());
            assert!(
                at.is_some_and(|at| at <= text.len()),
                "{}: error {e:?} names no byte offset of the text",
                what()
            );
            if e.starts_with("nesting deeper than") {
                TOO_DEEP.fetch_add(1, Ordering::Relaxed);
            }
            REFUSED.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => panic!("{}: the JSON reader panicked", what()),
    }
}

fn run_trial(seed: u64, seeds: &[(String, String)]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (label, text) = &seeds[rng.random_range(0..seeds.len())];
    let mutant = mutate(text, seeds, &mut rng);
    check(&mutant, &|| {
        format!("seed {seed}, a mutant of {label}:\n{mutant:?}")
    });
}

#[test]
fn mutated_json_parses_or_fails_with_an_offset() {
    let seeds = seeds();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &seeds);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_MUTANTS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MUTANTS);
    for k in 0..n {
        run_trial(SWEEP_BASE + k, &seeds);
    }
    if n >= DEFAULT_MUTANTS {
        for (what, tally) in [
            ("mutants that parse", &PARSED),
            ("mutants that do not parse", &REFUSED),
            ("mutants refused for their depth", &TOO_DEEP),
        ] {
            assert!(tally.load(Ordering::Relaxed) > 0, "the sweep saw no {what}");
        }
    }
}

/// 100,000 nested brackets, and as many nested members, are an error at
/// the first bracket past the bound, not a stack overflow.
#[test]
fn deep_nesting_is_an_error_at_the_bound() {
    let deeper = |at: usize| Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
    assert_eq!(Value::parse(&"[".repeat(100_000)), deeper(MAX_DEPTH));
    let members = "{\"k\":".repeat(100_000) + "1" + &"}".repeat(100_000);
    assert_eq!(Value::parse(&members), deeper(5 * MAX_DEPTH));
}
