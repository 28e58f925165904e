//! Seeded mutation suite for the SQL front end: every text maps to a
//! value or an `SqlError`, never to a panic.
//!
//! The seeds are the statement texts of the SQL fixtures under
//! `examples/fixtures` (each with its sibling catalog, or the Section 7
//! employee catalog) and of the `tests/common` statement pool. Each trial
//! mutates one of them — bytes flipped, inserted, deleted or duplicated,
//! or whole words swapped for names and keywords from the other texts, so
//! that many mutants still parse and reach the compiler — and runs it
//! through `parse`, `compile` and `compile_program`, and through
//! `parse_program` spliced into its fixture. A panic anywhere fails the
//! trial with the seed and the mutant. The sweep must see texts that do
//! not parse, statements that parse but do not compile, and programs
//! that compile.
//!
//! Replay one seed with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test sql_mutation`;
//! `RECEIVERS_DIFF_MUTANTS=<n>` shrinks the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::sql::catalog::employee_catalog;
use receivers::sql::{compile, compile_program, parse, parse_program, Catalog};

mod common;
use common::random_statement;

/// Default number of mutants; override with `RECEIVERS_DIFF_MUTANTS`.
const DEFAULT_MUTANTS: u64 = 20_000;

/// Base offset separating this sweep's seed space from the other suites.
const SWEEP_BASE: u64 = 0x5E7A_0000;

/// Statements drawn from the `tests/common` pool as seed texts.
const POOL_DRAWS: u64 = 64;

static UNPARSED: AtomicU64 = AtomicU64::new(0);
static REFUSED: AtomicU64 = AtomicU64::new(0);
static COMPILED: AtomicU64 = AtomicU64::new(0);

/// One seed text: a program (one or more statements) and its catalog.
struct Seed {
    label: String,
    text: String,
    catalog: Catalog,
}

fn seeds() -> Vec<Seed> {
    let (_, employees) = employee_catalog();
    let mut out = Vec::new();
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&fixtures)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    for file in files {
        let catalog = match std::fs::read_to_string(file.with_extension("cat")) {
            Ok(text) => Catalog::parse(&text).expect("fixture catalog parses"),
            Err(_) => employees.clone(),
        };
        let text = std::fs::read_to_string(&file).expect("fixture");
        for (k, s) in parse_program(&text).into_iter().flatten().enumerate() {
            out.push(Seed {
                label: format!("fixture {} statement {}", file.display(), k + 1),
                text: s.stmt.to_string(),
                catalog: catalog.clone(),
            });
        }
        out.push(Seed {
            label: format!("fixture {}", file.display()),
            text,
            catalog,
        });
    }
    for k in 0..POOL_DRAWS {
        let text = random_statement(&mut StdRng::seed_from_u64(SWEEP_BASE + k));
        out.push(Seed {
            label: format!("pool draw {k}"),
            text,
            catalog: employees.clone(),
        });
    }
    out
}

/// The words of `text`: maximal runs of identifier characters, and each
/// other non-blank character alone.
fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            out.push(std::mem::take(&mut word));
        }
        if !c.is_whitespace() {
            out.push(c.to_string());
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

/// One mutant of `text`, with `vocabulary` the words of every seed.
fn mutate(text: &str, vocabulary: &[String], rng: &mut StdRng) -> String {
    let mut out = text.to_owned();
    for _ in 0..rng.random_range(1..=3u32) {
        out = if rng.random_bool(0.5) {
            let mut words = words(&out);
            if words.is_empty() {
                words.push(String::new());
            }
            let k = rng.random_range(0..words.len());
            let word = vocabulary[rng.random_range(0..vocabulary.len())].clone();
            match rng.random_range(0..4u32) {
                0 => words[k] = word,
                1 => words.insert(k, word),
                2 => {
                    words.remove(k);
                }
                _ => {
                    let j = rng.random_range(0..words.len());
                    words.swap(k, j);
                }
            }
            words.join(" ")
        } else {
            let mut bytes = out.into_bytes();
            let k = rng.random_range(0..=bytes.len());
            match rng.random_range(0..4u32) {
                0 if k < bytes.len() => bytes[k] ^= 1 << rng.random_range(0..8u32),
                1 => bytes.insert(k, rng.random_range(0..=255u32) as u8),
                2 if k < bytes.len() => {
                    bytes.remove(k);
                }
                _ => {
                    let to = (k + rng.random_range(0..12usize)).min(bytes.len());
                    let slice = bytes[k..to].to_vec();
                    bytes.splice(k..k, slice);
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        };
    }
    out
}

/// `text` through `parse_program`, and each statement it holds through
/// `parse`, `compile` and `compile_program`. Returns whether the program
/// parsed and compiled.
fn front_end(text: &str, catalog: &Catalog) -> (bool, bool) {
    let Ok(program) = parse_program(text) else {
        return (false, false);
    };
    let stmts: Vec<_> = program.into_iter().map(|s| s.stmt).collect();
    for stmt in &stmts {
        let reparsed = parse(&stmt.to_string());
        let _ = reparsed.map(|s| compile(&s, catalog).map(|_| ()));
        let _ = compile(stmt, catalog);
    }
    (true, compile_program(&stmts, catalog).is_ok())
}

fn run_trial(seed: u64, seeds: &[Seed], vocabulary: &[String]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = &seeds[rng.random_range(0..seeds.len())];
    let mutant = mutate(&s.text, vocabulary, &mut rng);
    let result = catch_unwind(AssertUnwindSafe(|| {
        // A single statement mutated alone, as `parse` reads it.
        if let Ok(stmt) = parse(&mutant) {
            let _ = compile(&stmt, &s.catalog);
            let _ = compile_program(std::slice::from_ref(&stmt), &s.catalog);
        }
        front_end(&mutant, &s.catalog)
    }));
    match result {
        Ok((false, _)) => UNPARSED.fetch_add(1, Ordering::Relaxed),
        Ok((true, false)) => REFUSED.fetch_add(1, Ordering::Relaxed),
        Ok((true, true)) => COMPILED.fetch_add(1, Ordering::Relaxed),
        Err(_) => panic!(
            "seed {seed}: the front end panicked on a mutant of {}:\n{mutant:?}",
            s.label
        ),
    };
}

#[test]
fn mutated_statements_compile_or_fail_with_an_error() {
    let seeds = seeds();
    let mut vocabulary: Vec<String> = seeds.iter().flat_map(|s| words(&s.text)).collect();
    vocabulary.sort();
    vocabulary.dedup();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &seeds, &vocabulary);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_MUTANTS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MUTANTS);
    for k in 0..n {
        run_trial(SWEEP_BASE + k, &seeds, &vocabulary);
    }
    if n >= DEFAULT_MUTANTS {
        for (what, tally) in [
            ("texts that do not parse", &UNPARSED),
            ("programs that parse but do not compile", &REFUSED),
            ("programs that compile", &COMPILED),
        ] {
            assert!(tally.load(Ordering::Relaxed) > 0, "the sweep saw no {what}");
        }
    }
}
