//! Seeded mutation suite for the catalog front end: every catalog
//! description maps to a `Catalog` or an `SqlError`, never to a panic.
//!
//! The seeds are the catalog descriptions the repository reads:
//! `examples/fixtures/*.cat` and the Section 7 employee catalog written
//! out in the same format. Each trial mutates one of them — bytes
//! flipped, inserted, deleted or duplicated, whole lines duplicated,
//! dropped or swapped, and words swapped for names and directives from
//! the other descriptions, so that many mutants still parse — and runs
//! it through `Catalog::parse`. A mutant that parses is a catalog the
//! SQL front end must take too: the statements of every SQL fixture go
//! through `compile_program` against it, and each program that compiles
//! runs on a small seeded instance of its schema, where it must apply or
//! fail with an error and leave the instance as it was. A panic anywhere
//! fails the trial with the seed and the mutant. The sweep must see
//! descriptions that do not parse, catalogs that parse, and programs
//! that compile and run against a mutated catalog.
//!
//! Replay one seed with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test catalog_mutation`;
//! `RECEIVERS_DIFF_MUTANTS=<n>` shrinks the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::objectbase::gen::{random_instance, InstanceParams};
use receivers::relalg::view::DatabaseView;
use receivers::sql::{compile_program, parse_program, Catalog, SqlStatement};

/// Default number of mutants; override with `RECEIVERS_DIFF_MUTANTS`.
const DEFAULT_MUTANTS: u64 = 10_000;

/// Base offset separating this sweep's seed space from the other suites.
const SWEEP_BASE: u64 = 0x5E7C_0000;

/// The Section 7 employee catalog as a description file.
const SECTION7: &str = "\
class Employee
class Amount
class Fire
class NewSal
prop Employee salary Amount
prop Employee manager Employee
prop Fire fireAmount Amount
prop NewSal old Amount
prop NewSal new Amount
table Employee Employee EmpId Salary=salary Manager=manager
table Fire Fire FireId Amount=fireAmount
table NewSal NewSal NewSalId Old=old New=new
";

static UNPARSED: AtomicU64 = AtomicU64::new(0);
static PARSED: AtomicU64 = AtomicU64::new(0);
static RAN: AtomicU64 = AtomicU64::new(0);

fn fixtures() -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    files.sort();
    files
}

/// The seed descriptions: every fixture catalog and the Section 7 one.
fn seeds() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fixtures()
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "cat"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("fixture catalog");
            Catalog::parse(&text).expect("fixture catalog parses");
            (p.display().to_string(), text)
        })
        .collect();
    out.push(("the Section 7 catalog".to_owned(), SECTION7.to_owned()));
    out
}

/// Every SQL fixture's statements, each fixture one program.
fn programs() -> Vec<Vec<SqlStatement>> {
    fixtures()
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("fixture");
            parse_program(&text)
                .into_iter()
                .flatten()
                .map(|s| s.stmt)
                .collect()
        })
        .collect()
}

/// The words of `text`, split on whitespace.
fn words(text: &str) -> Vec<String> {
    text.split_whitespace().map(str::to_owned).collect()
}

/// One mutant of `text`, with `vocabulary` the words of every seed.
fn mutate(text: &str, vocabulary: &[String], rng: &mut StdRng) -> String {
    let mut out = text.to_owned();
    for _ in 0..rng.random_range(1..=3u32) {
        out = match rng.random_range(0..3u32) {
            0 => {
                let mut lines: Vec<String> = out.lines().map(str::to_owned).collect();
                if lines.is_empty() {
                    lines.push(String::new());
                }
                let k = rng.random_range(0..lines.len());
                let word = &vocabulary[rng.random_range(0..vocabulary.len())];
                let mut line = words(&lines[k]);
                let j = rng.random_range(0..=line.len());
                match rng.random_range(0..3u32) {
                    0 if j < line.len() => line[j] = word.clone(),
                    1 => line.insert(j, word.clone()),
                    _ if j < line.len() => {
                        line.remove(j);
                    }
                    _ => line.push(word.clone()),
                }
                lines[k] = line.join(" ");
                lines.join("\n")
            }
            1 => {
                let mut lines: Vec<&str> = out.lines().collect();
                if !lines.is_empty() {
                    let k = rng.random_range(0..lines.len());
                    match rng.random_range(0..3u32) {
                        0 => lines.insert(k, lines[k]),
                        1 => {
                            lines.remove(k);
                        }
                        _ => {
                            let j = rng.random_range(0..lines.len());
                            lines.swap(k, j);
                        }
                    }
                }
                lines.join("\n")
            }
            _ => {
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
            }
        };
    }
    out
}

/// `program` compiled against `catalog` and, when it compiles, run on a
/// small seeded instance of the catalog's schema: applied, or an error
/// leaving the instance as it was. Returns whether it ran.
fn run_program(program: &[SqlStatement], catalog: &Catalog, seed: u64) -> bool {
    let Ok(plan) = compile_program(program, catalog) else {
        return false;
    };
    let params = InstanceParams {
        objects_per_class: 3,
        edge_density: 0.4,
    };
    let i0 = random_instance(&catalog.schema, params, seed);
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    match plan.execute_viewed(&mut i, &mut view) {
        Ok(outcome) if outcome.is_applied() => assert!(view.matches_rebuild(&i)),
        _ => assert!(
            i == i0,
            "seed {seed}: a program not applied left the instance changed"
        ),
    }
    true
}

fn run_trial(
    seed: u64,
    seeds: &[(String, String)],
    programs: &[Vec<SqlStatement>],
    vocabulary: &[String],
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (label, text) = &seeds[rng.random_range(0..seeds.len())];
    let mutant = mutate(text, vocabulary, &mut rng);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let catalog = Catalog::parse(&mutant).ok()?;
        Some(
            programs
                .iter()
                .filter(|program| run_program(program, &catalog, seed))
                .count(),
        )
    }));
    match result {
        Ok(None) => UNPARSED.fetch_add(1, Ordering::Relaxed),
        Ok(Some(ran)) => {
            RAN.fetch_add(ran as u64, Ordering::Relaxed);
            PARSED.fetch_add(1, Ordering::Relaxed)
        }
        Err(_) => panic!(
            "seed {seed}: the catalog front end panicked on a mutant of {label}:\n{mutant:?}"
        ),
    };
}

#[test]
fn mutated_catalogs_parse_or_fail_with_an_error() {
    let seeds = seeds();
    let programs = programs();
    let mut vocabulary: Vec<String> = seeds.iter().flat_map(|(_, text)| words(text)).collect();
    vocabulary.sort();
    vocabulary.dedup();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &seeds, &programs, &vocabulary);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_MUTANTS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MUTANTS);
    for k in 0..n {
        run_trial(SWEEP_BASE + k, &seeds, &programs, &vocabulary);
    }
    if n >= DEFAULT_MUTANTS {
        for (what, tally) in [
            ("descriptions that do not parse", &UNPARSED),
            ("catalogs that parse", &PARSED),
            (
                "programs that compile and run against a mutated catalog",
                &RAN,
            ),
        ] {
            assert!(tally.load(Ordering::Relaxed) > 0, "the sweep saw no {what}");
        }
    }
}
