//! The unguarded cursor updates of the improve-pass suites
//! (`improve_memo`, `cursor_waves`): seeded draws from the
//! `plan_differential` statement pool, the SQL fixtures under
//! `examples/fixtures`, the Section 7 scenarios with the cursor updates
//! the `lint` and `sql` tests compile, and one update over the library
//! catalog. `RECEIVERS_DIFF_SEED=<seed>` replaces the pool sweep by one
//! seed.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use receivers::sql::catalog::employee_catalog;
use receivers::sql::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C};
use receivers::sql::{
    compile, parse, parse_program, Catalog, CompiledStatement, CursorBody, CursorUpdate,
    SqlStatement,
};

use crate::common::random_statement;

/// Seeds drawn from the statement pool, each for `DRAWS` statements.
const SEEDS: u64 = 64;
const DRAWS: usize = 8;
const SWEEP_BASE: u64 = 0x1A9E_0000;

/// Cursor updates compiled by the `lint` and `sql` tests beyond the
/// scenarios: a qualified cursor variable, a write of `Manager`, and a
/// subquery that ignores the row; then writes of `Manager` the pool
/// lacks, reading the written column at the row itself, at the
/// manager's row, at other rows, or not at all. (A subquery with a
/// negative atom lowers to a difference, which the pass refuses as not
/// positive before any decision.)
const EXTRA: &[&str] = &[
    "for each t in Employee do update t set Salary = \
     (select New from NewSal where Old = t.Salary)",
    "for each t in Employee do update t set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId)",
    "for each t in Employee do update t set Salary = (select Amount from Fire)",
    "for each t in Employee do update t set Manager = \
     (select E1.Manager from Employee E1 where E1.EmpId = Manager)",
    "for each t in Employee do update t set Manager = \
     (select E1.Manager from Employee E1 where E1.EmpId = EmpId)",
    "for each t in Employee do update t set Manager = \
     (select E1.EmpId from Employee E1 where E1.EmpId = Manager)",
    "for each t in Employee do update t set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = Manager)",
    "for each t in Employee do update t set Manager = \
     (select E1.EmpId from Employee E1 where E1.Salary = Salary)",
    "for each t in Employee do update t set Manager = (select EmpId from Employee)",
];

/// A cursor update over a catalog that has nothing to do with Section 7.
pub const LIBRARY_UPDATE: &str =
    "for each b in Book do update b set Topic = (select Topic from Banned)";

fn is_unguarded_cursor_update(stmt: &SqlStatement) -> bool {
    matches!(
        stmt,
        SqlStatement::ForEach {
            body: CursorBody::UpdateSet {
                condition: None,
                ..
            },
            ..
        }
    )
}

pub fn cursor_update(stmt: &SqlStatement, catalog: &Catalog, label: &str) -> CursorUpdate {
    match compile(stmt, catalog) {
        Ok(CompiledStatement::CursorUpdate(cu)) => cu,
        Ok(_) => panic!("{label}: not a cursor update"),
        Err(e) => panic!("{label}: does not compile: {e}"),
    }
}

pub fn library_catalog(extra: &str) -> Catalog {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fixtures/library.cat");
    let text = std::fs::read_to_string(path).expect("library catalog");
    Catalog::parse(&format!("{text}\n{extra}")).expect("library catalog parses")
}

/// One unguarded cursor update of the suite.
pub struct Case {
    /// Where it comes from: `pool`, `fixture`, `scenario` or `library`.
    pub source: &'static str,
    /// The source, seed or file, and the statement, for messages.
    pub label: String,
    pub catalog: Catalog,
    pub stmt: SqlStatement,
}

/// Every unguarded cursor update of the suite.
pub fn corpus() -> Vec<Case> {
    let (_, employees) = employee_catalog();
    let mut out = Vec::new();

    let replay: Option<u64> = std::env::var("RECEIVERS_DIFF_SEED")
        .ok()
        .map(|s| s.parse().expect("RECEIVERS_DIFF_SEED is a decimal u64"));
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..SEEDS).map(|k| SWEEP_BASE + k).collect(),
    };
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let before = out.len();
        let mut drawn = 0;
        // A one-seed replay keeps drawing from the seed's stream until it
        // holds a pool statement, so the suites' every-source checks hold
        // for any seed; the sweep draws `DRAWS` per seed.
        while drawn < DRAWS || (replay.is_some() && out.len() == before) {
            drawn += 1;
            let text = random_statement(&mut rng);
            let stmt = parse(&text).unwrap_or_else(|e| panic!("pool statement {text}: {e}"));
            if is_unguarded_cursor_update(&stmt) {
                out.push(Case {
                    source: "pool",
                    label: format!("pool seed {seed}: {text}"),
                    catalog: employees.clone(),
                    stmt,
                });
            }
        }
    }

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
        let Ok(program) = parse_program(&text) else {
            continue; // the lint reports the syntax error
        };
        for s in program {
            // The lint reports a statement that does not compile (the
            // ill-typed assignments of `typing.sql`).
            if is_unguarded_cursor_update(&s.stmt) && compile(&s.stmt, &catalog).is_ok() {
                out.push(Case {
                    source: "fixture",
                    label: format!("fixture {}: {}", file.display(), s.stmt),
                    catalog: catalog.clone(),
                    stmt: s.stmt,
                });
            }
        }
    }

    for text in [CURSOR_UPDATE_B, CURSOR_UPDATE_C].iter().chain(EXTRA) {
        out.push(Case {
            source: "scenario",
            label: format!("scenario: {text}"),
            catalog: employees.clone(),
            stmt: parse(text).expect("scenario parses"),
        });
    }
    out.push(Case {
        source: "library",
        label: format!("library: {LIBRARY_UPDATE}"),
        catalog: library_catalog(""),
        stmt: parse(LIBRARY_UPDATE).expect("library update parses"),
    });
    out
}
