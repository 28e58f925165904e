//! The committed JSON baselines under `examples/fixtures/` must match
//! what the lint pipeline produces today — the same comparison CI makes
//! by running the `lint` example with `--json` and diffing. Regenerate a
//! stale baseline with
//!
//! ```sh
//! cargo run --example lint -- --json examples/fixtures/<name>.sql \
//!     > examples/fixtures/<name>.json
//! ```

use receivers::lint::PassManager;
use receivers::sql::catalog::{employee_catalog, Catalog};
use receivers::sql::{analyze_statement, compile, compile_program, parse_program, SqlStatement};

/// The fixtures linted against the built-in Section 7 employee catalog:
/// name, program, JSON baseline.
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "section7",
        include_str!("../examples/fixtures/section7.sql"),
        include_str!("../examples/fixtures/section7.json"),
    ),
    (
        "deadcode",
        include_str!("../examples/fixtures/deadcode.sql"),
        include_str!("../examples/fixtures/deadcode.json"),
    ),
    (
        "simple",
        include_str!("../examples/fixtures/simple.sql"),
        include_str!("../examples/fixtures/simple.json"),
    ),
    (
        "sat",
        include_str!("../examples/fixtures/sat.sql"),
        include_str!("../examples/fixtures/sat.json"),
    ),
    (
        "deadcode_guarded",
        include_str!("../examples/fixtures/deadcode_guarded.sql"),
        include_str!("../examples/fixtures/deadcode_guarded.json"),
    ),
    (
        "shardable",
        include_str!("../examples/fixtures/shardable.sql"),
        include_str!("../examples/fixtures/shardable.json"),
    ),
    (
        "scoping",
        include_str!("../examples/fixtures/scoping.sql"),
        include_str!("../examples/fixtures/scoping.json"),
    ),
    (
        "typing",
        include_str!("../examples/fixtures/typing.sql"),
        include_str!("../examples/fixtures/typing.json"),
    ),
    (
        "live_guard_write",
        include_str!("../examples/fixtures/live_guard_write.sql"),
        include_str!("../examples/fixtures/live_guard_write.json"),
    ),
    (
        "live_guard_delete",
        include_str!("../examples/fixtures/live_guard_delete.sql"),
        include_str!("../examples/fixtures/live_guard_delete.json"),
    ),
    (
        "deadcode_implied",
        include_str!("../examples/fixtures/deadcode_implied.sql"),
        include_str!("../examples/fixtures/deadcode_implied.json"),
    ),
    (
        "set_row_alias",
        include_str!("../examples/fixtures/set_row_alias.sql"),
        include_str!("../examples/fixtures/set_row_alias.json"),
    ),
];

#[test]
fn fixture_json_baselines_are_current() {
    let (_es, catalog) = employee_catalog();
    let pm = PassManager::with_default_passes();
    for (name, sql, baseline) in FIXTURES {
        // The CLI emits the JSON through `println!`, hence the newline.
        let got = pm.lint_source(sql, &catalog).render_json() + "\n";
        assert_eq!(
            got, *baseline,
            "stale baseline examples/fixtures/{name}.json — regenerate with the lint example"
        );
    }
}

/// The `--catalog` path: the library fixture lints against a catalog
/// parsed from its description file, not the built-in employee one.
/// Regenerate with
///
/// ```sh
/// cargo run --example lint -- --json --catalog examples/fixtures/library.cat \
///     examples/fixtures/library.sql > examples/fixtures/library.json
/// ```
#[test]
fn described_catalog_baseline_is_current() {
    let catalog = Catalog::parse(include_str!("../examples/fixtures/library.cat")).unwrap();
    let pm = PassManager::with_default_passes();
    let got = pm
        .lint_source(include_str!("../examples/fixtures/library.sql"), &catalog)
        .render_json()
        + "\n";
    assert_eq!(
        got,
        include_str!("../examples/fixtures/library.json"),
        "stale baseline examples/fixtures/library.json — regenerate with the lint example"
    );
}

/// R0201 is the planner's netting rule: on every fixture program that
/// compiles, the lint reports a dead assignment exactly at the stages
/// `compile_program` nets.
#[test]
fn dead_assignments_are_the_netted_stages() {
    let (_es, catalog) = employee_catalog();
    let pm = PassManager::with_default_passes();
    let mut compiled = 0;
    for (name, sql, _) in FIXTURES {
        let program = parse_program(sql).unwrap();
        let stmts: Vec<SqlStatement> = program.iter().map(|s| s.stmt.clone()).collect();
        let Ok(plan) = compile_program(&stmts, &catalog) else {
            continue;
        };
        compiled += 1;
        let netted: Vec<_> = plan
            .stages()
            .iter()
            .zip(&program)
            .filter(|(stage, _)| stage.netted())
            .map(|(_, s)| Some(s.span))
            .collect();
        let dead: Vec<_> = pm
            .lint_source(sql, &catalog)
            .with_code("R0201")
            .iter()
            .map(|d| d.span)
            .collect();
        assert_eq!(dead, netted, "{name}");
    }
    assert!(compiled >= 5, "only {compiled} fixture programs compile");
}

/// A set statement's row binds as `t` wherever a statement is resolved:
/// the `set_row_alias` fixture's `t.`-qualified statements net, color and
/// lint exactly as their unqualified spelling.
#[test]
fn qualified_set_rows_net_and_color_as_unqualified() {
    let (_es, catalog) = employee_catalog();
    let pm = PassManager::with_default_passes();
    let qualified = include_str!("../examples/fixtures/set_row_alias.sql");
    let plain = qualified
        .replace("t.Salary", "Salary")
        .replace("t.EmpId", "EmpId");
    assert_ne!(qualified, plain);
    let verdicts = |sql: &str| {
        let stmts: Vec<SqlStatement> = parse_program(sql)
            .unwrap()
            .into_iter()
            .map(|s| s.stmt)
            .collect();
        let plan = compile_program(&stmts, &catalog).unwrap();
        let netted: Vec<_> = plan.stages().iter().map(|s| s.netted_by()).collect();
        let colorings: Vec<_> = stmts
            .iter()
            .map(|s| {
                let a = analyze_statement(&compile(s, &catalog).unwrap()).unwrap();
                (a.coloring, a.simple, format!("{:?}", a.verdict))
            })
            .collect();
        let lints: Vec<_> = pm
            .lint_source(sql, &catalog)
            .diagnostics
            .into_iter()
            .map(|d| (d.code.code, d.message, d.notes.len()))
            .collect();
        (netted, colorings, lints)
    };
    let (netted, colorings, lints) = verdicts(qualified);
    assert_eq!(netted, [None, Some(2), None], "the guard pair nets");
    assert_eq!((netted, colorings, lints), verdicts(&plain));
}
