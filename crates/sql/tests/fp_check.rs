//! Regression tests for footprints of statements that qualify columns
//! with the statement's own row variable (`t.Salary`): the footprint,
//! the netting pass and the selector cache must see those reads exactly
//! as they see the unqualified ones.

use receivers_objectbase::Instance;
use receivers_relalg::view::DatabaseView;
use receivers_sql::catalog::{employee_catalog, Catalog};
use receivers_sql::parser::parse;
use receivers_sql::scenarios::section7_instance;
use receivers_sql::{compile, compile_program, footprint, CompiledStatement, SqlStatement};

/// Each statement on its own, through `sql::compile`'s two-phase `apply`
/// — the semantics the compiled program must preserve.
fn one_at_a_time(stmts: &[SqlStatement], catalog: &Catalog, i0: &Instance) -> Instance {
    let mut i = i0.clone();
    for stmt in stmts {
        i = match compile(stmt, catalog).unwrap() {
            CompiledStatement::SetUpdate(su) => su.apply(&i).unwrap(),
            _ => unreachable!("the programs here are set updates"),
        };
    }
    i
}

/// Compile `texts` as one program, run it through the viewed driver on
/// the Section 7 instance, and compare with one-at-a-time application.
fn assert_program_matches_oracle(texts: &[&str]) {
    let (es, catalog) = employee_catalog();
    let stmts: Vec<SqlStatement> = texts.iter().map(|t| parse(t).unwrap()).collect();
    let plan = compile_program(&stmts, &catalog).unwrap();
    let (i0, _) = section7_instance(&es);
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
    assert!(view.matches_rebuild(&i));
    assert_eq!(i, one_at_a_time(&stmts, &catalog, &i0), "{texts:#?}");
}

#[test]
fn row_variable_qualified_reads_match_unqualified_ones() {
    let (es, catalog) = employee_catalog();
    for (unqualified, qualified) in [
        (
            "for each t in Employee do if Salary in table Fire update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = EmpId)",
            "for each t in Employee do if t.Salary in table Fire update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = t.EmpId)",
        ),
        (
            "update Employee set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
             where Salary in table Fire",
            "update Employee set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = t.EmpId) \
             where t.Salary in table Fire",
        ),
        (
            "update Employee set Salary = (select New from NewSal where Old = Salary)",
            "update Employee set Salary = (select New from NewSal where Old = t.Salary)",
        ),
    ] {
        let unq = footprint(&parse(unqualified).unwrap(), &catalog);
        let qual = footprint(&parse(qualified).unwrap(), &catalog);
        assert!(unq.reads.contains(&es.salary), "{unqualified}");
        assert_eq!(unq.reads, qual.reads, "{qualified}");
        assert_eq!(unq.write, qual.write, "{qualified}");
    }
}

/// Stage 2's guard reads the salary stage 1 writes, so stage 1 is not a
/// dead store although stage 3 overwrites every salary.
#[test]
fn qualified_guard_read_blocks_netting() {
    let program = [
        "update Employee set Salary = (select New from NewSal)",
        "update Employee set Manager = \
         (select E1.EmpId from Employee E1 where E1.Manager = EmpId) \
         where t.Salary in table Fire",
        "update Employee set Salary = (select Amount from Fire)",
    ];
    let (_, catalog) = employee_catalog();
    let stmts: Vec<SqlStatement> = program.iter().map(|t| parse(t).unwrap()).collect();
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert!(
        !plan.stages()[0].netted(),
        "stage 2 reads the stored salary"
    );
    assert_program_matches_oracle(&program);
}

/// Stages 1 and 3 share one selector slot; stage 2 rewrites the salaries
/// that guard reads, so stage 3 must evaluate it again rather than reuse
/// the rows cached for stage 1.
#[test]
fn qualified_guard_read_invalidates_the_selector_cache() {
    let program = [
        "update Employee set Manager = \
         (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
         where t.Salary in table Fire",
        "update Employee set Salary = (select Amount from Fire)",
        "update Employee set Manager = \
         (select E1.EmpId from Employee E1 where E1.Manager = EmpId) \
         where t.Salary in table Fire",
    ];
    let (_, catalog) = employee_catalog();
    let stmts: Vec<SqlStatement> = program.iter().map(|t| parse(t).unwrap()).collect();
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert_eq!(plan.stages()[0].selector(), plan.stages()[2].selector());
    assert_program_matches_oracle(&program);
}
