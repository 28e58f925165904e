//! Language-level coverage of the SQL layer: additional statement shapes
//! beyond the paper's scenarios, and error-path behaviour.

use receivers_core::sequential::apply_seq_unchecked;
use receivers_sql::catalog::employee_catalog;
use receivers_sql::scenarios::section7_instance;
use receivers_sql::{analyze_cursor_delete, compile, parse, CompiledStatement, SqlError};

/// `Manager = EmpId`: delete self-managed employees — an equality atom on
/// the cursor tuple only.
#[test]
fn delete_self_managed_employees() {
    let (es, catalog) = employee_catalog();
    let (i, data) = section7_instance(&es);
    let stmt = parse("delete from Employee where Manager = EmpId").unwrap();
    let CompiledStatement::SetDelete(sd) = compile(&stmt, &catalog).unwrap() else {
        panic!("expected set delete")
    };
    // Only e1 manages itself in the scenario.
    assert_eq!(sd.victims(&i).unwrap(), vec![data.employees[0]]);
    let out = sd.apply(&i).unwrap();
    assert_eq!(out.class_members(es.employee).count(), 2);
}

/// The same statement cursor-style. The condition compares Employee
/// *objects* (`Manager = EmpId`), so the coloring marks Employee both
/// `d` (deleted from) and `u` (its objects are inspected) — not simple,
/// no guarantee. The abstraction is right to be conservative: deleting an
/// employee cascades away other employees' `manager` edges, so
/// manager-reading deletes are order dependent in general. *This*
/// particular condition only ever looks at the tuple's own self-loop,
/// which is why the operational check still finds it independent — a
/// finer distinction than three colors can draw (cf. the paper's
/// Section 4.4 remark on richer annotations).
#[test]
fn cursor_delete_self_managed_shows_coloring_conservatism() {
    let (es, catalog) = employee_catalog();
    let (i, _) = section7_instance(&es);
    let stmt =
        parse("for each t in Employee do if Manager = EmpId delete t from Employee").unwrap();
    let CompiledStatement::CursorDelete(cd) = compile(&stmt, &catalog).unwrap() else {
        panic!("expected cursor delete")
    };
    let analysis = analyze_cursor_delete(&cd).unwrap();
    assert!(!analysis.simple, "{}", analysis.coloring);
    let m = cd.method();
    let t = cd.receivers(&i);
    let verdict = receivers_core::sequential::order_independent_on(&m, &i, &t);
    assert!(verdict.is_independent(), "operationally still independent");
}

/// Unconditional cursor delete empties the table.
#[test]
fn unconditional_cursor_delete() {
    let (es, catalog) = employee_catalog();
    let (i, _) = section7_instance(&es);
    let stmt = parse("for each t in Employee do delete t from Employee").unwrap();
    let CompiledStatement::CursorDelete(cd) = compile(&stmt, &catalog).unwrap() else {
        panic!("expected cursor delete")
    };
    let m = cd.method();
    let t = cd.receivers(&i);
    let out = apply_seq_unchecked(&m, &i, &t).expect_done("delete all");
    assert_eq!(out.class_members(es.employee).count(), 0);
    // Non-employee objects survive.
    assert_eq!(out.class_members(es.amount).count(), 4);
}

/// A qualified cursor-variable reference (`t.Salary`) resolves to the
/// cursor tuple.
#[test]
fn qualified_cursor_variable() {
    let (es, catalog) = employee_catalog();
    let (i, data) = section7_instance(&es);
    let stmt = parse(
        "for each t in Employee do update t set Salary = \
         (select New from NewSal where Old = t.Salary)",
    )
    .unwrap();
    let CompiledStatement::CursorUpdate(cu) = compile(&stmt, &catalog).unwrap() else {
        panic!("expected cursor update")
    };
    let alg = cu.to_algebraic().unwrap();
    let out = apply_seq_unchecked(&alg, &i, &cu.receivers(&i)).expect_done("update");
    assert_eq!(
        out.successors(data.employees[0], es.salary).next(),
        Some(data.amounts[2])
    );
}

/// Unknown tables and columns produce structured errors.
#[test]
fn unknown_names_are_reported() {
    let (_es, catalog) = employee_catalog();
    let stmt = parse("delete from Payroll where Salary in table Fire").unwrap();
    assert!(matches!(
        compile(&stmt, &catalog),
        Err(SqlError::UnknownTable(t)) if t == "Payroll"
    ));

    let stmt =
        parse("update Employee set Wage = (select New from NewSal where Old = Salary)").unwrap();
    assert!(matches!(
        compile(&stmt, &catalog),
        Err(SqlError::UnknownColumn { column, .. }) if column == "Wage"
    ));
}

/// `IN TABLE` against a multi-column table is refused at compile time
/// with a clear message, in a set or cursor guard and inside a subquery.
#[test]
fn in_table_requires_one_column() {
    let (_, catalog) = employee_catalog();
    for text in [
        "delete from Employee where Salary in table NewSal",
        "for each t in Employee do if Salary not in table NewSal delete t from Employee",
        "update Employee set Salary = (select New from NewSal where Old in table Employee)",
    ] {
        let stmt = parse(text).unwrap();
        assert!(
            matches!(
                compile(&stmt, &catalog),
                Err(SqlError::Unsupported(msg)) if msg.contains("one-column")
            ),
            "{text}"
        );
    }
}

/// Parse errors carry expected/found context.
#[test]
fn parse_errors_are_structured() {
    let err = parse("delete Employee where Salary in table Fire").unwrap_err();
    assert!(matches!(
        err,
        SqlError::Parse { ref expected, .. } if expected.contains("from")
    ));
    let err = parse("update Employee set Salary = select New from NewSal").unwrap_err();
    assert!(matches!(err, SqlError::Parse { .. }));
    let err = parse("for each t in Employee do sing").unwrap_err();
    assert!(matches!(err, SqlError::Parse { .. }));
}

/// Statement display round-trips through the parser.
#[test]
fn display_round_trips() {
    for text in [
        "DELETE FROM Employee WHERE Manager = EmpId",
        "UPDATE Employee SET Salary = (SELECT New FROM NewSal WHERE Old = Salary)",
        "FOR EACH t IN Employee DO UPDATE t SET Salary = (SELECT New FROM NewSal WHERE Old = Salary)",
        "FOR EACH t IN Employee DO IF Salary IN TABLE Fire DELETE t FROM Employee",
    ] {
        let parsed = parse(text).unwrap();
        let rendered = parsed.to_string();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(parsed, reparsed, "{text}");
    }
}
