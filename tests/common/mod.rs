//! The statement pool shared by the planner's seeded suites
//! (`plan_differential`, `improve_memo`).

use rand::rngs::StdRng;
use rand::RngExt;

use receivers::sql::scenarios::UPDATE_C_SET;

/// Guard pool. Deliberately small so identical guards recur within one
/// program and the selector CSE / netting passes fire during the sweep;
/// every atom evaluates cleanly on any instance over the employee schema.
pub const GUARDS: &[&str] = &[
    "Salary in table Fire",
    "Salary not in table Fire",
    "Manager = EmpId",
    "exists (select * from NewSal where Old = Salary)",
    // Qualified by the row variable, which footprints must resolve.
    "t.Salary in table Fire",
];

/// One random statement. The pool spans every [`StageKind`]: set deletes,
/// guarded and unguarded set updates on both properties, the improvable
/// cursor update (B), the order-dependent cursor update (C) — whose
/// cursor-order semantics is still deterministic, hence differentially
/// testable — and guarded cursor deletes. Set updates take both values
/// paths: one `par(E)` evaluation (the set form of (C) among them) and,
/// for a subquery with a negative atom, row by row.
pub fn random_statement(rng: &mut StdRng) -> String {
    let guard = GUARDS[rng.random_range(0..GUARDS.len())];
    let guarded = rng.random_bool(0.5);
    let suffix = if guarded {
        format!(" where {guard}")
    } else {
        String::new()
    };
    match rng.random_range(0..9u32) {
        0 => format!("delete from Employee where {guard}"),
        1 => format!(
            "update Employee set Salary = (select New from NewSal where Old = Salary){suffix}"
        ),
        2 => format!("update Employee set Salary = (select Amount from Fire){suffix}"),
        3 => format!(
            "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId){suffix}"
        ),
        4 if guarded => format!(
            "for each t in Employee do if {guard} update t set Salary = \
             (select New from NewSal where Old = Salary)"
        ),
        4 => "for each t in Employee do update t set Salary = \
              (select New from NewSal where Old = Salary)"
            .to_owned(),
        5 => "for each t in Employee do update t set Salary = \
              (select New from Employee E1, NewSal where E1.EmpId = Manager and Old = E1.Salary)"
            .to_owned(),
        6 => format!("{UPDATE_C_SET}{suffix}"),
        7 => format!(
            "update Employee set Salary = \
             (select New from NewSal where Old = Salary and Old not in table Fire){suffix}"
        ),
        _ => format!("for each t in Employee do if {guard} delete t from Employee"),
    }
}
