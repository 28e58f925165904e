//! Seeded differential suite for guards and value subqueries compiled
//! to relational algebra (`sql::compile`, executed by `sql::plan`).
//!
//! A guard is lowered once, at plan time, into conjuncts: a probe
//! evaluates its closed subquery `E₀` once against the view, then every
//! row tests its own edges against that set; an `EXISTS` correlated with
//! the row beyond one equality is one `par(E)` evaluation over the rows.
//! Negative atoms lower to differences. Set statements run each guard
//! once over their rows; the receiver loop runs the same conjuncts for
//! one receiver at a time, evaluating each `E₀` again only after a
//! receiver's write that can change it. This suite checks all of it
//! against the definitional oracles:
//!
//! * the rows a guarded set delete removes are exactly the rows whose
//!   guard holds under [`eval_condition`], the guard evaluated one row at
//!   a time in class-member order — the Section 7 semantics of `WHERE`;
//! * a guarded set update ends exactly where `SetUpdate::apply` (the
//!   two-phase interpreter) does, errors alike;
//! * a guarded cursor delete and a guarded cursor update end exactly
//!   where `core::sequential::apply_sequence` of the statement's
//!   interpreted method does (the paper's `M_seq`): instance, outcome and
//!   error alike;
//! * value subqueries, some with negative atoms, are drawn for the
//!   updates;
//! * each `E₀` of a set statement is evaluated at most once per stage;
//! * a guard naming a column, alias or table that does not resolve, or
//!   probing a table wider than one column with `IN TABLE`, does not
//!   compile: `compile_program` and `compile` both fail with the error
//!   naming that reference.
//!
//! Guards come from the `tests/common` pool and from a generator over all
//! six condition forms with nesting: column references on the row, on
//! `EXISTS` aliases, unqualified, identity columns, and a few names that
//! do not resolve. Instances are bounded and seeded, with empty `Employee`,
//! `Fire` and `NewSal` tables and multi-valued salaries among the shapes.
//!
//! Every assertion message carries the failing seed; to replay one, run
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test guard_selector`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::sequential::apply_sequence;
use receivers::objectbase::examples::EmployeeSchema;
use receivers::objectbase::{InPlaceOutcome, Instance, MethodOutcome, Oid};
use receivers::relalg::view::DatabaseView;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::eval::{eval_condition, Binding};
use receivers::sql::scenarios::DELETE_MANAGER;
use receivers::sql::{
    compile, compile_program, parse, Catalog, CompiledStatement, Condition, ProgramPlan, SqlError,
    SqlStatement,
};

mod common;
use common::{random_statement, GUARDS};

/// Default number of seeded trials; override with
/// `RECEIVERS_DIFF_GUARDS`.
const DEFAULT_TRIALS: u64 = 1000;

/// Base offset separating this sweep's seed space from the other
/// differential suites.
const SWEEP_BASE: u64 = 0x6A4D_0000;

/// The guard of `correlated`'s guarded set update (stage 3) in the `e2e`
/// benchmark; its stage 4 is [`DELETE_MANAGER`].
const MANAGER_FIRED: &str =
    "exists (select * from Employee E1 where E1.EmpId = Manager and E1.Salary in table Fire)";

/// Non-vacuity tallies over the sweep.
static PROBED: AtomicU64 = AtomicU64::new(0);
static CORRELATED: AtomicU64 = AtomicU64::new(0);
static SELECTED: AtomicU64 = AtomicU64::new(0);
static REFUSED: AtomicU64 = AtomicU64::new(0);
/// Value subqueries with a negative atom.
static NEGATIVE_VALUES: AtomicU64 = AtomicU64::new(0);
/// Receiver-loop stages that evaluated some `E₀` again after a write.
static REEVALUATED: AtomicU64 = AtomicU64::new(0);

/// Value subqueries for `Salary` drawn by the updates, several with
/// negative atoms.
const VALUES: &[&str] = &[
    "select New from NewSal where Old = Salary",
    "select New from NewSal where Old = Salary and Old not in table Fire",
    "select N.New from NewSal N where N.Old <> Salary",
    "select Amount from Fire",
    "select Amount from Fire where Amount not in table Fire",
    "select E1.Salary from Employee E1 where E1.EmpId = Manager and E1.Salary <> Salary",
    "select E1.Salary from Employee E1 where E1.Manager <> EmpId",
    "select E1.Salary from Employee E1 where E1.EmpId = Manager",
];

/// The names the generator draws that resolve nowhere: a column, a
/// `FROM` alias and an `IN TABLE` table.
const UNKNOWN: [&str; 3] = ["Bogus", "Z9", "Payroll"];

/// The shapes a trial's instance takes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    General,
    NoEmployees,
    NoFire,
    NoNewSal,
    /// Several salaries per row, as after a set update that gives every
    /// row one shared list of values.
    MultiValued,
}

const SHAPES: [Shape; 5] = [
    Shape::General,
    Shape::NoEmployees,
    Shape::NoFire,
    Shape::NoNewSal,
    Shape::MultiValued,
];

/// A random bounded instance over the employee schema.
fn random_instance(es: &EmployeeSchema, shape: Shape, rng: &mut StdRng) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let count = |rng: &mut StdRng, empty: bool, lo: u32, hi: u32| {
        if empty {
            0
        } else {
            rng.random_range(lo..=hi)
        }
    };
    let employees: Vec<Oid> = (0..count(rng, matches!(shape, Shape::NoEmployees), 1, 5))
        .map(|k| Oid::new(es.employee, k))
        .collect();
    let amounts: Vec<Oid> = (0..rng.random_range(2..=4u32))
        .map(|k| Oid::new(es.amount, k))
        .collect();
    let fires: Vec<Oid> = (0..count(rng, matches!(shape, Shape::NoFire), 1, 2))
        .map(|k| Oid::new(es.fire, k))
        .collect();
    let newsals: Vec<Oid> = (0..count(rng, matches!(shape, Shape::NoNewSal), 1, 3))
        .map(|k| Oid::new(es.newsal, k))
        .collect();
    for &o in employees
        .iter()
        .chain(&amounts)
        .chain(&fires)
        .chain(&newsals)
    {
        i.add_object(o);
    }
    let salary_p = if matches!(shape, Shape::MultiValued) {
        0.85
    } else {
        0.4
    };
    for &e in &employees {
        for &a in &amounts {
            if rng.random_bool(salary_p) {
                i.link(e, es.salary, a).expect("typed edge");
            }
        }
        for &m in &employees {
            if rng.random_bool(0.35) {
                i.link(e, es.manager, m).expect("typed edge");
            }
        }
    }
    for &f in &fires {
        for &a in &amounts {
            if rng.random_bool(0.4) {
                i.link(f, es.fire_amount, a).expect("typed edge");
            }
        }
    }
    for &n in &newsals {
        for &a in &amounts {
            if rng.random_bool(0.4) {
                i.link(n, es.old, a).expect("typed edge");
            }
            if rng.random_bool(0.4) {
                i.link(n, es.new, a).expect("typed edge");
            }
        }
    }
    i
}

/// Random guards over all six condition forms, nested through `EXISTS`.
struct GuardGen<'r> {
    rng: &'r mut StdRng,
    fresh: usize,
}

impl GuardGen<'_> {
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.rng.random_range(0..items.len())]
    }

    /// A condition with the `FROM` aliases `scope` (alias, table) visible.
    fn condition(&mut self, depth: u32, scope: &[(String, &'static str)]) -> String {
        match self.rng.random_range(0..if depth > 0 { 7u32 } else { 4 }) {
            0 => format!("{} = {}", self.column(scope), self.column(scope)),
            1 => format!("{} <> {}", self.column(scope), self.column(scope)),
            2 => format!("{} in table {}", self.column(scope), self.table()),
            3 => format!("{} not in table {}", self.column(scope), self.table()),
            4 | 5 => self.exists(depth - 1, scope),
            _ => format!(
                "{} and {}",
                self.condition(depth - 1, scope),
                self.condition(depth - 1, scope)
            ),
        }
    }

    /// Mostly `Fire`; sometimes a table `compile` refuses: two columns
    /// wide, or unknown.
    fn table(&mut self) -> &'static str {
        match self.rng.random_range(0..20u32) {
            0 => "NewSal",
            1 => "Payroll",
            _ => "Fire",
        }
    }

    fn column(&mut self, scope: &[(String, &'static str)]) -> String {
        let roll = self.rng.random_range(0..100u32);
        if roll < 3 {
            return self.pick(&["Bogus", "Z9.Salary"]).to_owned();
        }
        if scope.is_empty() || roll < 35 {
            return self
                .pick(&[
                    "Salary",
                    "Manager",
                    "EmpId",
                    "t.Salary",
                    "t.Manager",
                    "t.EmpId",
                ])
                .to_owned();
        }
        let (alias, table) = &scope[self.rng.random_range(0..scope.len())];
        let columns: &[&str] = match *table {
            "Employee" => &["EmpId", "Salary", "Manager"],
            "NewSal" => &["NewSalId", "Old", "New"],
            _ => &["FireId", "Amount"],
        };
        let column = self.pick(columns);
        if *table != "Employee" && self.rng.random_bool(0.3) {
            // Unqualified: resolves when exactly one visible table has it.
            column.to_owned()
        } else {
            format!("{alias}.{column}")
        }
    }

    fn exists(&mut self, depth: u32, scope: &[(String, &'static str)]) -> String {
        let mut inner = scope.to_vec();
        let mut from = Vec::new();
        for _ in 0..self.rng.random_range(1..=2u32) {
            let table = self.pick(&["Employee", "NewSal", "Fire"]);
            self.fresh += 1;
            let alias = format!("{}{}", &table[..1], self.fresh);
            from.push(format!("{table} {alias}"));
            inner.push((alias, table));
        }
        let projection = if self.rng.random_bool(0.6) {
            "*".to_owned()
        } else {
            self.column(&inner)
        };
        let mut text = format!("exists (select {projection} from {}", from.join(", "));
        if self.rng.random_bool(0.85) {
            text.push_str(" where ");
            text.push_str(&self.condition(depth, &inner));
        }
        text.push(')');
        text
    }
}

/// The oracle: the guard evaluated on each `Employee` row in
/// class-member order, the first error ending the scan.
fn oracle(guard: &str, catalog: &Catalog, i: &Instance) -> Result<Vec<Oid>, String> {
    let condition = guard_of(guard);
    let table = catalog.lookup("Employee").expect("employee table");
    let mut out = Vec::new();
    for t in i.class_members(table.class) {
        let scopes = vec![Binding {
            alias: "t".to_owned(),
            table,
            tuple: t,
        }];
        if eval_condition(&condition, &scopes, catalog, i).map_err(|e| e.to_string())? {
            out.push(t);
        }
    }
    Ok(out)
}

/// The guard conjuncts a compiled stage runs as one `par(E)` evaluation
/// over the rows, as EXPLAIN names them.
fn correlated(plan: &ProgramPlan) -> usize {
    plan.explain().children[0]
        .notes
        .iter()
        .filter(|n| n.starts_with("guard: conjunct ") && n.contains(" as one par(E) evaluation"))
        .count()
}

/// The planner's selection of `guard`, read off a guarded set delete:
/// the rows it removed, or its error (which must leave `i` untouched).
/// Also checks that each `E₀` ran at most once. Returns the selection
/// and the number of correlated conjuncts.
fn planned(
    guard: &str,
    catalog: &Catalog,
    i: &Instance,
    seed: u64,
) -> (Result<Vec<Oid>, String>, usize) {
    let stmt = parse(&format!("delete from Employee where {guard}")).expect("parsed by the oracle");
    let plan = compile_program(&[stmt], catalog).expect("a set delete compiles");
    let correlated = correlated(&plan);
    let mut w = i.clone();
    let mut v = DatabaseView::new(&w);
    let selected = match plan.execute_viewed_profiled(&mut w, &mut v) {
        Ok((outcome, tree)) => {
            assert_eq!(outcome, InPlaceOutcome::Applied, "seed {seed}: {guard}");
            let node = &tree.children[0];
            let subqueries = node.metric("guard_subqueries").expect("guarded stage");
            let probes = guard_conjuncts(guard) - correlated;
            assert!(
                subqueries <= probes as u64,
                "seed {seed}: {subqueries} E₀ evaluations for {probes} probed conjuncts: {guard}"
            );
            let emp = catalog.lookup("Employee").expect("employee table").class;
            Ok(i.class_members(emp)
                .filter(|&t| !w.contains_node(t))
                .collect())
        }
        Err(e) => {
            assert!(
                w == *i,
                "seed {seed}: an error must leave the instance: {guard}"
            );
            Err(e.to_string())
        }
    };
    (selected, correlated)
}

/// `guard` parsed.
fn guard_of(guard: &str) -> Condition {
    match parse(&format!("delete from Employee where {guard}")) {
        Ok(SqlStatement::Delete { condition, .. }) => condition,
        other => panic!("generated guard must parse: {guard}: {other:?}"),
    }
}

/// The number of conjuncts in `guard`'s top-level `AND` chain.
fn guard_conjuncts(guard: &str) -> usize {
    fn count(c: &Condition) -> usize {
        match c {
            Condition::And(a, b) => count(a) + count(b),
            _ => 1,
        }
    }
    count(&guard_of(guard))
}

/// `text` as a one-stage program through the planner's viewed driver,
/// as a method outcome: `Done` with the instance it applies, or the
/// outcome it reports, an error reading as `Undefined` with the error's
/// text (as a statement's interpreted method reports one). A program
/// not applied must leave the instance as it was. Also returns the
/// stage's profile node.
fn run_planned(
    text: &str,
    catalog: &Catalog,
    i: &Instance,
    seed: u64,
) -> (MethodOutcome, Option<receivers::obs::ProfileNode>) {
    let plan = compile_program(&[parse(text).expect("parses")], catalog).expect("compiles");
    let mut w = i.clone();
    let mut v = DatabaseView::new(&w);
    let (outcome, node) = match plan.execute_viewed_profiled(&mut w, &mut v) {
        Ok((InPlaceOutcome::Applied, mut tree)) => {
            assert!(v.matches_rebuild(&w), "seed {seed}: {text}");
            return (MethodOutcome::Done(w), tree.children.pop());
        }
        Ok((InPlaceOutcome::Diverges, mut tree)) => (MethodOutcome::Diverges, tree.children.pop()),
        Ok((InPlaceOutcome::Undefined(why), mut tree)) => {
            (MethodOutcome::Undefined(why), tree.children.pop())
        }
        Err(e) => (MethodOutcome::Undefined(e.to_string()), None),
    };
    assert!(
        w == *i,
        "seed {seed}: a program not applied must leave the instance: {text}"
    );
    (outcome, node)
}

/// The guarded set update through the planner against the two-phase
/// interpreter: same instance, or the same error.
fn check_update(guard: &str, values: &str, catalog: &Catalog, i: &Instance, seed: u64) {
    let text = format!("update Employee set Salary = ({values}) where {guard}");
    let stmt = parse(&text).expect("parses");
    let want = match compile(&stmt, catalog).expect("compiles") {
        CompiledStatement::SetUpdate(su) => su.apply(i).map_err(|e| e.to_string()),
        _ => unreachable!("a set update"),
    };
    let plan = compile_program(&[stmt], catalog).expect("compiles");
    let mut w = i.clone();
    let mut v = DatabaseView::new(&w);
    let got = match plan.execute_viewed(&mut w, &mut v) {
        Ok(outcome) => {
            assert_eq!(outcome, InPlaceOutcome::Applied, "seed {seed}: {text}");
            Ok(w)
        }
        Err(e) => {
            assert!(
                w == *i,
                "seed {seed}: an error must leave the instance: {text}"
            );
            Err(e.to_string())
        }
    };
    assert!(
        got == want,
        "seed {seed}: set update diverges from the interpreter: {text}: planner {:?}, interpreter {:?}",
        got.as_ref().err(),
        want.as_ref().err()
    );
}

/// `outcome` for an assertion message, without the instance.
fn brief(outcome: &MethodOutcome) -> String {
    match outcome {
        MethodOutcome::Done(_) => "done".to_owned(),
        other => format!("{other:?}"),
    }
}

/// The guarded cursor delete and the guarded cursor update through the
/// planner against `apply_sequence` of each statement's interpreted
/// method, in key order: the same instance, or the same outcome with the
/// same error text. Counts a receiver loop that evaluated an `E₀` again
/// after a write.
fn check_cursor(guard: &str, values: &str, catalog: &Catalog, i: &Instance, seed: u64) {
    for text in [
        format!("for each t in Employee do if {guard} delete t from Employee"),
        format!("for each t in Employee do if {guard} update t set Salary = ({values})"),
    ] {
        let stmt = parse(&text).expect("parses");
        let want = match compile(&stmt, catalog).expect("compiles") {
            CompiledStatement::CursorDelete(cd) => {
                apply_sequence(&cd.method(), i, &cd.receivers(i).canonical_order())
            }
            CompiledStatement::CursorUpdate(cu) => apply_sequence(
                &cu.interpreted_method(),
                i,
                &cu.receivers(i).canonical_order(),
            ),
            _ => unreachable!("a cursor statement"),
        };
        let (got, node) = run_planned(&text, catalog, i, seed);
        assert!(
            got == want,
            "seed {seed}: diverges from M_seq: {text}: planner {}, M_seq {}",
            brief(&got),
            brief(&want)
        );
        let probes = guard_conjuncts(guard) as u64;
        if node.and_then(|n| n.metric("guard_subqueries")) > Some(probes) {
            REEVALUATED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A value subquery for `Salary` that compiles in both update forms:
/// from [`VALUES`], or generated over one `FROM` table holding amounts
/// with a random `WHERE`, negative atoms among its atoms.
fn values_subquery(rng: &mut StdRng, catalog: &Catalog) -> String {
    if rng.random_bool(0.5) {
        return VALUES[rng.random_range(0..VALUES.len())].to_owned();
    }
    let (table, column) = [
        ("NewSal", "New"),
        ("NewSal", "Old"),
        ("Fire", "Amount"),
        ("Employee", "Salary"),
    ][rng.random_range(0..4usize)];
    let alias = format!("{}0", &table[..1]);
    let scope = [(alias.clone(), table)];
    let condition = GuardGen { rng, fresh: 50 }.condition(2, &scope);
    let text = format!("select {alias}.{column} from {table} {alias} where {condition}");
    let compiles = |s: &str| parse(s).is_ok_and(|stmt| compile(&stmt, catalog).is_ok());
    if compiles(&format!("update Employee set Salary = ({text})"))
        && compiles(&format!(
            "for each t in Employee do if Manager = EmpId update t set Salary = ({text})"
        ))
    {
        text
    } else {
        VALUES[0].to_owned()
    }
}

/// Whether `guard` names something that does not resolve, or probes the
/// two-column `NewSal` with `IN TABLE`. Such a guard must not compile: on
/// a set delete and on a set update, `compile_program` fails with the
/// error naming one of its unknown names or the wide table, and `compile`
/// with the same error. Every other guard compiles.
fn refused(guard: &str, catalog: &Catalog, seed: u64) -> bool {
    let unknown: Vec<&str> = UNKNOWN.into_iter().filter(|n| guard.contains(n)).collect();
    let wide = guard.contains("in table NewSal");
    for text in [
        format!("delete from Employee where {guard}"),
        format!("update Employee set Salary = (select Amount from Fire) where {guard}"),
    ] {
        let stmt = parse(&text).expect("parses");
        let Err(err) = compile_program(std::slice::from_ref(&stmt), catalog) else {
            assert!(
                unknown.is_empty() && !wide,
                "seed {seed}: compiles with an unknown name or a wide table: {text}"
            );
            continue;
        };
        let named: &str = match &err {
            SqlError::UnknownColumn { column, .. } => column,
            SqlError::UnknownAlias(alias) => alias,
            SqlError::UnknownTable(table) => table,
            SqlError::Unsupported(msg)
                if wide && msg.contains("`IN TABLE NewSal` requires a one-column table") =>
            {
                "NewSal"
            }
            other => panic!("seed {seed}: refused for another reason: {other}: {text}"),
        };
        assert!(
            unknown.contains(&named) || (wide && named == "NewSal"),
            "seed {seed}: the error names `{named}`, not an unknown name: {text}"
        );
        assert_eq!(
            compile(&stmt, catalog).err(),
            Some(err),
            "seed {seed}: {text}"
        );
    }
    !unknown.is_empty() || wide
}

/// One guard on one instance: delete selection, set update result and
/// both cursor forms against their oracles, the updates assigning
/// `values`. Returns the number of correlated conjuncts.
fn check(guard: &str, values: &str, catalog: &Catalog, i: &Instance, seed: u64) -> usize {
    let want = oracle(guard, catalog, i);
    let (got, correlated) = planned(guard, catalog, i, seed);
    assert_eq!(got, want, "seed {seed}: selection diverges: {guard}");
    if let Ok(rows) = &want {
        SELECTED.fetch_add(rows.len() as u64, Ordering::Relaxed);
    }
    check_update(guard, values, catalog, i, seed);
    check_cursor(guard, values, catalog, i, seed);
    correlated
}

fn run_trial(seed: u64) {
    let (es, catalog) = employee_catalog();
    let mut rng = StdRng::seed_from_u64(seed);
    let guard = match rng.random_range(0..4u32) {
        // A pool statement's guard, when it drew a guarded one.
        0 => {
            let stmt = parse(&random_statement(&mut rng)).expect("pool statements parse");
            let guard = match &stmt {
                SqlStatement::Delete { condition, .. } => Some(condition),
                SqlStatement::Update { condition, .. } => condition.as_ref(),
                SqlStatement::ForEach { .. } => None,
            };
            match guard.and_then(|g| GUARDS.iter().find(|&&text| guard_of(text) == *g)) {
                Some(text) => (*text).to_owned(),
                None => GUARDS[rng.random_range(0..GUARDS.len())].to_owned(),
            }
        }
        _ => GuardGen {
            rng: &mut rng,
            fresh: 0,
        }
        .condition(3, &[]),
    };
    if refused(&guard, &catalog, seed) {
        REFUSED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // The values come from a stream of their own, so each seed draws the
    // guard and instances it always has.
    let values = values_subquery(
        &mut StdRng::seed_from_u64(seed ^ 0x7A1E_5000_0000_0000),
        &catalog,
    );
    if values.contains("<>") || values.contains("not in") {
        NEGATIVE_VALUES.fetch_add(1, Ordering::Relaxed);
    }
    for _ in 0..3 {
        let shape = SHAPES[rng.random_range(0..SHAPES.len())];
        let i = random_instance(&es, shape, &mut rng);
        let correlated = check(&guard, &values, &catalog, &i, seed);
        let tally = if correlated == 0 {
            &PROBED
        } else {
            &CORRELATED
        };
        tally.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn guard_selector_matches_eval_condition() {
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        run_trial(s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64"));
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_GUARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_TRIALS);
    for k in 0..n {
        run_trial(SWEEP_BASE + k);
    }
    if n >= DEFAULT_TRIALS {
        for (what, tally) in [
            ("probed guards", &PROBED),
            ("correlated guards", &CORRELATED),
            ("selected rows", &SELECTED),
            ("refused guards", &REFUSED),
            ("negative value subqueries", &NEGATIVE_VALUES),
            ("re-evaluated E₀ in a receiver loop", &REEVALUATED),
        ] {
            assert!(tally.load(Ordering::Relaxed) > 0, "the sweep saw no {what}");
        }
    }
}

/// The traffic keeps the probe fast path: every conjunct of every pool
/// guard and of both guards of the `correlated` workload is one probe
/// per row, on a set delete and on a set update.
#[test]
fn pool_and_correlated_guards_lower_without_residual() {
    let (_, catalog) = employee_catalog();
    let manager_deleted = DELETE_MANAGER
        .split_once(" where ")
        .map(|(_, g)| g)
        .expect("guarded");
    for guard in GUARDS
        .iter()
        .copied()
        .chain([MANAGER_FIRED, manager_deleted])
    {
        for text in [
            format!("delete from Employee where {guard}"),
            format!(
                "update Employee set Salary = (select New from NewSal where Old = Salary) \
                 where {guard}"
            ),
        ] {
            let plan = compile_program(&[parse(&text).unwrap()], &catalog).unwrap();
            assert_eq!(correlated(&plan), 0, "{text}");
            let explain = plan.explain();
            assert!(
                explain.children[0]
                    .notes
                    .iter()
                    .any(|n| n.starts_with("guard: each subquery evaluated once")),
                "{text}: {:?}",
                explain.children[0].notes
            );
        }
    }
}

/// Every guard shape that once ran row by row through the interpreter
/// lowers, and agrees with the oracles: an `EXISTS` reading the row
/// twice, in a negative atom, or in its projection is one correlated
/// `par(E)` evaluation over the rows, named with why, and so is one
/// comparing the row with another class (an empty query); a negative
/// atom inside an `EXISTS`, and a `FROM` alias reused, named like the
/// row or like a property, are probes. So are the
/// near misses that always lowered (an alias projection, identity
/// columns on both sides of the link, an uncorrelated `EXISTS`, an alias
/// data column read more than once). A column that resolves nowhere and
/// an `IN TABLE` table wider than one column do not compile.
#[test]
fn former_residual_shapes_lower_and_agree() {
    let (es, catalog) = employee_catalog();
    let cases: &[(&str, Option<&str>)] = &[
        (
            "exists (select * from Employee E1 where E1.EmpId = Manager and E1.Salary = Salary)",
            Some("the EXISTS reads the row twice (Manager, Salary)"),
        ),
        (
            "exists (select Manager from NewSal N where N.Old = N.New)",
            Some("the EXISTS projects a column of the row (Manager)"),
        ),
        (
            "exists (select * from NewSal N where N.Old <> Salary)",
            Some("the EXISTS reads the row outside one linking equality (Salary)"),
        ),
        (
            "exists (select * from NewSal N where N.Old = Salary and N.New <> N.Old)",
            None,
        ),
        (
            "exists (select * from NewSal N where N.Old = Salary and N.New not in table Fire)",
            None,
        ),
        (
            "exists (select * from Employee E where exists \
             (select * from NewSal E where E.Old = Salary))",
            None,
        ),
        ("exists (select * from NewSal t where t.Old = Salary)", None),
        (
            "exists (select * from NewSal old where old.New = Salary)",
            None,
        ),
        (
            "exists (select * from NewSal N where N.Old = Manager)",
            Some("the EXISTS reads the row outside one linking equality (Manager)"),
        ),
        (
            "exists (select * from Employee E1 where E1.EmpId = Manager \
             and E1.Salary in table Fire and E1.Salary = E1.Salary)",
            None,
        ),
        // Refused at compile time: the name does not resolve, or the
        // `IN TABLE` table is two columns wide.
        ("Bogus = Salary", None),
        ("Salary in table NewSal", None),
        (
            "exists (select E1.Manager from Employee E1 where E1.EmpId = Manager)",
            None,
        ),
        (
            "exists (select * from Employee E1 where E1.EmpId = EmpId)",
            None,
        ),
        (
            "exists (select * from Employee E1 where E1.Manager = EmpId)",
            None,
        ),
        (
            "exists (select * from Employee E1 where E1.Manager = E1.EmpId)",
            None,
        ),
        ("EmpId = Manager and Salary <> Salary", None),
        ("Salary in table Fire and Salary not in table Fire", None),
    ];
    for (k, &(guard, want)) in cases.iter().enumerate() {
        if refused(guard, &catalog, SWEEP_BASE + 0x1_0000 + k as u64) {
            continue;
        }
        let plan = compile_program(
            &[parse(&format!("delete from Employee where {guard}")).unwrap()],
            &catalog,
        )
        .unwrap();
        let notes = &plan.explain().children[0].notes;
        let guard_notes: Vec<&String> = notes.iter().filter(|n| n.starts_with("guard:")).collect();
        match want {
            None => assert_eq!(correlated(&plan), 0, "{guard}: {guard_notes:?}"),
            Some(why) => assert!(
                correlated(&plan) == 1 && guard_notes.iter().any(|n| n.ends_with(why)),
                "{guard}: {guard_notes:?}"
            ),
        }
        for (s, &shape) in SHAPES.iter().enumerate() {
            let seed = SWEEP_BASE + 0x1_0000 + (k * SHAPES.len() + s) as u64;
            let i = random_instance(&es, shape, &mut StdRng::seed_from_u64(seed));
            check(guard, VALUES[(k + s) % VALUES.len()], &catalog, &i, seed);
        }
    }
    assert!(matches!(
        compile_program(&[parse("delete from Employee where Bogus = Salary").unwrap()], &catalog),
        Err(SqlError::UnknownColumn { column, .. }) if column == "Bogus"
    ));
    assert!(matches!(
        compile_program(
            &[parse("delete from Employee where Salary in table NewSal").unwrap()],
            &catalog
        ),
        Err(SqlError::Unsupported(msg)) if msg.contains("one-column table")
    ));
}

/// Each atom of an `EXISTS` picks its own value of a multi-valued
/// column: an employee earning one amount in `Fire` and another listed
/// as an old salary satisfies both atoms below, though no single salary
/// does. A join giving `E1.Salary` one attribute would miss it; the
/// lowering gives each reference its own.
#[test]
fn each_atom_picks_its_own_value() {
    let (es, catalog) = employee_catalog();
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let (e, fired, old) = (
        Oid::new(es.employee, 0),
        Oid::new(es.amount, 0),
        Oid::new(es.amount, 1),
    );
    let (f, n) = (Oid::new(es.fire, 0), Oid::new(es.newsal, 0));
    for o in [e, fired, old, f, n] {
        i.add_object(o);
    }
    i.link(e, es.manager, e).unwrap();
    i.link(e, es.salary, fired).unwrap();
    i.link(e, es.salary, old).unwrap();
    i.link(f, es.fire_amount, fired).unwrap();
    i.link(n, es.old, old).unwrap();
    let guard = "exists (select * from Employee E1, NewSal N where E1.EmpId = Manager \
                 and E1.Salary in table Fire and E1.Salary = N.Old)";
    assert_eq!(oracle(guard, &catalog, &i), Ok(vec![e]));
    assert_eq!(
        check(guard, VALUES[0], &catalog, &i, SWEEP_BASE + 0x3_0000),
        0,
        "{guard}"
    );
}

/// `mixed`'s shape at scale: every row holds many salaries, and the
/// negative probe stops at its first hit.
#[test]
fn multi_valued_rows_at_scale() {
    let (es, catalog) = employee_catalog();
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amounts: Vec<Oid> = (0..24).map(|k| Oid::new(es.amount, k)).collect();
    for &a in &amounts {
        i.add_object(a);
    }
    for k in 0..4 {
        let f = Oid::new(es.fire, k);
        i.add_object(f);
        i.link(f, es.fire_amount, amounts[(5 * k + 3) as usize])
            .unwrap();
    }
    for k in 0..32u32 {
        i.add_object(Oid::new(es.employee, k));
    }
    for k in 0..32u32 {
        let e = Oid::new(es.employee, k);
        for (j, &a) in amounts.iter().enumerate() {
            if !(j as u32 + k).is_multiple_of(3) || k.is_multiple_of(8) {
                i.link(e, es.salary, a).unwrap();
            }
        }
        i.link(e, es.manager, Oid::new(es.employee, (k + 1) % 32))
            .unwrap();
    }
    for guard in [
        "Salary in table Fire",
        "Salary not in table Fire",
        MANAGER_FIRED,
    ] {
        check(guard, VALUES[1], &catalog, &i, SWEEP_BASE + 0x2_0000);
    }
}
