//! Seeded suite for the improve pass's memoized key-order verdicts.
//!
//! The improve pass (`sql::improve`) memoizes its Theorem 5.12 verdict
//! in the planner's process-wide proof cache. Every unguarded cursor
//! update this suite collects — seeded draws from the `plan_differential`
//! statement pool, the SQL fixtures under `examples/fixtures`, the
//! Section 7 scenarios, and the cursor updates the `lint` and `sql`
//! tests compile — is checked against a fresh, uncached
//! [`decide_key_order_independence`]: on a cold cache the first call
//! misses, the second hits, and both return the fresh decision's verdict
//! and offending property.
//!
//! The same corpus pins why the planner needs no shard lanes: every
//! statement `Solver::certify_sharded` certifies shard-safe compiles,
//! through `compile_program`, to an improved `par(E)` stage. It pins that
//! an improved stage runs as its set statement: on its compiled values
//! query, and on seeded instances bit-identical to that
//! set statement compiled as a set-update stage, to
//! `ImprovedUpdate::apply` (`apply_par`) and to `apply_sequence` of the
//! interpreted cursor method (the paper's `M_seq`). And it pins that an
//! improved stage's footprint, read off its statement, covers every
//! property the query it executes reads — the netting pass relies on it.
//!
//! The cache and its counters are process-wide, so the tests of this
//! binary take one lock and run one at a time.
//!
//! Replay one seed with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test improve_memo`; a replay
//! keeps drawing from that seed's stream until it holds a pool statement.

use std::sync::{Mutex, MutexGuard};

use receivers::core::decide_key_order_independence;
use receivers::core::error::CoreError;
use receivers::core::sequential::apply_sequence;
use receivers::objectbase::gen::{random_instance, InstanceParams};
use receivers::objectbase::{MethodOutcome, PropId};
use receivers::obs;
use receivers::relalg::view::DatabaseView;
use receivers::relalg::RelName;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::compile::ValuesQuery;
use receivers::sql::improve::{strip_cursor_var, ImproveRefusal};
use receivers::sql::plan::{proof_cache_len, reset_proof_cache};
use receivers::sql::scenarios::CURSOR_UPDATE_B;
use receivers::sql::{
    compile_program, improve_cursor_update, parse, CursorBody, CursorUpdate, ProgramPlan, Solver,
    SqlStatement, Stage, StageKind,
};

mod common;
#[path = "common/corpus.rs"]
mod corpus;
use corpus::{corpus, cursor_update, library_catalog, Case, LIBRARY_UPDATE};

/// Seeded instances each improved stage runs on, from this base.
const INSTANCES: u64 = 4;
const INSTANCE_BASE: u64 = 0x1A9E_1000;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    obs::set_enabled(obs::trace_enabled(), true);
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(hits, misses)` of the improve pass's cache lookups so far.
fn lookups() -> (u64, u64) {
    let snap = obs::metrics_snapshot();
    (
        snap.counter("sql.improve.cache.hit").unwrap_or(0),
        snap.counter("sql.improve.cache.miss").unwrap_or(0),
    )
}

/// A verdict, from the improve pass or a fresh decision.
#[derive(Debug, PartialEq)]
enum Verdict {
    Independent,
    /// Order dependent, with the offending property.
    Dependent(Option<PropId>),
    NotPositive,
}

fn improve_verdict(cu: &CursorUpdate, label: &str) -> Verdict {
    match improve_cursor_update(cu).unwrap_or_else(|e| panic!("{label}: improve errored: {e}")) {
        Ok(_) => Verdict::Independent,
        Err(ImproveRefusal::OrderDependent { property }) => Verdict::Dependent(property),
        Err(ImproveRefusal::NotPositive) => Verdict::NotPositive,
    }
}

/// On a cold cache, the first improve call misses and the second hits,
/// and both equal a fresh Theorem 5.12 decision.
#[test]
fn memoized_verdicts_match_fresh_decisions() {
    let _serial = serial();
    let (mut independent, mut dependent) = (0, 0);
    let mut sources = std::collections::BTreeSet::new();
    for Case {
        source,
        label,
        catalog,
        stmt,
    } in &corpus()
    {
        sources.insert(*source);
        let cu = cursor_update(stmt, catalog, label);
        let method = cu
            .to_algebraic()
            .unwrap_or_else(|e| panic!("{label}: no algebraic form: {e}"));
        let fresh = match decide_key_order_independence(&method) {
            Ok(d) if d.independent => Verdict::Independent,
            Ok(d) => Verdict::Dependent(d.offending_property),
            Err(CoreError::NotPositive) => Verdict::NotPositive,
            Err(e) => panic!("{label}: the decision errored: {e}"),
        };
        match fresh {
            Verdict::Independent => independent += 1,
            Verdict::Dependent(_) => dependent += 1,
            Verdict::NotPositive => {}
        }

        reset_proof_cache();
        let before = lookups();
        let first = improve_verdict(&cu, label);
        let after_first = lookups();
        let second = improve_verdict(&cu, label);
        let after_second = lookups();
        assert_eq!(
            first, fresh,
            "{label}: cold verdict differs from Theorem 5.12"
        );
        assert_eq!(
            second, fresh,
            "{label}: cached verdict differs from Theorem 5.12"
        );

        let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
        if fresh != Verdict::NotPositive {
            assert_eq!(
                delta(before, after_first),
                (0, 1),
                "{label}: first call must miss"
            );
            assert_eq!(
                delta(after_first, after_second),
                (1, 0),
                "{label}: second call must hit"
            );
            assert_eq!(proof_cache_len(), 1, "{label}: one verdict stored");
        } else {
            // Positivity is syntactic and decided before the cache.
            assert_eq!(delta(before, after_second), (0, 0), "{label}: no lookup");
            assert_eq!(proof_cache_len(), 0, "{label}: nothing stored");
        }
    }
    // Non-vacuity: both verdicts, from every source.
    assert!(independent > 0 && dependent > 0);
    for source in ["pool", "fixture", "scenario", "library"] {
        assert!(sources.contains(source), "no statement from {source}");
    }
}

/// A statement whose shard certificate is safe reads the column it
/// writes only at the receiver's own row, so it is key-order
/// independent and the improve pass makes it a `par(E)` stage: no
/// statement of the corpus would reach a per-shard lane of the planner.
#[test]
fn shard_safe_statements_compile_to_improved_stages() {
    let _serial = serial();
    let (mut safe, mut unsafe_) = (0, 0);
    for Case {
        label,
        catalog,
        stmt,
        ..
    } in corpus()
    {
        let cert = Solver::new(&catalog)
            .certify_sharded(&stmt)
            .unwrap_or_else(|| panic!("{label}: no algebraic cursor update to certify"));
        if !cert.certificate.shard_safe() {
            unsafe_ += 1;
            continue;
        }
        safe += 1;
        let plan = compile_program(std::slice::from_ref(&stmt), &catalog)
            .unwrap_or_else(|e| panic!("{label}: does not compile: {e}"));
        assert_eq!(
            plan.stages()[0].kind(),
            StageKind::ImprovedUpdate,
            "{label}: shard-safe but not improved"
        );
    }
    // Non-vacuity: both certificates occur.
    assert!(safe > 0 && unsafe_ > 0, "safe {safe}, unsafe {unsafe_}");
}

/// The relational query an improved stage executes: its set statement's
/// `par(E)`, or the closed `E₀` every row shares.
fn executed_query<'s>(stage: &'s Stage, label: &str) -> &'s receivers::relalg::Expr {
    match stage.values_query() {
        Some(ValuesQuery::PerRow(e) | ValuesQuery::Shared(e)) => e,
        None => panic!("{label}: the improved stage has no values query"),
    }
}

/// The set statement (A) an unguarded cursor update (B) rewrites to, as
/// the lint's `R0301` suggestion spells it.
fn set_statement(stmt: &SqlStatement) -> SqlStatement {
    let SqlStatement::ForEach {
        var,
        table,
        body: CursorBody::UpdateSet { column, select, .. },
    } = stmt
    else {
        panic!("{stmt}: not a cursor update");
    };
    SqlStatement::Update {
        table: table.clone(),
        column: column.clone(),
        select: strip_cursor_var(select, var),
        condition: None,
    }
}

/// `plan` applied to a copy of `i0` on the viewed driver, its view
/// checked against a rebuild.
fn run_viewed(
    plan: &ProgramPlan,
    i0: &receivers::objectbase::Instance,
    what: &str,
) -> receivers::objectbase::Instance {
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    let out = plan
        .execute_viewed(&mut i, &mut view)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(out.is_applied(), "{what}: {out:?}");
    assert!(view.matches_rebuild(&i), "{what}: the view drifted");
    i
}

/// An improved stage runs as its set statement, on a compiled values
/// query, and its viewed execution is bit-identical on seeded instances
/// to three oracles: that set statement compiled as a set-update stage,
/// `ImprovedUpdate::apply` (`apply_par`), and `apply_sequence` of the
/// interpreted cursor method in canonical key order.
#[test]
fn improved_stages_match_their_set_statement_par_and_seq() {
    let _serial = serial();
    let mut improved = 0;
    for (k, case) in corpus().into_iter().enumerate() {
        let Case {
            label,
            catalog,
            stmt,
            ..
        } = case;
        let plan = compile_program(std::slice::from_ref(&stmt), &catalog)
            .unwrap_or_else(|e| panic!("{label}: does not compile: {e}"));
        let stage = &plan.stages()[0];
        let Some(imp) = stage.improved() else {
            continue;
        };
        improved += 1;
        executed_query(stage, &label);
        let set_plan = compile_program(&[set_statement(&stmt)], &catalog)
            .unwrap_or_else(|e| panic!("{label}: the set statement does not compile: {e}"));
        assert_eq!(set_plan.stages()[0].kind(), StageKind::SetUpdate, "{label}");
        let cu = cursor_update(&stmt, &catalog, &label);
        for s in 0..INSTANCES {
            let seed = INSTANCE_BASE + k as u64 * INSTANCES + s;
            let what = format!("{label}, instance seed {seed}");
            let i0 = random_instance(&catalog.schema, InstanceParams::default(), seed);
            let got = run_viewed(&plan, &i0, &what);
            assert_eq!(
                got,
                run_viewed(&set_plan, &i0, &what),
                "{what}: set statement"
            );
            let par = imp
                .apply(&i0)
                .unwrap_or_else(|e| panic!("{what}: apply_par: {e}"));
            assert_eq!(got, par, "{what}: apply_par");
            let order = cu.receivers(&i0).canonical_order();
            match apply_sequence(&cu.interpreted_method(), &i0, &order) {
                MethodOutcome::Done(seq) => assert_eq!(got, seq, "{what}: apply_sequence"),
                other => panic!("{what}: apply_sequence: {other:?}"),
            }
        }
    }
    assert!(improved > 0, "the corpus must hold an improved stage");
}

/// An improved stage's footprint is read off its statement, not off the
/// query it executes: every property that query reads must be among the
/// footprint's reads, or the netting pass would take the stage for a
/// blind overwrite of a property it reads (the store an earlier stage
/// makes would be netted, though the improved stage reads it).
#[test]
fn improved_stage_footprints_cover_their_par_reads() {
    let _serial = serial();
    let mut improved = 0;
    for Case {
        label,
        catalog,
        stmt,
        ..
    } in corpus()
    {
        let plan = compile_program(std::slice::from_ref(&stmt), &catalog)
            .unwrap_or_else(|e| panic!("{label}: does not compile: {e}"));
        let stage = &plan.stages()[0];
        if stage.improved().is_none() {
            continue;
        }
        improved += 1;
        for rel in executed_query(stage, &label).base_relations() {
            if let RelName::Prop(p) = rel {
                assert!(
                    stage.footprint().reads.contains(&p),
                    "{label}: the values query reads {p:?}, which the footprint {:?} lacks",
                    stage.footprint().reads
                );
            }
        }
    }
    assert!(improved > 0, "the corpus must hold an improved stage");
}

/// Statements that lower to the same method share one entry, across
/// sources and spellings: after a cold pass over the whole corpus the
/// cache holds one verdict per distinct method, and every other call hit.
#[test]
fn equal_methods_share_one_entry() {
    let _serial = serial();
    let mut keys = Vec::new();
    let mut positive = 0u64;
    reset_proof_cache();
    let before = lookups();
    for Case {
        label,
        catalog,
        stmt,
        ..
    } in corpus()
    {
        let cu = cursor_update(&stmt, &catalog, &label);
        let method = cu.to_algebraic().expect("algebraic form");
        if method.is_positive() {
            positive += 1;
            let key = (
                method.schema().clone(),
                method.signature_ref().clone(),
                method.statements().to_vec(),
            );
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        improve_verdict(&cu, &label);
    }
    let after = lookups();
    let distinct = keys.len() as u64;
    assert_eq!(proof_cache_len() as u64, distinct);
    assert_eq!(after.1 - before.1, distinct, "one miss per distinct method");
    assert_eq!(after.0 - before.0, positive - distinct, "every repeat hits");
    assert!(positive > distinct, "the corpus must repeat a method");
}

/// Two schemas never share an entry: the same cursor update over two
/// catalogs whose schemas differ only by an unused class lowers to equal
/// signatures and statements, and still gets two verdicts.
#[test]
fn different_schemas_never_share_an_entry() {
    let _serial = serial();
    let plain = library_catalog("");
    let wider = library_catalog("class Shelf");
    let stmt = parse(LIBRARY_UPDATE).unwrap();
    let (a, b) = (
        cursor_update(&stmt, &plain, "plain"),
        cursor_update(&stmt, &wider, "wider"),
    );
    let (ma, mb) = (a.to_algebraic().unwrap(), b.to_algebraic().unwrap());
    assert_eq!(ma.signature_ref(), mb.signature_ref());
    assert_eq!(ma.statements(), mb.statements());
    assert_ne!(ma.schema(), mb.schema());

    reset_proof_cache();
    let before = lookups();
    let va = improve_verdict(&a, "plain");
    let vb = improve_verdict(&b, "wider");
    let after = lookups();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 2),
        "both miss"
    );
    assert_eq!(proof_cache_len(), 2);
    assert_eq!(va, vb, "the unused class changes no verdict");
}

/// `reset_proof_cache` empties the cache of both verdict kinds: the
/// next call misses again.
#[test]
fn reset_empties_the_cache() {
    let _serial = serial();
    let (_, catalog) = employee_catalog();
    let cu = cursor_update(&parse(CURSOR_UPDATE_B).unwrap(), &catalog, "(B)");
    reset_proof_cache();
    improve_verdict(&cu, "(B)");
    // Two stores under one guard: the netting pass memoizes the guard
    // implication in the same cache.
    let guarded = [
        "update Employee set Manager = (select E1.Manager from Employee E1 \
         where E1.EmpId = EmpId) where Salary in table Fire",
        "update Employee set Manager = (select E1.EmpId from Employee E1 \
         where E1.EmpId = EmpId) where Salary in table Fire",
    ]
    .map(|t| parse(t).unwrap());
    let plan = compile_program(&guarded, &catalog).unwrap();
    assert!(plan.stages()[0].netted(), "the guarded store must net");
    assert_eq!(proof_cache_len(), 2, "one verdict of each kind");
    reset_proof_cache();
    assert_eq!(proof_cache_len(), 0);
    let before = lookups();
    improve_verdict(&cu, "(B)");
    let after = lookups();
    assert_eq!((after.0 - before.0, after.1 - before.1), (0, 1));
}
