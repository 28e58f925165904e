//! Seeded suite for order-dependent cursor updates run in waves.
//!
//! A cursor update the improve pass keeps (Theorem 5.12 refuses it) runs
//! in key order, and the planner runs that order in waves: the receivers
//! are cut into segments no member of which reads the written row of an
//! earlier member of its own segment, and each segment is one `par(E)`
//! evaluation and one batch write (DESIGN.md §13). Every case here runs
//! one such statement as a one-stage program on the viewed driver and
//! compares the instance and the outcome (`Undefined` included) with the
//! paper's `M_seq` written independently of the planner:
//! `core::sequential::apply_sequence` of the interpreted cursor method in
//! canonical key order.
//!
//! The statements are (C) on three manager shapes — a forward chain
//! (every read is of a later receiver: one wave), a reverse chain (every
//! read is of the receiver just before: waves one receiver long, so the
//! receiver loop runs) and seeded random managers (several waves) — and
//! every statement of the improve-pass corpus the pass keeps, each on
//! seeded `gen::random_instance`s. The suite tallies one-wave,
//! multi-wave, loop-fallback and refused runs from EXPLAIN ANALYZE and
//! fails if any tally is zero.
//!
//! Replay one seed with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test cursor_waves`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::sequential::apply_sequence;
use receivers::objectbase::examples::EmployeeSchema;
use receivers::objectbase::gen::{random_instance, InstanceParams};
use receivers::objectbase::{InPlaceOutcome, Instance, MethodOutcome, Oid};
use receivers::relalg::view::DatabaseView;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::scenarios::CURSOR_UPDATE_C;
use receivers::sql::{compile_program, parse, Catalog, SqlStatement};

mod common;
#[path = "common/corpus.rs"]
mod corpus;
use corpus::{corpus, cursor_update};

/// Seeded instances each kept corpus statement runs on, from this base.
const INSTANCES: u64 = 4;
const INSTANCE_BASE: u64 = 0x3A7E_0000;
/// Random manager shapes (C) runs on, from this base.
const SHAPES: u64 = 8;
const SHAPE_BASE: u64 = 0x3A7E_1000;
/// Employees of a manager shape.
const EMPLOYEES: u32 = 40;

/// How each run went, from its stage's EXPLAIN ANALYZE node.
#[derive(Debug, Default)]
struct Tally {
    one_wave: u32,
    waves: u32,
    fallback: u32,
    refused: u32,
}

/// `n` employees, employee `k` managed by `manager(k)`; employee `k`
/// earns amount `k mod n/2`, and `NewSal` maps amount `a` to `a + n/2`
/// and back.
fn managed(es: &EmployeeSchema, n: u32, manager: impl Fn(usize) -> usize) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amounts = (n / 2).max(2);
    let amount: Vec<Oid> = (0..2 * amounts).map(|k| Oid::new(es.amount, k)).collect();
    let employee: Vec<Oid> = (0..n).map(|k| Oid::new(es.employee, k)).collect();
    for &o in amount.iter().chain(&employee) {
        i.add_object(o);
    }
    for (k, &e) in employee.iter().enumerate() {
        i.link(e, es.salary, amount[k % amounts as usize]).unwrap();
        i.link(e, es.manager, employee[manager(k)]).unwrap();
    }
    for k in 0..2 * amounts {
        let ns = Oid::new(es.newsal, k);
        i.add_object(ns);
        i.link(ns, es.old, amount[k as usize]).unwrap();
        i.link(ns, es.new, amount[((k + amounts) % (2 * amounts)) as usize])
            .unwrap();
    }
    i
}

/// Run `stmt` as a one-stage program from `i0` and compare it with
/// `apply_sequence` of its interpreted cursor method; tally the run.
fn check(stmt: &SqlStatement, catalog: &Catalog, i0: &Instance, what: &str, tally: &mut Tally) {
    let plan = compile_program(std::slice::from_ref(stmt), catalog)
        .unwrap_or_else(|e| panic!("{what}: does not compile: {e}"));
    let stage = &plan.stages()[0];
    assert!(
        stage.algebraic().is_some(),
        "{what}: not an algebraic stage"
    );
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    let (out, prof) = plan
        .execute_viewed_profiled(&mut i, &mut view)
        .unwrap_or_else(|e| panic!("{what}: the planner errored: {e}"));
    assert!(view.matches_rebuild(&i), "{what}: the view drifted");

    let cu = cursor_update(stmt, catalog, what);
    let order = cu.receivers(i0).canonical_order();
    match (apply_sequence(&cu.interpreted_method(), i0, &order), &out) {
        (MethodOutcome::Done(seq), InPlaceOutcome::Applied) => {
            assert_eq!(i, seq, "{what}: the planner differs from M_seq")
        }
        (MethodOutcome::Undefined(_), InPlaceOutcome::Undefined(_)) => {
            assert_eq!(
                &i, i0,
                "{what}: an undefined program must leave the instance"
            )
        }
        (seq, out) => panic!("{what}: M_seq gives {seq:?}, the planner {out:?}"),
    }

    let node = &prof.children[0];
    let sequence: Vec<&String> = node
        .notes
        .iter()
        .filter(|n| n.starts_with("sequence:"))
        .collect();
    let [note] = sequence[..] else {
        panic!("{what}: one sequence note expected, got {sequence:?}");
    };
    let waves = node.metric("waves");
    if note.starts_with("sequence: receiver at a time — ") {
        assert_eq!(waves, Some(0), "{what}: a refused stage runs no wave");
        tally.refused += 1;
    } else {
        assert!(note.starts_with("sequence: in waves — "), "{what}: {note}");
        match waves {
            Some(0) => tally.fallback += 1,
            Some(1) => tally.one_wave += 1,
            Some(_) => tally.waves += 1,
            None => panic!("{what}: no waves metric"),
        }
    }
}

fn seeds(base: u64, n: u64) -> Vec<u64> {
    match std::env::var("RECEIVERS_DIFF_SEED") {
        Ok(s) => vec![s.parse().expect("RECEIVERS_DIFF_SEED is a decimal u64")],
        Err(_) => (0..n).map(|k| base + k).collect(),
    }
}

/// (C) on a forward chain runs in one wave, on a reverse chain through
/// the receiver loop, and on random managers in several waves — each
/// equal to `M_seq`; so does every corpus statement the improve pass
/// keeps, on seeded random instances.
#[test]
fn waves_match_the_sequential_application() {
    let (es, employees) = employee_catalog();
    let c = parse(CURSOR_UPDATE_C).unwrap();
    let mut tally = Tally::default();
    let n = EMPLOYEES as usize;
    check(
        &c,
        &employees,
        &managed(&es, EMPLOYEES, |k| (k + 1).min(n - 1)),
        "(C), forward chain",
        &mut tally,
    );
    check(
        &c,
        &employees,
        &managed(&es, EMPLOYEES, |k| k.saturating_sub(1)),
        "(C), reverse chain",
        &mut tally,
    );
    assert_eq!(
        (tally.one_wave, tally.fallback),
        (1, 1),
        "the chains: {tally:?}"
    );
    for seed in seeds(SHAPE_BASE, SHAPES) {
        let mut rng = StdRng::seed_from_u64(seed);
        let managers: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
        let i0 = managed(&es, EMPLOYEES, |k| managers[k]);
        let what = format!("(C), random managers, seed {seed}");
        check(&c, &employees, &i0, &what, &mut tally);
    }

    let params = InstanceParams {
        objects_per_class: 12,
        edge_density: 0.12,
    };
    let mut kept = 0;
    for (k, case) in corpus().into_iter().enumerate() {
        let plan = compile_program(std::slice::from_ref(&case.stmt), &case.catalog)
            .unwrap_or_else(|e| panic!("{}: does not compile: {e}", case.label));
        if plan.stages()[0].algebraic().is_none() {
            continue;
        }
        kept += 1;
        for s in 0..INSTANCES {
            let seed = INSTANCE_BASE + k as u64 * INSTANCES + s;
            let i0 = random_instance(&case.catalog.schema, params, seed);
            let what = format!("{} ({}), instance seed {seed}", case.label, case.source);
            check(&case.stmt, &case.catalog, &i0, &what, &mut tally);
        }
    }
    assert!(kept > 0, "the corpus must hold a kept statement");
    assert!(
        tally.one_wave > 0 && tally.waves > 0 && tally.fallback > 0 && tally.refused > 0,
        "every kind of run must occur: {tally:?}"
    );
}
