//! Experiment P4 — sequential-application throughput (Section 3): cost of
//! `M(I, t₁…tₙ)` for the paper's three beer methods as the instance size
//! grows, and the cost of the exhaustive order-independence check as the
//! receiver-set size grows (|T|! enumerations).
//!
//! Experiment P27 — `sequential/cursor_c`: the order-dependent statement
//! (C) run by the planner (`compile_program` + `execute_viewed`, in
//! waves where its segments are long enough) against its receiver loop
//! (`AlgebraicMethod::apply_sequence_viewed`), on three manager shapes:
//! a forward chain (employee `k` managed by `k + 1`: every read is of a
//! later receiver, one wave), a reverse chain (`k` managed by `k - 1`:
//! every read is of the receiver just before, so waves would be one
//! receiver long and the planner runs the loop) and random managers.
//! Every iteration starts from a clone of the instance and its view; the
//! `clone` rows price that alone. Each shape first prints the waves the
//! planner runs (0: the receiver loop).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

use receivers_bench::{beer_instance, beer_key_set};
use receivers_core::methods::{add_bar, delete_bar, favorite_bar};
use receivers_core::sequential::{apply_seq_unchecked, order_independent_on};
use receivers_objectbase::examples::EmployeeSchema;
use receivers_objectbase::{Instance, Oid};
use receivers_relalg::view::DatabaseView;
use receivers_sql::catalog::employee_catalog;
use receivers_sql::scenarios::CURSOR_UPDATE_C;
use receivers_sql::{compile, compile_program, parse, CompiledStatement};

fn application_throughput(c: &mut Criterion) {
    let s = receivers_objectbase::examples::beer_schema();
    let mut group = c.benchmark_group("sequential/apply");
    group.sample_size(20);
    for &scale in &[8u32, 32, 128] {
        let instance = beer_instance(scale);
        let t = beer_key_set(&instance, 8);
        for m in [add_bar(&s), favorite_bar(&s), delete_bar(&s)] {
            use receivers_objectbase::UpdateMethod as _;
            group.bench_with_input(BenchmarkId::new(m.name().to_owned(), scale), &t, |b, t| {
                b.iter(|| black_box(apply_seq_unchecked(&m, &instance, t)))
            });
        }
    }
    group.finish();
}

fn exhaustive_check_cost(c: &mut Criterion) {
    let s = receivers_objectbase::examples::beer_schema();
    let m = add_bar(&s);
    let mut group = c.benchmark_group("sequential/exhaustive_check");
    group.sample_size(10);
    for &n in &[2usize, 3, 4, 5] {
        let instance = beer_instance(16);
        let t = beer_key_set(&instance, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &t, |b, t| {
            b.iter(|| black_box(order_independent_on(&m, &instance, t)))
        });
    }
    group.finish();
}

/// Who manages employee `k` of `n`.
#[derive(Clone, Copy)]
enum Managers {
    Forward,
    Reverse,
    Random,
}

impl Managers {
    fn name(self) -> &'static str {
        match self {
            Managers::Forward => "forward",
            Managers::Reverse => "reverse",
            Managers::Random => "random",
        }
    }
}

/// `n` employees managed as `shape` says; employee `k` earns amount
/// `k mod n/2`, and `NewSal` maps amount `a` to `a + n/2` and back, so
/// (C) finds a new salary for every manager's.
fn managed_employees(es: &EmployeeSchema, n: u32, shape: Managers) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amounts = (n / 2).max(2);
    let amount: Vec<Oid> = (0..2 * amounts).map(|k| Oid::new(es.amount, k)).collect();
    let employee: Vec<Oid> = (0..n).map(|k| Oid::new(es.employee, k)).collect();
    for &o in amount.iter().chain(&employee) {
        i.add_object(o);
    }
    let mut rng = StdRng::seed_from_u64(0xC0C);
    for (k, &e) in employee.iter().enumerate() {
        i.link(e, es.salary, amount[k % amounts as usize])
            .expect("typed");
        let m = match shape {
            Managers::Forward => (k + 1).min(employee.len() - 1),
            Managers::Reverse => k.saturating_sub(1),
            Managers::Random => rng.random_range(0..employee.len()),
        };
        i.link(e, es.manager, employee[m]).expect("typed");
    }
    for k in 0..2 * amounts {
        let ns = Oid::new(es.newsal, k);
        i.add_object(ns);
        i.link(ns, es.old, amount[k as usize]).expect("typed");
        i.link(ns, es.new, amount[((k + amounts) % (2 * amounts)) as usize])
            .expect("typed");
    }
    i
}

fn cursor_c(c: &mut Criterion) {
    let (es, catalog) = employee_catalog();
    let stmt = parse(CURSOR_UPDATE_C).expect("(C) parses");
    let plan = compile_program(std::slice::from_ref(&stmt), &catalog).expect("(C) compiles");
    let Ok(CompiledStatement::CursorUpdate(cu)) = compile(&stmt, &catalog) else {
        panic!("(C) is a cursor update");
    };
    let method = cu.to_algebraic().expect("(C) is algebraic");
    let mut group = c.benchmark_group("sequential/cursor_c");
    group.sample_size(15);
    for &n in &[96u32, 512] {
        for shape in [Managers::Forward, Managers::Reverse, Managers::Random] {
            let i0 = managed_employees(&es, n, shape);
            let v0 = DatabaseView::new(&i0);
            let order = cu.receivers(&i0).canonical_order();
            let (mut a, mut va) = (i0.clone(), v0.clone());
            let (out, prof) = plan.execute_viewed_profiled(&mut a, &mut va).unwrap();
            assert!(out.is_applied());
            println!(
                "cursor_c {}/{n}: {} wave(s)",
                shape.name(),
                prof.children[0].metric("waves").unwrap_or(0)
            );
            let (mut b, mut vb) = (i0.clone(), v0.clone());
            assert!(method
                .apply_sequence_viewed(&mut b, &mut vb, &order)
                .is_applied());
            assert_eq!(
                a,
                b,
                "{} {n}: the planner differs from the loop",
                shape.name()
            );
            group.bench_function(
                BenchmarkId::new(format!("{}/planner", shape.name()), n),
                |b| {
                    b.iter(|| {
                        let (mut i, mut v) = (i0.clone(), v0.clone());
                        black_box(plan.execute_viewed(&mut i, &mut v).unwrap())
                    })
                },
            );
            group.bench_function(BenchmarkId::new(format!("{}/loop", shape.name()), n), |b| {
                b.iter(|| {
                    let (mut i, mut v) = (i0.clone(), v0.clone());
                    black_box(method.apply_sequence_viewed(&mut i, &mut v, &order))
                })
            });
            group.bench_function(
                BenchmarkId::new(format!("{}/clone", shape.name()), n),
                |b| b.iter(|| black_box((i0.clone(), v0.clone()))),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    application_throughput,
    exhaustive_check_cost,
    cursor_c
);
criterion_main!(benches);
