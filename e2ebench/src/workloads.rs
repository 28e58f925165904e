//! The four seeded workloads: base instances, programs, and the expected
//! plan shapes. `--seed` is the only input; the engine under test
//! receives only the generated instance and statement texts.

use std::sync::Arc;

use receivers_objectbase::examples::EmployeeSchema;
use receivers_objectbase::{Instance, Oid};
use receivers_sql::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C, DELETE_MANAGER, UPDATE_C_SET};
use receivers_sql::{ProgramPlan, StageKind};

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one seed
    /// drives independent instance and program draws.
    pub(crate) fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// How employee salaries spread over the amounts in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Salaries {
    /// Every amount held by equally many employees.
    Uniform,
    /// The `k`-th amount held by a share proportional to `1/k`, so the
    /// low amounts — the ones `Fire` lists — are over-represented.
    Zipf,
}

/// How many of `n` employees hold each of `amounts` amounts: shares
/// proportional to the distribution's weights, rounded by largest
/// remainder so they sum to `n`.
fn salary_counts(n: u32, amounts: u32, salaries: Salaries) -> Vec<u32> {
    let weights: Vec<f64> = (1..=amounts)
        .map(|k| match salaries {
            Salaries::Uniform => 1.0,
            Salaries::Zipf => 1.0 / f64::from(k),
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * f64::from(n)).collect();
    let mut counts: Vec<u32> = exact.iter().map(|x| x.floor() as u32).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<u32>();
    for &k in by_remainder.iter().take(short as usize) {
        counts[k] += 1;
    }
    counts
}

/// The seed of the fixed arrangement of salaries over employees.
const ARRANGEMENT_SEED: u64 = 0x5A1A_21E5;

/// A Section 7 Employee instance with `n` employees, after the
/// `plan_pipeline` bench's generator: `n/2` amounts in use plus as many
/// spare ones, and `Fire` listing the low quarter of the amounts in use.
/// Employee `k` is managed by employee `k + 1` (the last by itself), so a
/// receiver-by-receiver update that reads its manager's row — statement
/// (C) — reads a row the canonical order has not updated yet.
///
/// How many employees hold each amount is fixed by `salaries`, and which
/// employees hold it by a fixed shuffle. The seed numbers the amount
/// objects: it draws which object identifier each amount gets. So every
/// seed gives an isomorphic instance — the same guard selectivities,
/// join sizes and receiver sequences, the same work — under different
/// identifiers. Drawing the arrangement from the seed instead made
/// `cursor`'s work differ by up to 20% between seeds, because which
/// employees its first statement deletes decides what (C) finds.
///
/// `NewSal` pairs amount `k` with `k + n/2` in **both** directions, so it
/// is total over the whole pool: salary updates keep finding a match
/// however often a program moves a salary, and `par(E)` is exact.
pub(crate) fn employee_instance(
    es: &EmployeeSchema,
    n: u32,
    salaries: Salaries,
    rng: &mut Rng,
) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let amounts = (n / 2).max(2);
    let mut ids: Vec<u32> = (0..amounts * 2).collect();
    shuffle(&mut ids, rng);
    let amount_objs: Vec<Oid> = ids.iter().map(|&id| Oid::new(es.amount, id)).collect();
    for &a in &amount_objs {
        i.add_object(a);
    }
    let mut held: Vec<usize> = salary_counts(n, amounts, salaries)
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c as usize))
        .collect();
    shuffle(&mut held, &mut Rng::new(ARRANGEMENT_SEED, 1));
    let employees: Vec<Oid> = (0..n).map(|k| Oid::new(es.employee, k)).collect();
    for &e in &employees {
        i.add_object(e);
    }
    for (k, (&e, &amount)) in employees.iter().zip(&held).enumerate() {
        i.link(e, es.salary, amount_objs[amount])
            .expect("typed edge");
        i.link(e, es.manager, employees[(k + 1).min(employees.len() - 1)])
            .expect("typed edge");
    }
    for k in 0..amounts * 2 {
        let ns = Oid::new(es.newsal, k);
        i.add_object(ns);
        i.link(ns, es.old, amount_objs[k as usize])
            .expect("typed edge");
        i.link(
            ns,
            es.new,
            amount_objs[((k + amounts) % (2 * amounts)) as usize],
        )
        .expect("typed edge");
    }
    for k in 0..(amounts / 4).max(1) {
        let f = Oid::new(es.fire, k);
        i.add_object(f);
        i.link(f, es.fire_amount, amount_objs[k as usize])
            .expect("typed edge");
    }
    i
}

/// The headline program of `examples/profile_program.rs` and the
/// `plan_pipeline`/`profiler` benches: every planner pass fires.
pub(crate) const MIXED_PROGRAM: &[&str] = &[
    "update Employee set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
     where Salary in table Fire",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary in table Fire",
    "for each t in Employee do update t set Salary = \
     (select New from NewSal where Old = Salary)",
    "update Employee set Salary = (select Amount from Fire)",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary not in table Fire",
    "for each t in Employee do if Manager = EmpId update t set Salary = \
     (select New from NewSal where Old = Salary)",
];

/// Cursor stages the improve pass refuses: a guarded cursor delete, the
/// order-dependent update (C) (algebraic, applied receiver by receiver),
/// and a guarded cursor update (interpreted).
pub(crate) const CURSOR_PROGRAM: &[&str] = &[
    "for each t in Employee do if Salary in table Fire delete t from Employee",
    CURSOR_UPDATE_C,
    "for each t in Employee do if Salary not in table Fire update t set Salary = \
     (select New from NewSal where Old = Salary)",
];

/// The guard of the correlated `exists` delete, also guarding the set
/// update before it.
const MANAGER_FIRED: &str =
    "exists (select * from Employee E1 where E1.EmpId = Manager and E1.Salary in table Fire)";

/// Set statements whose values and guards are correlated subqueries: the
/// improved update (B) — the paper's parallel `par(E)` application — the
/// set form of (C), a guarded set update, and the `exists` delete.
pub(crate) fn correlated_program() -> Vec<String> {
    vec![
        CURSOR_UPDATE_B.to_owned(),
        UPDATE_C_SET.to_owned(),
        format!(
            "update Employee set Salary = (select New from NewSal where Old = Salary) \
             where {MANAGER_FIRED}"
        ),
        DELETE_MANAGER.to_owned(),
    ]
}

/// Guard pool of the `plan_differential` suite: small, so guards recur
/// within a program and the CSE and netting passes fire.
const GUARDS: &[&str] = &[
    "Salary in table Fire",
    "Salary not in table Fire",
    "Manager = EmpId",
    "exists (select * from NewSal where Old = Salary)",
];

/// Statement templates of the pool.
const TEMPLATES: u64 = 6;

/// Statement counts of one round's programs: each of 1–5 twice.
const ROUND_SIZES: [usize; 10] = [1, 2, 3, 4, 5, 1, 2, 3, 4, 5];

/// Templates that always carry a guard (the deletes).
fn needs_guard(template: u64) -> bool {
    matches!(template, 0 | 5)
}

/// Statement `template` of the `plan_differential` pool without the
/// order-dependent template (C), guarded by `GUARDS[guard]` or, for
/// `None`, unguarded.
fn adhoc_statement(template: u64, guard: Option<usize>) -> String {
    let guarded = guard.is_some();
    let guard = GUARDS[guard.unwrap_or(0)];
    let suffix = if guarded {
        format!(" where {guard}")
    } else {
        String::new()
    };
    debug_assert!(guarded || !needs_guard(template));
    match template {
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
        4 => CURSOR_UPDATE_B.to_owned(),
        _ => format!("for each t in Employee do if {guard} delete t from Employee"),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for k in (1..items.len()).rev() {
        items.swap(k, rng.below(k as u64 + 1) as usize);
    }
}

/// One round's statements as `(template, guard)`: each template five
/// times. A template that may go unguarded is unguarded twice and
/// guarded by three different guards; a delete takes every guard once
/// and one of them twice. The seed picks the guards and the order.
fn round_deck(rng: &mut Rng) -> Vec<(u64, Option<usize>)> {
    let mut deck = Vec::new();
    for template in 0..TEMPLATES {
        let mut guards: Vec<usize> = (0..GUARDS.len()).collect();
        shuffle(&mut guards, rng);
        let guards = guards.into_iter().map(Some);
        if needs_guard(template) {
            let again = Some(rng.below(GUARDS.len() as u64) as usize);
            deck.extend(guards.chain([again]).map(|g| (template, g)));
        } else {
            deck.extend(
                [None, None]
                    .into_iter()
                    .chain(guards.take(3))
                    .map(|g| (template, g)),
            );
        }
    }
    shuffle(&mut deck, rng);
    deck
}

/// One round of fresh ad-hoc programs: ten programs of 1–5 statements,
/// each statement count twice, dealt from [`round_deck`]. Stratifying the
/// mix — sizes, templates and guards — keeps a round's cost about the
/// same from seed to seed while every program is new.
pub(crate) fn adhoc_round(rng: &mut Rng) -> Vec<Vec<String>> {
    let mut sizes = ROUND_SIZES;
    shuffle(&mut sizes, rng);
    let mut deck = round_deck(rng).into_iter();
    sizes
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    let (template, guard) = deck.next().expect("one card per statement");
                    adhoc_statement(template, guard)
                })
                .collect()
        })
        .collect()
}

/// The benchmark's workloads. Each loads a different layer; see
/// `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six-statement headline program on 512 employees: every
    /// planner pass fires; batch appliers and `sql::eval` dominate.
    Mixed,
    /// Ten fresh 1–5-statement programs per round on 64 employees:
    /// compilation weighs against small executions.
    Adhoc,
    /// Refused cursor stages on 96 employees: receiver-by-receiver
    /// application, one fsync'd WAL record per receiver.
    Cursor,
    /// Correlated set statements on 96 Zipf employees: row-by-row
    /// subquery evaluation and the parallel `par(E)` stage.
    Correlated,
}

/// What the planner must have done to a fixed workload's program before
/// any timing counts, so that a workload cannot silently stop loading
/// the layer it exists for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Stages the netting pass must skip.
    pub(crate) netted: usize,
    /// Stages whose selector is shared with an earlier one, at least.
    pub(crate) shared_min: usize,
    /// Cursor updates the improve pass must rewrite into `par(E)`.
    pub(crate) improved: usize,
    /// Cursor stages left to run receiver by receiver, at least.
    pub(crate) cursor_min: usize,
    /// 1-based stages allowed to write no row. Every other non-netted
    /// stage must write at least one.
    pub(crate) idle: &'static [usize],
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Mixed,
        Workload::Adhoc,
        Workload::Cursor,
        Workload::Correlated,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Adhoc => "adhoc",
            Workload::Cursor => "cursor",
            Workload::Correlated => "correlated",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Employees in the base instance.
    pub(crate) fn employees(self) -> u32 {
        match self {
            Workload::Mixed => 512,
            Workload::Adhoc => 64,
            Workload::Cursor | Workload::Correlated => 96,
        }
    }

    /// Salary distribution of the base instance.
    pub(crate) fn salaries(self) -> Salaries {
        match self {
            Workload::Correlated => Salaries::Zipf,
            _ => Salaries::Uniform,
        }
    }

    /// The program every round applies; `None` for `adhoc`, which draws
    /// fresh ones.
    pub(crate) fn fixed_program(self) -> Option<Vec<String>> {
        let owned = |texts: &[&str]| texts.iter().map(|&t| t.to_owned()).collect();
        match self {
            Workload::Mixed => Some(owned(MIXED_PROGRAM)),
            Workload::Adhoc => None,
            Workload::Cursor => Some(owned(CURSOR_PROGRAM)),
            Workload::Correlated => Some(correlated_program()),
        }
    }

    /// The planner shape a fixed workload must have.
    pub(crate) fn shape(self) -> Option<Shape> {
        match self {
            // Stage 3 (the improved update) is netted by the blind
            // overwrite in stage 4, which also nets stage 2; the overwrite
            // puts every salary in `Fire`, so stage 5's `not in table
            // Fire` guard selects no row.
            Workload::Mixed => Some(Shape {
                netted: 2,
                shared_min: 1,
                improved: 1,
                cursor_min: 1,
                idle: &[5],
            }),
            Workload::Adhoc => None,
            Workload::Cursor => Some(Shape {
                netted: 0,
                shared_min: 0,
                improved: 0,
                cursor_min: 3,
                idle: &[],
            }),
            Workload::Correlated => Some(Shape {
                netted: 0,
                shared_min: 0,
                improved: 1,
                cursor_min: 0,
                idle: &[],
            }),
        }
    }
}

/// The planner's decisions over a program, counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PlanCounts {
    /// Stages.
    pub(crate) stages: usize,
    /// Stages the netting pass skips.
    pub(crate) netted: usize,
    /// Stages sharing a selector with an earlier one.
    pub(crate) shared: usize,
    /// Cursor updates rewritten into `par(E)`.
    pub(crate) improved: usize,
    /// Cursor stages run receiver by receiver.
    pub(crate) cursor: usize,
}

impl PlanCounts {
    /// Count `plan`'s stages by decision.
    pub(crate) fn of(plan: &ProgramPlan) -> Self {
        let stages = plan.stages();
        let count =
            |f: &dyn Fn(&receivers_sql::Stage) -> bool| stages.iter().filter(|s| f(s)).count();
        PlanCounts {
            stages: stages.len(),
            netted: count(&|s| s.netted()),
            shared: count(&|s| s.shared_selector()),
            improved: count(&|s| s.kind() == StageKind::ImprovedUpdate),
            cursor: count(&|s| {
                matches!(s.kind(), StageKind::CursorUpdate | StageKind::CursorDelete)
            }),
        }
    }
}

/// Check `plan` against `shape`, given the rows each stage wrote in one
/// execution (`rows_out`, one per stage, 0 for netted ones).
pub(crate) fn check_shape(
    plan: &ProgramPlan,
    shape: &Shape,
    rows_out: &[u64],
) -> Result<(), String> {
    let PlanCounts {
        netted,
        shared,
        improved,
        cursor,
        ..
    } = PlanCounts::of(plan);
    let mut problems = Vec::new();
    if netted != shape.netted {
        problems.push(format!(
            "{netted} netted stage(s), expected {}",
            shape.netted
        ));
    }
    if shared < shape.shared_min {
        problems.push(format!(
            "{shared} shared selector(s), expected at least {}",
            shape.shared_min
        ));
    }
    if improved != shape.improved {
        problems.push(format!(
            "{improved} improved stage(s), expected {}",
            shape.improved
        ));
    }
    if cursor < shape.cursor_min {
        problems.push(format!(
            "{cursor} refused cursor stage(s), expected at least {}",
            shape.cursor_min
        ));
    }
    for (k, (stage, &rows)) in plan.stages().iter().zip(rows_out).enumerate() {
        let idle = shape.idle.contains(&(k + 1));
        if !stage.netted() && (rows == 0) != idle {
            problems.push(format!(
                "stage {} wrote {rows} row(s), expected {}",
                k + 1,
                if idle { "none" } else { "at least one" }
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use receivers_sql::catalog::employee_catalog;

    use super::*;

    fn instance_hash(w: Workload, seed: u64) -> u64 {
        let (es, _) = employee_catalog();
        let i = employee_instance(&es, w.employees(), w.salaries(), &mut Rng::new(seed, 1));
        let mut h = DefaultHasher::new();
        i.hash(&mut h);
        h.finish()
    }

    fn adhoc_texts(seed: u64) -> Vec<Vec<String>> {
        let mut rng = Rng::new(seed, 2);
        (0..4).flat_map(|_| adhoc_round(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(instance_hash(w, 7), instance_hash(w, 7), "{}", w.name());
        }
        assert_eq!(adhoc_texts(7), adhoc_texts(7));
    }

    #[test]
    fn different_seed_different_inputs() {
        for w in Workload::ALL {
            assert_ne!(instance_hash(w, 7), instance_hash(w, 8), "{}", w.name());
        }
        assert_ne!(adhoc_texts(7), adhoc_texts(8));
    }

    #[test]
    fn salary_counts_sum_to_the_employees() {
        for (n, salaries) in [
            (512, Salaries::Uniform),
            (96, Salaries::Zipf),
            (7, Salaries::Zipf),
        ] {
            let counts = salary_counts(n, (n / 2).max(2), salaries);
            assert_eq!(counts.iter().sum::<u32>(), n);
            assert!(counts.windows(2).all(|w| w[0] >= w[1]) || salaries == Salaries::Uniform);
        }
        assert!(salary_counts(512, 256, Salaries::Uniform)
            .iter()
            .all(|&c| c == 2));
    }

    #[test]
    fn adhoc_rounds_are_stratified() {
        let round = adhoc_round(&mut Rng::new(7, 2));
        let mut sizes: Vec<usize> = round.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
        let count = |f: &dyn Fn(&str) -> bool| round.iter().flatten().filter(|t| f(t)).count();
        assert_eq!(count(&|t| t.ends_with("delete t from Employee")), 5);
        assert_eq!(count(&|t| t == CURSOR_UPDATE_B), 2, "the improvable update");
        let unguarded = |t: &str| !GUARDS.iter().any(|g| t.contains(g));
        assert_eq!(
            count(&unguarded),
            8,
            "two of each optionally guarded template"
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
