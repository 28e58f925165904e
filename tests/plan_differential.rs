//! Seeded differential suite for the program-level planner
//! (`sql::plan`).
//!
//! Each trial draws one random update program (1–5 statements over the
//! Section 7 employee catalog: guarded/unguarded set deletes, set
//! updates, cursor updates in the improvable (B) and order-dependent (C)
//! shapes, cursor deletes) plus a random bounded instance, then checks
//! that the compiled-program pipeline is **bit-identical** to the oracle
//! written here: the legacy per-statement path (each statement compiled
//! and applied one at a time through `sql::compile`), or the input state
//! when any statement is undefined, since a program is one transaction:
//!
//! * [`ProgramPlan::execute_viewed`]: same instance, same hash, the
//!   maintained [`DatabaseView`] matching a from-scratch rebuild, and a
//!   consistent adjacency index;
//! * [`ProgramPlan::execute_sharded`] at 1/2/3 shards;
//! * [`ProgramPlan::execute_durable`] over a [`FaultStorage`]-backed
//!   [`DurableStore`], and the recovery ([`DurableStore::open`]) of the
//!   logged run — both bit-identical to the oracle, the program logged
//!   as at most one WAL record;
//! * the durable driver again over storage torn at a seeded byte: it may
//!   only fail with the crash, and then leaves the instance exactly as
//!   passed in; its WAL must be a byte prefix of the unbudgeted run's, and
//!   the wreckage must recover to exactly the input or the oracle;
//! * the durable driver over storage whose append, then whose sync, of
//!   the program's record fails once: the instance and view equal the
//!   input bit for bit, a reopen recovers the input, and re-running the
//!   program on the same store applies and recovers to the oracle.
//!
//! The planner passes are exercised *as optimizations must be*: netted
//! stages are skipped, shared selectors are hash-consed and reused, and
//! improvable cursor updates run as one vectorized `par(E)` stage — all
//! without an observable difference from the one-at-a-time semantics.
//! The sweep closes with counter-backed non-vacuity asserts (every pass
//! must actually have fired), and two deterministic property tests pin
//! the CSE and netting contracts directly.
//!
//! Every assertion message carries the failing seed; to replay one, add
//! it to `tests/seeds/plan_differential.seeds` (replayed before the
//! random sweep) or run
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test plan_differential`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::sequential::apply_seq_unchecked;
use receivers::core::shard::ShardConfig;
use receivers::objectbase::examples::EmployeeSchema;
use receivers::objectbase::{InPlaceOutcome, Instance, MethodOutcome, Oid};
use receivers::obs;
use receivers::relalg::view::DatabaseView;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::scenarios::{section7_instance, UPDATE_A};
use receivers::sql::{
    compile, compile_program, parse, Catalog, CompiledStatement, SqlError, SqlStatement, StageKind,
};
use receivers::wal::{DurableStore, FaultStorage, WalConfig, WalError, WalStorage};

mod common;
use common::random_statement;

/// Default number of random programs per run; override with
/// `RECEIVERS_DIFF_PROGRAMS`. The `#[ignore]`d long-run variant uses 5000.
const DEFAULT_PROGRAMS: u64 = 500;

/// Base offset separating this sweep's seed space from the other
/// differential suites (`view_differential` 0x51EE_D000,
/// `shard_differential` 0x5AA2_D000, `sat_properties` 0x54A7_0000,
/// `wal_recovery` 0xC4A5_4D00).
const SWEEP_BASE: u64 = 0x91A7_0000;

/// Durable runs the crash arm actually tore (the rest fit their budget).
static CRASHED_RUNS: AtomicU64 = AtomicU64::new(0);

/// Durable runs the transient arm failed (an append or a sync of the
/// program's record).
static TRANSIENT_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Set-update stages whose values came from one `par(E)` evaluation, and
/// those evaluated row by row, as EXPLAIN names them.
static PAR_VALUES: AtomicU64 = AtomicU64::new(0);
static ROW_VALUES: AtomicU64 = AtomicU64::new(0);

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Panic-time diagnostics: dropped while unwinding out of a failed trial,
/// prints the one-line replay recipe and the metrics accumulated up to
/// the failure.
struct ReplayBanner {
    seed: u64,
    /// The trial's statement texts, filled in once the program is drawn,
    /// so a divergence banner shows the exact failing program.
    program: Vec<String>,
}

impl Drop for ReplayBanner {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "\n=== plan_differential trial failed: replay with ===\n\
                 ===   RECEIVERS_DIFF_SEED={} cargo test --test plan_differential ===",
                self.seed
            );
            for (k, text) in self.program.iter().enumerate() {
                eprintln!("===   statement {k}: {text}");
            }
            eprint!(
                "{}",
                obs::export::render_summary(&obs::metrics_snapshot(), &[])
            );
        }
    }
}

fn random_program(rng: &mut StdRng) -> (Vec<String>, Vec<SqlStatement>) {
    let n = rng.random_range(1..=5u32);
    let texts: Vec<String> = (0..n).map(|_| random_statement(rng)).collect();
    let stmts = texts
        .iter()
        .map(|text| {
            parse(text).unwrap_or_else(|e| panic!("pool statement must parse: {text}: {e}"))
        })
        .collect();
    (texts, stmts)
}

/// A random bounded instance over the employee schema: every edge of
/// every property drawn independently, so guards hit populated and empty
/// shapes alike.
fn random_instance(es: &EmployeeSchema, rng: &mut StdRng) -> Instance {
    let mut i = Instance::empty(Arc::clone(&es.schema));
    let employees: Vec<Oid> = (0..rng.random_range(2..=4u32))
        .map(|k| Oid::new(es.employee, k))
        .collect();
    let amounts: Vec<Oid> = (0..rng.random_range(2..=3u32))
        .map(|k| Oid::new(es.amount, k))
        .collect();
    let fires: Vec<Oid> = (0..rng.random_range(1..=2u32))
        .map(|k| Oid::new(es.fire, k))
        .collect();
    let newsals: Vec<Oid> = (0..rng.random_range(1..=2u32))
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
    for &e in &employees {
        for &a in &amounts {
            if rng.random_bool(0.4) {
                i.link(e, es.salary, a).expect("typed edge");
            }
        }
        for &m in &employees {
            if rng.random_bool(0.3) {
                i.link(e, es.manager, m).expect("typed edge");
            }
        }
    }
    for &f in &fires {
        for &a in &amounts {
            if rng.random_bool(0.5) {
                i.link(f, es.fire_amount, a).expect("typed edge");
            }
        }
    }
    for &n in &newsals {
        for &a in &amounts {
            if rng.random_bool(0.5) {
                i.link(n, es.old, a).expect("typed edge");
            }
            if rng.random_bool(0.5) {
                i.link(n, es.new, a).expect("typed edge");
            }
        }
    }
    i
}

/// The oracle's verdict on a program: its result, or undefined.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    Applied(Instance),
    Undefined,
}

impl Expected {
    /// The state every driver must end in: the result, or the input.
    fn state<'a>(&'a self, i0: &'a Instance) -> &'a Instance {
        match self {
            Expected::Applied(i) => i,
            Expected::Undefined => i0,
        }
    }

    fn applied(&self) -> bool {
        matches!(self, Expected::Applied(_))
    }
}

/// The program oracle: the legacy per-statement path — each statement
/// compiled on its own through `sql::compile` and applied functionally,
/// set-oriented forms via their two-phase `apply`, cursor forms via the
/// interpreted method run receiver-by-receiver in canonical order — or
/// [`Expected::Undefined`] when any statement is undefined, because the
/// paper's `M(I, s)` is undefined when any step is and a program is one
/// transaction. This is the execution path the planner replaced, and the
/// semantics it must preserve.
fn legacy_apply(stmts: &[SqlStatement], catalog: &Catalog, i0: &Instance, seed: u64) -> Expected {
    let done = |out: MethodOutcome, what: &str| match out {
        MethodOutcome::Done(i) => Some(i),
        MethodOutcome::Undefined(_) => None,
        MethodOutcome::Diverges => panic!("{what} oracle diverged (seed {seed})"),
    };
    let mut i = i0.clone();
    for stmt in stmts {
        let compiled = compile(stmt, catalog)
            .unwrap_or_else(|e| panic!("pool statement must compile (seed {seed}): {e}"));
        let next = match &compiled {
            CompiledStatement::SetDelete(sd) => Some(
                sd.apply(&i)
                    .unwrap_or_else(|e| panic!("set delete oracle errored (seed {seed}): {e}")),
            ),
            CompiledStatement::SetUpdate(su) => Some(
                su.apply(&i)
                    .unwrap_or_else(|e| panic!("set update oracle errored (seed {seed}): {e}")),
            ),
            CompiledStatement::CursorDelete(cd) => {
                let m = cd.method();
                let t = cd.receivers(&i);
                done(apply_seq_unchecked(&m, &i, &t), "cursor delete")
            }
            CompiledStatement::CursorUpdate(cu) => {
                let m = cu.interpreted_method();
                let t = cu.receivers(&i);
                done(apply_seq_unchecked(&m, &i, &t), "cursor update")
            }
        };
        match next {
            Some(next) => i = next,
            None => return Expected::Undefined,
        }
    }
    Expected::Applied(i)
}

/// Assert a driver's outcome is the oracle's verdict.
fn assert_outcome(out: &InPlaceOutcome, expected: &Expected, seed: u64, label: &str) {
    assert_eq!(
        out.is_applied(),
        expected.applied(),
        "{label} driver outcome {out:?} disagrees with the oracle (seed {seed})"
    );
}

/// Assert `got` reproduced `want` bit for bit (instance + hash + index).
fn assert_identical(got: &Instance, want: &Instance, seed: u64, label: &str) {
    assert_eq!(got, want, "instance diverged (seed {seed}, {label})");
    assert_eq!(
        hash_of(got),
        hash_of(want),
        "instance hash diverged (seed {seed}, {label})"
    );
    got.check_index_consistent();
}

/// A fresh store over `storage` whose epoch-1 snapshot is `i0`.
fn store_over(
    storage: FaultStorage,
    es: &EmployeeSchema,
    i0: &Instance,
    seed: u64,
) -> DurableStore<FaultStorage> {
    DurableStore::create(storage, Arc::clone(&es.schema), WalConfig::default(), i0)
        .unwrap_or_else(|e| panic!("store creation failed (seed {seed}): {e}"))
}

/// Power `storage` back on with every written byte and recover it.
fn recover(
    storage: FaultStorage,
    es: &EmployeeSchema,
    seed: u64,
    label: &str,
) -> (Instance, DatabaseView) {
    let (_store, recovered, rview, _report) = DurableStore::open(
        storage.reopen(),
        Arc::clone(&es.schema),
        WalConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{label} recovery failed (seed {seed}): {e}"));
    recovered.check_index_consistent();
    assert!(
        rview.matches_rebuild(&recovered),
        "{label} recovered view diverged from rebuild (seed {seed})"
    );
    (recovered, rview)
}

/// One full differential trial for `seed`.
fn run_program(seed: u64) {
    let mut banner = ReplayBanner {
        seed,
        program: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57_91A7_0DA6_5EED);
    let (es, catalog) = employee_catalog();
    let (texts, stmts) = random_program(&mut rng);
    banner.program = texts;
    let i0 = random_instance(&es, &mut rng);

    let plan = compile_program(&stmts, &catalog)
        .unwrap_or_else(|e| panic!("pool program must compile (seed {seed}): {e}"));
    let expected = legacy_apply(&stmts, &catalog, &i0, seed);
    let oracle = expected.state(&i0);
    for stage in plan.explain().children {
        for note in &stage.notes {
            if note.starts_with("values: one par(E)") {
                PAR_VALUES.fetch_add(1, Ordering::Relaxed);
            } else if note.starts_with("values: row by row") {
                ROW_VALUES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // Sequential viewed driver.
    let mut seq = i0.clone();
    let mut view = DatabaseView::new(&seq);
    let out = plan
        .execute_viewed(&mut seq, &mut view)
        .unwrap_or_else(|e| panic!("viewed driver errored (seed {seed}): {e}"));
    assert_outcome(&out, &expected, seed, "viewed");
    assert_identical(&seq, oracle, seed, "viewed");
    assert!(
        view.matches_rebuild(&seq),
        "maintained view diverged from rebuild (seed {seed})"
    );

    // EXPLAIN ANALYZE arm: profiling is a pure observer. The profiled
    // viewed driver must reproduce the oracle bit for bit, account for
    // every stage, and its row counts must reconcile with the
    // vectorized-rows counter (`>=`: counters are process-global).
    if expected.applied() {
        let before = obs::metrics_snapshot();
        let mut profiled = i0.clone();
        let mut pview = DatabaseView::new(&profiled);
        let (out, tree) = plan
            .execute_viewed_profiled(&mut profiled, &mut pview)
            .unwrap_or_else(|e| panic!("profiled viewed driver errored (seed {seed}): {e}"));
        assert_outcome(&out, &expected, seed, "profiled viewed");
        assert_identical(&profiled, oracle, seed, "viewed+profile");
        assert!(
            pview.matches_rebuild(&profiled),
            "profiled maintained view diverged (seed {seed})"
        );
        assert_eq!(
            tree.children.len(),
            plan.stages().len(),
            "one profile child per stage (seed {seed})"
        );
        let vectorized: u64 = plan
            .stages()
            .iter()
            .zip(&tree.children)
            .filter(|(s, _)| {
                !s.netted() && matches!(s.kind(), StageKind::SetDelete | StageKind::SetUpdate)
            })
            .map(|(_, c)| c.rows_in)
            .sum();
        let after = obs::metrics_snapshot();
        let delta = after.counter("sql.plan.vectorized_rows").unwrap_or(0)
            - before.counter("sql.plan.vectorized_rows").unwrap_or(0);
        assert!(
            delta >= vectorized,
            "profile rows must reconcile with the vectorized-rows counter \
             (seed {seed}: counter delta {delta} < profiled {vectorized})"
        );
    }

    // Profiled sharded and durable drivers: same bit-identity contract,
    // plus the durable tree's program-level `commit` child accounting for
    // every appended record — at most one per program.
    {
        let mut sharded = i0.clone();
        let (out, tree) = plan
            .execute_sharded_profiled(&mut sharded, &ShardConfig::default())
            .unwrap_or_else(|e| panic!("profiled sharded driver errored (seed {seed}): {e}"));
        assert_outcome(&out, &expected, seed, "profiled sharded");
        assert_identical(&sharded, oracle, seed, "sharded+profile");
        if expected.applied() {
            assert_eq!(tree.children.len(), plan.stages().len());
        }

        let mut durable = i0.clone();
        let mut store = store_over(FaultStorage::new(), &es, &i0, seed);
        let mut dview = DatabaseView::new(&durable);
        let (out, tree) = plan
            .execute_durable_profiled(&mut durable, &mut dview, &mut store)
            .unwrap_or_else(|e| panic!("profiled durable driver errored (seed {seed}): {e}"));
        assert_outcome(&out, &expected, seed, "profiled durable");
        assert_identical(&durable, oracle, seed, "durable+profile");
        if expected.applied() {
            assert_eq!(
                tree.children.len(),
                plan.stages().len() + 1,
                "one child per stage, then the commit (seed {seed})"
            );
            let commit = tree
                .find("commit")
                .unwrap_or_else(|| panic!("the durable tree has a commit node (seed {seed})"));
            assert_eq!(
                commit.metric("records"),
                Some(store.stats().records),
                "the commit node must account for every record (seed {seed})"
            );
        }
        assert!(
            store.stats().records <= 1,
            "one WAL record per program at most (seed {seed})"
        );
    }

    // One-shot sharded driver across shard counts.
    for shards in [1usize, 2, 3] {
        let cfg = ShardConfig {
            shards: Some(shards),
            ..ShardConfig::default()
        };
        let mut sharded = i0.clone();
        let out = plan
            .execute_sharded(&mut sharded, &cfg)
            .unwrap_or_else(|e| panic!("sharded driver errored (seed {seed}, {shards}): {e}"));
        assert_outcome(&out, &expected, seed, &format!("{shards}-shard"));
        assert_identical(&sharded, oracle, seed, &format!("{shards} shards"));
    }

    // Durable driver, then recovery of the logged run.
    let mut durable = i0.clone();
    let mut store = store_over(FaultStorage::new(), &es, &i0, seed);
    let create_cost = store.storage().total_cost();
    let mut dview = DatabaseView::new(&durable);
    let out = plan
        .execute_durable(&mut durable, &mut dview, &mut store)
        .unwrap_or_else(|e| panic!("durable driver errored (seed {seed}): {e}"));
    assert_outcome(&out, &expected, seed, "durable");
    assert_identical(&durable, oracle, seed, "durable");
    assert!(
        dview.matches_rebuild(&durable),
        "durable maintained view diverged (seed {seed})"
    );
    let golden_wal = store.wal_file();
    let golden_bytes = store
        .storage()
        .read(&golden_wal)
        .expect("fault storage reads")
        .unwrap_or_default();
    let (recovered, _) = recover(store.into_storage(), &es, seed, "golden");
    assert_identical(&recovered, oracle, seed, "recovery");

    // Crash arm: the same durable run over storage torn at a seeded byte
    // past the store's creation. The only failure allowed is the crash,
    // and it leaves the instance and view exactly as passed in; nothing
    // may be logged after it, so the torn WAL is a byte prefix of the
    // golden run's (same config, no checkpoints); and the wreckage must
    // recover to exactly the input or the oracle — the oracle whenever
    // the run succeeded.
    let budget = create_cost + rng.random_range(0..=golden_bytes.len() as u64);
    let mut crashed = i0.clone();
    let mut store = store_over(FaultStorage::with_budget(budget), &es, &i0, seed);
    let mut cview = DatabaseView::new(&crashed);
    let run = plan.execute_durable(&mut crashed, &mut cview, &mut store);
    assert_eq!(
        run.is_err(),
        store.storage().crashed(),
        "a torn write must surface as the driver's error, and only then \
         (seed {seed}, budget {budget})"
    );
    match &run {
        Err(e) => {
            assert_eq!(
                *e,
                SqlError::from(WalError::Crashed),
                "only the armed crash may fail the durable driver (seed {seed}, budget {budget})"
            );
            assert_identical(&crashed, &i0, seed, "crashed run undone");
            CRASHED_RUNS.fetch_add(1, Ordering::Relaxed);
        }
        Ok(out) => {
            assert_outcome(out, &expected, seed, "crash-armed durable");
            assert_identical(&crashed, oracle, seed, "crash-armed durable");
        }
    }
    assert!(
        cview.matches_rebuild(&crashed),
        "crash-arm view diverged from rebuild (seed {seed}, budget {budget})"
    );
    let torn = store
        .storage()
        .read(&golden_wal)
        .expect("fault storage reads")
        .unwrap_or_default();
    assert!(
        golden_bytes.starts_with(&torn),
        "the crashed WAL must be a prefix of the golden WAL — nothing logged after \
         the error (seed {seed}, budget {budget})"
    );
    let (recovered, _) = recover(store.into_storage(), &es, seed, "crash");
    assert!(
        recovered == i0 || recovered == *oracle,
        "crash recovery must land on the input or the oracle (seed {seed}, budget {budget})"
    );
    if run.is_ok() {
        assert_identical(&recovered, oracle, seed, "crash-armed recovery");
    }

    // Transient arm: the program's record fails once — (a) its append,
    // (b) its sync — on a store that stays usable. A failed program is
    // undone whole and leaves no record; the retry applies.
    for (label, storage) in [
        ("append", FaultStorage::new().fail_nth_append(1)),
        ("sync", FaultStorage::new().fail_nth_sync(1)),
    ] {
        let mut inst = i0.clone();
        let mut tview = DatabaseView::new(&inst);
        let mut store = store_over(storage, &es, &i0, seed);
        let run = plan.execute_durable(&mut inst, &mut tview, &mut store);
        if golden_bytes.is_empty() {
            // Nothing to log, so nothing to fail.
            let out = run.unwrap_or_else(|e| panic!("empty program failed (seed {seed}): {e}"));
            assert_outcome(&out, &expected, seed, "transient, nothing logged");
            continue;
        }
        let e = run.expect_err("the armed fault must fail the program");
        assert!(
            matches!(&e, SqlError::Wal(msg) if msg.contains(&format!("injected {label} failure"))),
            "only the injected {label} fault may fail the program (seed {seed}): {e}"
        );
        TRANSIENT_FAILURES.fetch_add(1, Ordering::Relaxed);
        assert_identical(&inst, &i0, seed, &format!("failed {label} undone"));
        assert_eq!(
            tview.database(),
            DatabaseView::new(&i0).database(),
            "failed {label}: the view is the input's, bit for bit (seed {seed})"
        );
        assert!(tview.matches_rebuild(&inst));
        assert_eq!(
            store.last_seq(),
            0,
            "failed {label} leaves no record (seed {seed})"
        );
        let (recovered, _) = recover(store.storage().clone(), &es, seed, label);
        assert_identical(
            &recovered,
            &i0,
            seed,
            &format!("{label}: recovery after failure"),
        );

        let out = plan
            .execute_durable(&mut inst, &mut tview, &mut store)
            .unwrap_or_else(|e| panic!("retry after failed {label} errored (seed {seed}): {e}"));
        assert_outcome(
            &out,
            &expected,
            seed,
            &format!("retry after failed {label}"),
        );
        assert_identical(&inst, oracle, seed, &format!("retry after failed {label}"));
        let (recovered, _) = recover(store.into_storage(), &es, seed, label);
        assert_identical(
            &recovered,
            oracle,
            seed,
            &format!("{label}: recovery after retry"),
        );
    }
}

/// Seeds from the committed replay corpus: `tests/seeds/*.seeds`, one
/// decimal or `0x`-hex seed per line, `#` comments ignored.
fn corpus_seeds() -> Vec<u64> {
    let raw = include_str!("seeds/plan_differential.seeds");
    raw.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| l.parse())
                .unwrap_or_else(|e| panic!("bad seed line {l:?} in replay corpus: {e}"))
        })
        .collect()
}

fn sweep(programs: u64) {
    // Metrics on for the whole sweep: a failing trial's banner carries a
    // meaningful summary, and the closing invariants below are
    // counter-backed.
    obs::set_enabled(obs::trace_enabled(), true);
    for seed in corpus_seeds() {
        run_program(seed);
    }
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_program(seed);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_PROGRAMS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(programs);
    for k in 0..n {
        run_program(SWEEP_BASE + k);
    }

    // The sweep is vacuous unless every planner pass actually fired:
    // selectors hash-consed and reused across stages, stores netted and
    // skipped, cursor updates improved into vectorized stages.
    let snap = obs::metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(counter("sql.plan.programs_compiled") > 0);
    assert!(counter("sql.plan.stages_compiled") > 0);
    assert!(counter("sql.plan.executions") > 0);
    assert!(
        counter("sql.plan.cse_shared") > 0,
        "the sweep must hash-cons shared selectors"
    );
    assert!(
        counter("sql.plan.selector_reuses") > 0,
        "the sweep must reuse a cached shared selector"
    );
    assert!(
        counter("sql.plan.netted") > 0,
        "the sweep must net dead stores"
    );
    assert!(
        counter("sql.plan.stages_skipped") > 0,
        "the sweep must skip netted stages"
    );
    assert!(
        counter("sql.plan.improved") > 0,
        "the sweep must improve cursor updates into par(E) stages"
    );
    assert!(
        counter("sql.plan.vectorized_rows") > 0,
        "the sweep must run vectorized batches"
    );
    assert!(
        CRASHED_RUNS.load(Ordering::Relaxed) > 0,
        "the crash arm must tear some durable runs"
    );
    assert!(
        TRANSIENT_FAILURES.load(Ordering::Relaxed) > 0,
        "the transient arm must fail some programs' records"
    );
    assert!(
        PAR_VALUES.load(Ordering::Relaxed) > 0 && ROW_VALUES.load(Ordering::Relaxed) > 0,
        "set updates must take both values paths"
    );
}

/// The tier-1 differential sweep: the replay corpus plus 500 random
/// programs, each executed through every compiled-plan driver and
/// compared bit-for-bit with the legacy per-statement path.
#[test]
fn compiled_programs_match_per_statement_execution() {
    sweep(DEFAULT_PROGRAMS);
}

/// Scheduled long run: 5000 programs. `cargo test --test plan_differential
/// -- --ignored` (CI runs this on a schedule, not per push).
#[test]
#[ignore = "long run; exercised by the scheduled CI job"]
fn compiled_programs_match_per_statement_execution_long_run() {
    sweep(5000);
}

/// CSE property: two stages guarded by the identical condition share one
/// selector slot, the executor evaluates it once and reuses the cached
/// rows for the second stage (the first stage writes a property the
/// guard never reads, so the cache survives), and the shared pipeline is
/// observationally equal to the one-at-a-time path.
#[test]
fn shared_selector_is_reused_not_reevaluated() {
    const FIRST: &str = "update Employee set Manager = \
         (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
         where Salary in table Fire";
    const SECOND: &str = "update Employee set Salary = \
         (select New from NewSal where Old = Salary) \
         where Salary in table Fire";
    obs::set_enabled(obs::trace_enabled(), true);
    let (es, catalog) = employee_catalog();
    let stmts = [parse(FIRST).unwrap(), parse(SECOND).unwrap()];
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert!(plan.stages()[1].shared_selector());
    assert_eq!(plan.stages()[0].selector(), plan.stages()[1].selector());

    let (i0, _) = section7_instance(&es);
    let before = obs::metrics_snapshot();
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
    let after = obs::metrics_snapshot();
    // `>=`, not `==`: the other tests in this binary run concurrently and
    // share the global counters, so only monotone claims are race-free.
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        delta("sql.plan.selector_reuses") >= 1,
        "the second stage must reuse the cached shared selector"
    );

    assert_eq!(
        Expected::Applied(i.clone()),
        legacy_apply(&stmts, &catalog, &i0, 0)
    );
    assert!(view.matches_rebuild(&i));
}

/// Netting property: a later unguarded store to the same column makes the
/// earlier store dead; the planner marks it netted, the executor skips
/// it, and the result is observationally equal to executing both.
#[test]
fn netted_store_is_skipped_without_observable_difference() {
    const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
    obs::set_enabled(obs::trace_enabled(), true);
    let (es, catalog) = employee_catalog();
    let stmts = [parse(UPDATE_A).unwrap(), parse(OVERWRITE).unwrap()];
    let plan = compile_program(&stmts, &catalog).unwrap();
    assert!(plan.stages()[0].netted(), "the first store is dead");
    assert_eq!(plan.stages()[0].netted_by(), Some(1));
    assert_eq!(plan.stages()[1].kind(), StageKind::SetUpdate);

    let (i0, _) = section7_instance(&es);
    let before = obs::metrics_snapshot();
    let mut i = i0.clone();
    let mut view = DatabaseView::new(&i);
    assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
    let after = obs::metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(
        delta("sql.plan.stages_skipped") >= 1,
        "the netted stage must be skipped at execution"
    );

    assert_eq!(
        Expected::Applied(i.clone()),
        legacy_apply(&stmts, &catalog, &i0, 0),
        "skipping the netted stage is unobservable"
    );
    assert!(view.matches_rebuild(&i));
}
