//! Seeded crash-injection differential suite for the durability layer.
//!
//! Each trial draws one random (schema, instance, method, receiver-order)
//! triple from a seed — the same generator family as
//! `tests/view_differential.rs` — and first runs it to completion through
//! the durable driver (the viewed driver
//! [`AlgebraicMethod::apply_sequence_logged`], each receiver's log
//! committed to the [`DurableStore`] as its own unit, so each receiver
//! that changes the instance is one WAL record) over an unbudgeted
//! [`FaultStorage`],
//! recording the byte-cost mark and the committed instance at every WAL
//! record boundary. The no-crash result is checked against a reference
//! independent of that driver: a fresh relational encoding per receiver,
//! edits applied directly to the instance. It then replays the identical
//! workload against budgeted storages that tear the write stream at every
//! record boundary and at seeded mid-record points, powers the wreckage
//! back on under one of three reopen modes (keep all bytes, drop the
//! unsynced tail, flip a random WAL bit), and asserts that
//! [`DurableStore::open`] restores **exactly one of the committed
//! states** — bit-identical instance, equal hashes, consistent adjacency
//! indexes, and a maintained view matching a fresh rebuild — then resumes
//! the remaining receivers on the recovered store and checks the run
//! converges to the no-crash final state.
//!
//! Every assertion message carries the failing seed; to replay one, add it
//! to `tests/seeds/wal_recovery.seeds` (replayed before the random sweep)
//! or run `RECEIVERS_DIFF_SEED=<seed> cargo test --test wal_recovery`.
//!
//! The sweep runs with `receivers-obs` metrics on: a failing trial prints
//! a replay banner with the seed and the final metrics summary, and the
//! sweep ends with the counter-backed conservation invariants — recovery
//! can only replay records that were appended, and only recoveries may
//! truncate torn tails.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::algebraic::{AlgebraicMethod, Statement};
use receivers::objectbase::gen::{
    random_instance, random_receivers, random_schema, InstanceParams, SchemaParams,
};
use receivers::objectbase::{
    undo_ops, ClassId, Edge, InPlaceOutcome, Instance, Oid, PropId, Receiver, Schema, Signature,
    UpdateMethod,
};
use receivers::obs;
use receivers::relalg::gen::{random_expr, ExprParams};
use receivers::relalg::typecheck::{infer_schema, update_params, ParamSchemas};
use receivers::relalg::view::DatabaseView;
use receivers::relalg::Expr;
use receivers::wal::{DurableStore, FaultStorage, WalConfig, WalError, WalStorage};

/// Default number of random triples per run; override with
/// `RECEIVERS_DIFF_TRIPLES`. The `#[ignore]`d long-run variant uses 5000.
const DEFAULT_TRIPLES: u64 = 500;

/// Base offset separating this suite's seed space from both its corpus
/// seeds and the view-differential sweep (`0x51EE_D000`).
const SWEEP_BASE: u64 = 0xC4A5_4D00;

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
}

impl Drop for ReplayBanner {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "\n=== wal_recovery trial failed: replay with ===\n\
                 ===   RECEIVERS_DIFF_SEED={} cargo test --test wal_recovery ===",
                self.seed
            );
            eprint!(
                "{}",
                obs::export::render_summary(&obs::metrics_snapshot(), &[])
            );
        }
    }
}

/// One random update method over `schema` — the same construction as the
/// view-differential suite, so the two sweeps explore the same method
/// space and a seed that diverges there can be replayed here.
fn random_method(schema: &Arc<Schema>, rng: &mut StdRng, seed: u64) -> AlgebraicMethod {
    let candidates: Vec<ClassId> = schema
        .classes()
        .filter(|&c| schema.properties_of(c).next().is_some())
        .collect();
    assert!(
        !candidates.is_empty(),
        "schema with ≥1 property has a class with outgoing properties (seed {seed})"
    );
    let recv = candidates[rng.random_range(0..candidates.len())];
    let all: Vec<ClassId> = schema.classes().collect();
    let mut sig_classes = vec![recv];
    for _ in 0..rng.random_range(0..=2u32) {
        sig_classes.push(all[rng.random_range(0..all.len())]);
    }
    let sig = Signature::new(sig_classes).expect("non-empty signature");
    let params = update_params(&sig);

    let props: Vec<PropId> = schema.properties_of(recv).collect();
    let mut statements = Vec::new();
    for (k, &p) in props.iter().enumerate() {
        let keep = rng.random_bool(0.6);
        let last_chance = statements.is_empty() && k + 1 == props.len();
        if !keep && !last_chance {
            continue;
        }
        let dst = schema.property(p).dst;
        let expr = statement_expr(schema, &params, &sig, p, dst, rng);
        statements.push(Statement { property: p, expr });
    }
    AlgebraicMethod::new(format!("wal_{seed:x}"), Arc::clone(schema), sig, statements)
        .unwrap_or_else(|e| panic!("generated method must validate (seed {seed}): {e}"))
}

/// A unary expression with domain `dst`, assignable to property `p`.
fn statement_expr(
    schema: &Schema,
    params: &ParamSchemas,
    sig: &Signature,
    p: PropId,
    dst: ClassId,
    rng: &mut StdRng,
) -> Expr {
    for _ in 0..30 {
        let e = random_expr(
            schema,
            params,
            ExprParams {
                depth: rng.random_range(1..=3),
                allow_diff: rng.random_bool(0.5),
            },
            rng.random_range(0..u64::MAX),
        );
        if let Ok(s) = infer_schema(&e, schema, params) {
            if s.arity() == 1 && s.columns()[0].1 == dst {
                return e;
            }
        }
    }
    // Fallbacks, all unary over `dst` by construction.
    let prop = schema.property(p);
    let successors = Expr::self_rel()
        .join_eq(
            Expr::prop(p),
            "self",
            schema.class_name(prop.src).to_owned(),
        )
        .project([schema.prop_name(p).to_owned()]);
    let mut pool = vec![successors, Expr::class(dst)];
    for (i, &c) in sig.argument_classes().iter().enumerate() {
        if c == dst {
            pool.push(Expr::arg(i + 1));
        }
    }
    let a = pool.swap_remove(rng.random_range(0..pool.len()));
    if rng.random_bool(0.3) {
        let b = pool.swap_remove(rng.random_range(0..pool.len()));
        if rng.random_bool(0.5) {
            a.union(b)
        } else {
            a.diff(b)
        }
    } else {
        a
    }
}

/// Run `units` against `view`, each unit one atomic
/// [`AlgebraicMethod::apply_sequence_logged`] call whose log is committed
/// to `store` as one WAL record: an applied unit is committed, a unit
/// that is not applied writes nothing, and a unit whose commit fails is
/// undone in memory — `Err` is that storage error. Stops at the first
/// unit that does not apply.
fn durable_units<'a>(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    units: impl IntoIterator<Item = &'a [Receiver]>,
    store: &mut DurableStore<FaultStorage>,
) -> Result<InPlaceOutcome, WalError> {
    let mut log = Vec::new();
    for unit in units {
        log.clear();
        let out = method.apply_sequence_logged(instance, view, unit, &mut log);
        if !out.is_applied() {
            return Ok(out);
        }
        if let Err(e) = store.commit(&log, view.database()) {
            undo_ops(instance, view, &log);
            return Err(e);
        }
    }
    Ok(InPlaceOutcome::Applied)
}

/// The durable driver under test: `order` through [`durable_units`], each
/// receiver its own unit.
fn durable_sequence(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    order: &[Receiver],
    store: &mut DurableStore<FaultStorage>,
) -> Result<InPlaceOutcome, WalError> {
    durable_units(method, instance, view, order.chunks(1), store)
}

/// One WAL record boundary of the golden run: cumulative storage cost at
/// the boundary, the committed sequence number reached there, the highest
/// sequence number known *synced* there, and the index of the next
/// receiver to apply when resuming from this state.
struct Mark {
    cost: u64,
    seq: u64,
    durable_seq: u64,
    resume_at: usize,
}

/// How the wreckage is powered back on after a crash.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reopen {
    /// Every written byte survived (the disk absorbed the cache).
    KeepAll,
    /// The page cache was lost: files roll back to their synced length.
    DropUnsynced,
    /// Media corruption on top of the crash: one random bit of the live
    /// WAL file is flipped before recovery.
    BitFlip,
}

impl Reopen {
    fn name(self) -> &'static str {
        match self {
            Reopen::KeepAll => "keep-all",
            Reopen::DropUnsynced => "drop-unsynced",
            Reopen::BitFlip => "bit-flip",
        }
    }
}

/// Crash the workload at `budget` bytes of storage cost, reopen under
/// `mode`, recover, and check the recovered state against the golden
/// record-boundary states — then resume the run and check convergence.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    seed: u64,
    schema: &Arc<Schema>,
    instance: &Instance,
    method: &AlgebraicMethod,
    order: &[Receiver],
    cfg: WalConfig,
    marks: &[Mark],
    states: &[(u64, Instance)],
    budget: u64,
    mode: Reopen,
    rng: &mut StdRng,
) {
    let mn = mode.name();
    let mut working = instance.clone();
    let mut store = DurableStore::create(
        FaultStorage::with_budget(budget),
        Arc::clone(schema),
        cfg,
        &working,
    )
    .unwrap_or_else(|e| {
        panic!("budgets start past the create cost (seed {seed}, budget {budget}): {e}")
    });
    let mut view = DatabaseView::new(&working);
    if let Err(e) = durable_sequence(method, &mut working, &mut view, order, &mut store) {
        assert!(
            matches!(e, WalError::Crashed),
            "only the armed crash may fail the run (seed {seed}, budget {budget}): {e}"
        );
    }

    // Power back on.
    let mut storage = match mode {
        Reopen::DropUnsynced => store.into_storage().reopen_dropping_unsynced(),
        _ => store.into_storage().reopen(),
    };
    if mode == Reopen::BitFlip {
        let wal = storage
            .list()
            .expect("reopened storage lists")
            .into_iter()
            .find(|n| n.starts_with("wal-"));
        if let Some(wal) = wal {
            let len = storage.len(&wal);
            if len > 0 {
                let byte = rng.random_range(0..len);
                storage.flip_bit(&wal, byte, rng.random_range(0..8u32) as u8);
            }
        }
    }

    // Recovery is total: whatever the crash (and the flip) left behind,
    // open must succeed and land on a committed state.
    let (mut reopened, ri, mut rview, report) =
        DurableStore::open(storage, Arc::clone(schema), cfg).unwrap_or_else(|e| {
            panic!("recovery must succeed after a crash (seed {seed}, budget {budget}, {mn}): {e}")
        });
    let (_, expect) = states
        .iter()
        .find(|(s, _)| *s == report.last_seq)
        .unwrap_or_else(|| {
            panic!(
                "recovered to seq {} which was never committed \
                 (seed {seed}, budget {budget}, {mn})",
                report.last_seq
            )
        });
    assert_eq!(
        ri, *expect,
        "recovered instance must be bit-identical to the committed state at seq {} \
         (seed {seed}, budget {budget}, {mn})",
        report.last_seq
    );
    assert_eq!(
        hash_of(&ri),
        hash_of(expect),
        "recovered instance hash (seed {seed}, budget {budget}, {mn})"
    );
    ri.check_index_consistent();
    assert!(
        rview.matches_rebuild(&ri),
        "recovered view must match a fresh rebuild (seed {seed}, budget {budget}, {mn})"
    );
    assert_eq!(
        reopened.last_seq(),
        report.last_seq,
        "store and report disagree on the recovered sequence (seed {seed}, budget {budget}, {mn})"
    );

    // How much may survive: never more than the records whose bytes fit
    // under the budget; for keep-all, never less than the records fully
    // written before the crash; for drop-unsynced, never less than the
    // synced prefix. A bit flip may truncate arbitrarily far back, so it
    // only keeps the upper bound.
    let idx = marks
        .iter()
        .rposition(|m| m.cost <= budget)
        .expect("budgets start at the create-cost mark");
    let upper = marks
        .iter()
        .find(|m| m.cost >= budget)
        .map_or(marks[marks.len() - 1].seq, |m| m.seq);
    assert!(
        report.last_seq <= upper,
        "recovery resurrected seq {} past the {upper} that could have hit storage \
         (seed {seed}, budget {budget}, {mn})",
        report.last_seq
    );
    match mode {
        Reopen::KeepAll => assert!(
            report.last_seq >= marks[idx].seq,
            "keep-all recovery lost fully-written record {} (got {}) \
             (seed {seed}, budget {budget})",
            marks[idx].seq,
            report.last_seq
        ),
        Reopen::DropUnsynced => assert!(
            report.last_seq >= marks[idx].durable_seq,
            "drop-unsynced recovery lost synced record {} (got {}) \
             (seed {seed}, budget {budget})",
            marks[idx].durable_seq,
            report.last_seq
        ),
        Reopen::BitFlip => {}
    }

    // Restartability: resume the remaining receivers on the recovered
    // store and the run must converge to the no-crash final state.
    let resume_at = marks
        .iter()
        .find(|m| m.seq == report.last_seq)
        .map_or(0, |m| m.resume_at);
    let mut resumed = ri;
    let out = durable_sequence(
        method,
        &mut resumed,
        &mut rview,
        &order[resume_at..],
        &mut reopened,
    )
    .unwrap_or_else(|e| {
        panic!("resumed run must not fail (seed {seed}, budget {budget}, {mn}): {e}")
    });
    assert_eq!(
        out,
        InPlaceOutcome::Applied,
        "resumed run outcome (seed {seed}, budget {budget}, {mn})"
    );
    let (final_seq, final_state) = &states[states.len() - 1];
    assert_eq!(
        resumed, *final_state,
        "crash + recover + resume must converge to the no-crash final state \
         (seed {seed}, budget {budget}, {mn})"
    );
    assert_eq!(
        reopened.last_seq(),
        *final_seq,
        "resumed run must re-commit exactly the lost records (seed {seed}, budget {budget}, {mn})"
    );
    assert!(
        rview.matches_rebuild(&resumed),
        "view maintained across recovery and resume matches rebuild \
         (seed {seed}, budget {budget}, {mn})"
    );
}

/// One full crash-injection trial for `seed`.
fn run_triple(seed: u64) {
    let _banner = ReplayBanner { seed };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let schema = random_schema(
        SchemaParams {
            classes: rng.random_range(2..=5),
            properties: rng.random_range(1..=6),
        },
        seed,
    );
    let instance = random_instance(
        &schema,
        InstanceParams {
            objects_per_class: rng.random_range(2..=8),
            edge_density: 0.1 + rng.random_range(0..=4u32) as f64 * 0.1,
        },
        seed.wrapping_mul(3),
    );
    let method = random_method(&schema, &mut rng, seed);
    let order: Vec<Receiver> = random_receivers(
        &instance,
        method.signature(),
        rng.random_range(1..=6),
        rng.random_bool(0.5),
        seed.wrapping_mul(7),
    )
    .iter()
    .cloned()
    .collect();
    assert!(
        !order.is_empty(),
        "receiver generation produced no receivers (seed {seed})"
    );
    // Exercise every fsync-batching and auto-checkpoint policy across the
    // sweep: per-seed, not per-crash-point, so a replayed seed pins them.
    let cfg = WalConfig {
        group_commit: [1, 2, 4][(seed % 3) as usize],
        snapshot_every: [0, 2, 3][((seed / 3) % 3) as usize],
    };

    // Independent reference: the pre-view semantics — a fresh relational
    // encoding per receiver, edits applied directly to the instance — so
    // the check does not rest on the viewed driver the durable run uses.
    let mut reference = instance.clone();
    for t in &order {
        t.validate(method.signature(), &reference)
            .unwrap_or_else(|e| panic!("algebraic methods terminate (seed {seed}): {e}"));
        let results = method
            .evaluate(&reference, t)
            .unwrap_or_else(|e| panic!("reference evaluation (seed {seed}): {e}"));
        let recv = t.receiving_object();
        for (prop, values) in results {
            let old: Vec<Oid> = reference.successors(recv, prop).collect();
            for v in old {
                reference.remove_edge(&Edge::new(recv, prop, v));
            }
            for v in values {
                reference.add_edge(Edge::new(recv, prop, v)).expect("typed");
            }
        }
    }

    // Golden durable run over unbudgeted fault storage, one driver call
    // per receiver so every WAL record boundary gets a byte-cost mark and
    // a committed-state snapshot. The store carries its group-commit and
    // checkpoint counters across calls, so the byte stream is identical
    // to one whole-order call — which is what the crash runs replay.
    let mut golden = instance.clone();
    let mut view = DatabaseView::new(&golden);
    let mut store = DurableStore::create(FaultStorage::new(), Arc::clone(&schema), cfg, &golden)
        .expect("unbudgeted create succeeds");
    let mut marks = vec![Mark {
        cost: store.storage().total_cost(),
        seq: 0,
        durable_seq: 0,
        resume_at: 0,
    }];
    let mut states: Vec<(u64, Instance)> = vec![(0, golden.clone())];
    for (ti, t) in order.iter().enumerate() {
        let out = durable_sequence(
            &method,
            &mut golden,
            &mut view,
            std::slice::from_ref(t),
            &mut store,
        )
        .unwrap_or_else(|e| {
            panic!("unbudgeted durable apply must not fail (seed {seed}, receiver {ti}): {e}")
        });
        assert_eq!(out, InPlaceOutcome::Applied, "receiver {ti} (seed {seed})");
        let seq = store.last_seq();
        if seq > states[states.len() - 1].0 {
            states.push((seq, golden.clone()));
        }
        let wal = store.wal_file();
        let synced = store.storage().synced_len(&wal) == store.storage().len(&wal);
        let durable_seq = if synced {
            seq
        } else {
            marks[marks.len() - 1].durable_seq
        };
        marks.push(Mark {
            cost: store.storage().total_cost(),
            seq,
            durable_seq,
            resume_at: ti + 1,
        });
    }
    assert_eq!(
        golden, reference,
        "durable driver diverged from the rebuild-per-receiver reference (seed {seed})"
    );
    assert_eq!(hash_of(&golden), hash_of(&reference), "hash (seed {seed})");
    assert!(
        view.matches_rebuild(&golden),
        "golden-run view matches rebuild (seed {seed})"
    );
    golden.check_index_consistent();

    // A clean reopen of the completed run restores the final state.
    let storage = store.into_storage().reopen();
    let (_, ri, rview, report) = DurableStore::open(storage, Arc::clone(&schema), cfg)
        .unwrap_or_else(|e| panic!("clean recovery must succeed (seed {seed}): {e}"));
    assert_eq!(ri, golden, "clean recovery restores the run (seed {seed})");
    assert!(
        report.torn.is_none(),
        "clean WAL has no torn tail (seed {seed})"
    );
    assert!(
        rview.matches_rebuild(&ri),
        "clean-recovery view (seed {seed})"
    );
    // Recovery rebuilds its view once after the replay loop; that must be
    // bit-identical to the view the golden run maintained record by record.
    assert_eq!(
        rview.database(),
        view.database(),
        "recovered (rebuilt-once) view must equal the maintained view (seed {seed})"
    );

    // Crash points: every record boundary, the first byte past each
    // boundary (a 1-byte torn write), and one seeded point inside each
    // record's byte range.
    let mut budgets = std::collections::BTreeSet::new();
    for w in marks.windows(2) {
        let (lo, hi) = (w[0].cost, w[1].cost);
        if hi <= lo {
            continue; // receiver committed nothing: no bytes, no boundary
        }
        budgets.insert(hi);
        budgets.insert(lo + 1);
        if hi > lo + 1 {
            budgets.insert(lo + 1 + rng.random_range(0..(hi - lo - 1)));
        }
    }
    for &budget in &budgets {
        let mode = match rng.random_range(0..3u32) {
            0 => Reopen::KeepAll,
            1 => Reopen::DropUnsynced,
            _ => Reopen::BitFlip,
        };
        crash_and_recover(
            seed, &schema, &instance, &method, &order, cfg, &marks, &states, budget, mode, &mut rng,
        );
    }
}

/// Seeds from the committed replay corpus: `tests/seeds/*.seeds`, one
/// decimal or `0x`-hex seed per line, `#` comments ignored.
fn corpus_seeds() -> Vec<u64> {
    let raw = include_str!("seeds/wal_recovery.seeds");
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

fn sweep(triples: u64) {
    obs::set_enabled(obs::trace_enabled(), true);
    // Regression corpus first: seeds that once found (or nearly found)
    // a durability hole replay before any random exploration.
    for seed in corpus_seeds() {
        run_triple(seed);
    }
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_triple(seed);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_TRIPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(triples);
    for k in 0..n {
        run_triple(SWEEP_BASE + k);
    }

    // Counter-backed conservation: every replayed record was appended by
    // some store exactly once and each wreckage is opened at most once,
    // so across the whole sweep replay can never outrun append — and only
    // recoveries truncate torn tails.
    let snap = obs::metrics_snapshot();
    let appended = snap.counter("wal.records_appended").unwrap_or(0);
    let replayed = snap.counter("wal.records_replayed").unwrap_or(0);
    let recoveries = snap.counter("wal.recoveries").unwrap_or(0);
    let torn = snap.counter("wal.torn_tails").unwrap_or(0);
    assert!(appended > 0, "the sweep must append WAL records");
    assert!(recoveries > 0, "the sweep must run recoveries");
    assert!(
        replayed <= appended,
        "replay outran append: {replayed} replayed > {appended} appended \
         over {recoveries} recoveries"
    );
    assert!(
        torn <= recoveries,
        "torn tails without recoveries: {torn} > {recoveries}"
    );
}

/// The tier-1 crash sweep: the replay corpus plus 500 random triples,
/// each crashed at every record boundary and at seeded mid-record points,
/// recovered under seeded reopen modes, and resumed to convergence.
#[test]
fn recovery_restores_a_committed_state_at_every_crash_point() {
    sweep(DEFAULT_TRIPLES);
}

/// Scheduled long run: 5000 triples. `cargo test --test wal_recovery --
/// --ignored` (CI runs this on a schedule, not per push).
#[test]
#[ignore = "long run; exercised by the scheduled CI job"]
fn recovery_restores_a_committed_state_long_run() {
    sweep(5000);
}

/// The durable unit contract: a unit whose receiver fails validation
/// mid-sequence is undone in memory and writes nothing, so recovery
/// equals the pre-unit state — and the store takes the next unit as if
/// the failed one had never run.
#[test]
fn mid_sequence_failure_writes_nothing_and_recovery_agrees() {
    use receivers::core::methods::add_bar;
    use receivers::objectbase::examples::beer_schema;

    let s = beer_schema();
    let i = random_instance(
        &s.schema,
        InstanceParams {
            objects_per_class: 40,
            edge_density: 0.15,
        },
        0xBAD5EED,
    );
    let m = add_bar(&s);
    let ghost = Oid::new(s.bar, 40_000);
    assert!(
        !i.class_members(s.bar).any(|o| o == ghost),
        "ghost bar must be absent"
    );
    let order = [
        Receiver::new(vec![Oid::new(s.drinker, 3), Oid::new(s.bar, 1)]),
        Receiver::new(vec![Oid::new(s.drinker, 11), Oid::new(s.bar, 4)]),
        Receiver::new(vec![Oid::new(s.drinker, 20), ghost]),
        Receiver::new(vec![Oid::new(s.drinker, 30), Oid::new(s.bar, 9)]),
    ];
    // Non-vacuous: the prefix before the ghost really changes the instance.
    let mut prefix = i.clone();
    let mut prefix_view = DatabaseView::new(&prefix);
    assert_eq!(
        m.apply_sequence_viewed(&mut prefix, &mut prefix_view, &order[..2]),
        InPlaceOutcome::Applied
    );
    assert_ne!(prefix, i, "rolled-back prefix edits were not a no-op");

    let cfg = WalConfig {
        group_commit: 2,
        snapshot_every: 0,
    };
    let mut working = i.clone();
    let mut store = DurableStore::create(FaultStorage::new(), Arc::clone(&s.schema), cfg, &working)
        .expect("create");
    let mut view = DatabaseView::new(&working);
    // The whole order is one unit.
    let outcome = durable_units(&m, &mut working, &mut view, [&order[..]], &mut store)
        .expect("no crash armed");
    assert!(
        matches!(outcome, InPlaceOutcome::Undefined(_)),
        "ghost receiver must make the sequence undefined, got {outcome:?}"
    );
    assert_eq!(working, i, "instance restored to pre-unit state");
    assert_eq!(hash_of(&working), hash_of(&i), "instance hash unchanged");
    working.check_index_consistent();
    assert!(
        view.matches_rebuild(&working),
        "restored view matches rebuild"
    );
    assert_eq!(store.last_seq(), 0, "a failed unit writes nothing");
    assert_eq!(store.storage().len(&store.wal_file()), 0);

    // Recovery of the untouched log is the pre-unit state.
    let (_, ri, rview, report) =
        DurableStore::open(store.storage().clone().reopen(), Arc::clone(&s.schema), cfg)
            .expect("recovery");
    assert!(report.torn.is_none(), "nothing torn: {:?}", report.torn);
    assert_eq!(report.last_seq, 0);
    assert_eq!(ri, i, "recovery equals the pre-unit state");
    assert_eq!(hash_of(&ri), hash_of(&i), "recovered hash");
    ri.check_index_consistent();
    assert!(rview.matches_rebuild(&ri), "recovered view matches rebuild");

    // The applicable prefix as the next unit logs as sequence number 1.
    let out = durable_units(&m, &mut working, &mut view, [&order[..2]], &mut store)
        .expect("no crash armed");
    assert_eq!(out, InPlaceOutcome::Applied);
    assert_eq!(working, prefix);
    store.sync().expect("sync");
    let (_, ri, _, report) =
        DurableStore::open(store.into_storage().reopen(), Arc::clone(&s.schema), cfg)
            .expect("recovery");
    assert_eq!((report.last_seq, report.records_replayed), (1, 1));
    assert_eq!(ri, prefix);
}
