//! Seeded differential suite for coloring-certified sharded execution.
//!
//! Each trial draws one random (schema, instance, method, receiver-order)
//! triple from a seed — the same generators as `view_differential`, so
//! the methods range over certified (read/write-disjoint) and uncertified
//! shapes — then checks the one sharded engine, [`ShardedExecutor`],
//! against the sequential reference `apply_in_place_sequence`:
//!
//! * an uncertified method: the constructor refuses it, naming exactly
//!   the certificate's undischarged conflicts — and a certified one is
//!   never refused;
//! * a fresh executor at 1/2/3/7 shards, writing through a caller-held
//!   maintained [`DatabaseView`], on the short order (the inline path)
//!   and on the order cycled to 96 receivers (real worker loops and the
//!   deterministic merge): same outcome, same instance, same instance
//!   hash, consistent adjacency index, view equal to a fresh rebuild;
//! * a persistent executor across two waves, against the sequential
//!   driver applied twice;
//! * a ghost receiver appended: a fresh and the persistent executor must
//!   report the *same* `Undefined` outcome as the sequential driver
//!   (first-failure semantics) and merge nothing — instance and view
//!   bit-identical to their pre-wave snapshots — and the persistent one
//!   keeps working afterwards.
//!
//! The sweep counts what it exercised (executors built, methods refused,
//! receivers whose arguments lie off the home shard) and requires each
//! to be non-zero.
//!
//! Every assertion message carries the failing seed; to replay one, add
//! it to `tests/seeds/shard_differential.seeds` (replayed before the
//! random sweep) or run
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test shard_differential`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::algebraic::{AlgebraicMethod, Statement};
use receivers::core::shard::{certify, shard_of, ShardConfig, ShardedExecutor, WaveStats};
use receivers::core::CoreError;
use receivers::objectbase::gen::{
    random_instance, random_receivers, random_schema, InstanceParams, SchemaParams,
};
use receivers::objectbase::{
    ClassId, InPlaceOutcome, Instance, Oid, PropId, Receiver, Signature, UpdateMethod,
};
use receivers::obs;
use receivers::relalg::gen::{random_expr, ExprParams};
use receivers::relalg::typecheck::{infer_schema, update_params, ParamSchemas};
use receivers::relalg::view::DatabaseView;
use receivers::relalg::Expr;

/// Default number of random triples per run; override with
/// `RECEIVERS_DIFF_TRIPLES`. The `#[ignore]`d long-run variant uses 5000.
const DEFAULT_TRIPLES: u64 = 500;

/// Base offset separating the sweep's seed space from the corpus seeds
/// (and from `view_differential`'s sweep, which starts at 0x51EE_D000).
const SWEEP_BASE: u64 = 0x5AA2_D000;

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
                "\n=== shard_differential trial failed: replay with ===\n\
                 ===   RECEIVERS_DIFF_SEED={} cargo test --test shard_differential ===",
                self.seed
            );
            eprint!(
                "{}",
                obs::export::render_summary(&obs::metrics_snapshot(), &[])
            );
        }
    }
}

/// One random update method over `schema` — same construction as
/// `view_differential`, so certified and uncertified methods both occur.
fn random_method(
    schema: &std::sync::Arc<receivers::objectbase::Schema>,
    rng: &mut StdRng,
    seed: u64,
) -> AlgebraicMethod {
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
    AlgebraicMethod::new(
        format!("shard_diff_{seed:x}"),
        std::sync::Arc::clone(schema),
        sig,
        statements,
    )
    .unwrap_or_else(|e| panic!("generated method must validate (seed {seed}): {e}"))
}

/// A unary expression with domain `dst`, assignable to property `p`.
fn statement_expr(
    schema: &receivers::objectbase::Schema,
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

/// Assert that `sharded` reproduced `reference` (instance + hash + index)
/// after producing `out` where the sequential driver produced `out_ref`.
fn assert_identical(
    out: &InPlaceOutcome,
    out_ref: &InPlaceOutcome,
    sharded: &Instance,
    reference: &Instance,
    seed: u64,
    label: &str,
) {
    assert_eq!(out, out_ref, "outcome diverged (seed {seed}, {label})");
    assert_eq!(
        sharded, reference,
        "instance diverged (seed {seed}, {label})"
    );
    assert_eq!(
        hash_of(sharded),
        hash_of(reference),
        "instance hash diverged (seed {seed}, {label})"
    );
    sharded.check_index_consistent();
}

/// What the trials exercised, summed over the sweep.
#[derive(Default)]
struct Tally {
    /// Executors built (the method certified).
    built: u64,
    /// Methods the constructor refused.
    refused: u64,
    /// Receivers of applied waves with an argument off the home shard.
    off_home: u64,
}

/// `shards` shards, and at least two workers so orders past the inline
/// threshold run on real worker loops.
fn cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        shards: Some(shards),
        pool: receivers::rt::ShardPoolConfig::default()
            .with_workers(receivers::rt::num_threads().max(2)),
    }
}

/// One full differential trial for `seed`.
fn run_triple(seed: u64) -> Tally {
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

    // Sequential references: the short order, and the order cycled
    // past the inline threshold so real worker loops run.
    let mut reference = instance.clone();
    let out_ref = method.apply_in_place_sequence(&mut reference, &order);
    let long_order: Vec<Receiver> = order.iter().cycle().take(96).cloned().collect();
    let mut long_ref = instance.clone();
    let long_out_ref = method.apply_in_place_sequence(&mut long_ref, &long_order);

    // The constructor refuses exactly the methods the certificate does
    // not clear, naming their undischarged conflicts.
    let mut tally = Tally::default();
    let cert = certify(&method);
    match ShardedExecutor::new(&method, &cfg(1)) {
        Ok(_) => assert!(
            cert.shard_safe(),
            "executor built over an unsafe certificate (seed {seed})"
        ),
        Err(e) => {
            assert!(
                !cert.shard_safe(),
                "shard-safe method refused (seed {seed}): {e}"
            );
            let names = cert
                .undischarged()
                .map(|p| schema.prop_name(p).to_owned())
                .collect();
            assert_eq!(
                e,
                CoreError::NotShardSafe(names),
                "refusal must name the undischarged conflicts (seed {seed})"
            );
            tally.refused += 1;
            return tally;
        }
    }

    // A fresh executor per shard count and order, writing through a
    // caller-held view.
    for shards in [1usize, 2, 3, 7] {
        for (label, ord, ref_out, ref_inst) in [
            ("short", &order, &out_ref, &reference),
            ("long", &long_order, &long_out_ref, &long_ref),
        ] {
            let label = format!("{label} order, {shards} shards");
            let mut exec = ShardedExecutor::new(&method, &cfg(shards)).unwrap();
            tally.built += 1;
            let mut sharded = instance.clone();
            let mut view = DatabaseView::new(&sharded);
            let out = exec.apply(&mut sharded, &mut view, ord, None);
            assert_identical(&out, ref_out, &sharded, ref_inst, seed, &label);
            assert!(
                view.matches_rebuild(&sharded),
                "maintained view diverged from rebuild (seed {seed}, {label})"
            );
            if out.is_applied() {
                tally.off_home += ord
                    .iter()
                    .filter(|t| {
                        let home = shard_of(t.receiving_object(), shards);
                        t.objects().iter().any(|&o| shard_of(o, shards) != home)
                    })
                    .count() as u64;
            }
        }
    }

    // Persistent executor across two waves vs the sequential driver
    // applied twice.
    let mut ref2 = instance.clone();
    let mut out_ref2 = method.apply_in_place_sequence(&mut ref2, &order);
    if out_ref2.is_applied() {
        out_ref2 = method.apply_in_place_sequence(&mut ref2, &order);
    }
    let mut ex_inst = instance.clone();
    let mut ex_view = DatabaseView::new(&ex_inst);
    let mut exec = ShardedExecutor::new(&method, &cfg(3)).unwrap();
    tally.built += 1;
    let mut out_ex = exec.apply(&mut ex_inst, &mut ex_view, &order, None);
    if out_ex.is_applied() {
        out_ex = exec.apply(&mut ex_inst, &mut ex_view, &order, None);
    }
    assert_identical(&out_ex, &out_ref2, &ex_inst, &ref2, seed, "executor waves");
    assert!(
        ex_view.matches_rebuild(&ex_inst),
        "maintained view diverged across executor waves (seed {seed})"
    );

    // Ghost receiver appended: first-failure semantics — the sequential
    // driver, a fresh executor and the persistent one must all report the
    // same `Undefined` outcome, and the executors merge nothing.
    {
        let ghost_class = method.signature().receiving_class();
        let ghost = Oid::new(ghost_class, 1_000_000);
        let mut ghost_recv = order[0].objects().to_vec();
        ghost_recv[0] = ghost;
        let mut poisoned = order.clone();
        poisoned.push(Receiver::new(ghost_recv));

        let mut seq = reference.clone();
        let out_seq = method.apply_in_place_sequence(&mut seq, &poisoned);
        assert!(
            matches!(out_seq, InPlaceOutcome::Undefined(_)),
            "ghost receiver must make the sequence undefined (seed {seed})"
        );
        assert_eq!(seq, reference, "sequential rollback (seed {seed})");

        let mut sharded = reference.clone();
        let mut view = DatabaseView::new(&sharded);
        let view_snapshot = view.clone();
        let mut fresh = ShardedExecutor::new(&method, &cfg(2)).unwrap();
        tally.built += 1;
        let out = fresh.apply(&mut sharded, &mut view, &poisoned, None);
        assert_identical(&out, &out_seq, &sharded, &reference, seed, "ghost fresh");
        assert!(
            view == view_snapshot,
            "an undefined wave must leave the view untouched (seed {seed}, ghost fresh)"
        );

        let ex_snapshot = ex_inst.clone();
        let ex_view_snapshot = ex_view.clone();
        let out = exec.apply(&mut ex_inst, &mut ex_view, &poisoned, None);
        let mut seq2 = ex_snapshot.clone();
        let out_seq2 = method.apply_in_place_sequence(&mut seq2, &poisoned);
        assert_identical(
            &out,
            &out_seq2,
            &ex_inst,
            &ex_snapshot,
            seed,
            "ghost executor",
        );
        assert!(
            ex_view == ex_view_snapshot,
            "an undefined wave must leave the view untouched (seed {seed}, ghost executor)"
        );
        // And the executor recovers: the next clean wave still matches.
        let out = exec.apply(&mut ex_inst, &mut ex_view, &order, None);
        let out_seq3 = method.apply_in_place_sequence(&mut seq2, &order);
        assert_identical(&out, &out_seq3, &ex_inst, &seq2, seed, "post-ghost wave");
        assert!(
            ex_view.matches_rebuild(&ex_inst),
            "maintained view diverged after the ghost wave (seed {seed})"
        );
    }
    tally
}

/// Seeds from the committed replay corpus: `tests/seeds/*.seeds`, one
/// decimal or `0x`-hex seed per line, `#` comments ignored.
fn corpus_seeds() -> Vec<u64> {
    let raw = include_str!("seeds/shard_differential.seeds");
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
    // Metrics on for the whole sweep, so a failing trial's banner carries
    // a meaningful summary.
    obs::set_enabled(obs::trace_enabled(), true);
    let mut total = Tally::default();
    let mut run = |seed| {
        let t = run_triple(seed);
        total.built += t.built;
        total.refused += t.refused;
        total.off_home += t.off_home;
    };
    for seed in corpus_seeds() {
        run(seed);
    }
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run(seed);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_TRIPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(triples);
    for k in 0..n {
        run(SWEEP_BASE + k);
    }

    // The sweep must have exercised both constructor verdicts, and
    // receivers whose arguments live off the home shard.
    assert!(total.built > 0, "the sweep must build executors");
    assert!(
        total.refused > 0,
        "the sweep must refuse uncertified methods"
    );
    assert!(
        total.off_home > 0,
        "the sweep must run receivers with arguments off the home shard"
    );
}

/// The tier-1 differential sweep: the replay corpus plus 500 random
/// (schema, instance, method-sequence) triples, each executed through
/// every sharded path and compared bit-for-bit with the sequential
/// reference.
#[test]
fn sharded_execution_matches_sequential() {
    sweep(DEFAULT_TRIPLES);
}

/// Scheduled long run: 5000 triples. `cargo test --test shard_differential
/// -- --ignored` (CI runs this on a schedule, not per push).
#[test]
#[ignore = "long run; exercised by the scheduled CI job"]
fn sharded_execution_matches_sequential_long_run() {
    sweep(5000);
}

/// End-to-end solver discharge: Section 7's cursor update (B) reads the
/// Salary it writes, so the syntactic certificate alone blocks sharding.
/// `Solver::certify_sharded` proves the read pinned to the receiving row
/// and discharges the conflict; the executor then runs every receiver on
/// its home shard, and the result stays bit-identical to the sequential
/// driver.
#[test]
fn solver_discharged_cursor_update_shards_bit_identically() {
    use receivers::sql::catalog::employee_catalog;
    use receivers::sql::compile::{compile, CompiledStatement};
    use receivers::sql::scenarios::{section7_instance, CURSOR_UPDATE_B};
    use receivers::sql::{parse, Solver};

    let (es, catalog) = employee_catalog();
    let (instance, _data) = section7_instance(&es);
    let stmt = parse(CURSOR_UPDATE_B).unwrap();

    let solver = Solver::new(&catalog);
    let cert = solver
        .certify_sharded(&stmt)
        .expect("(B) compiles to an algebraic cursor update");
    assert!(
        cert.certificate.conflicts.contains(&es.salary),
        "(B) reads the Salary it writes — the syntactic conflict the solver discharges"
    );
    assert!(
        cert.certificate.shard_safe(),
        "the pinned-read proof must discharge every conflict of (B)"
    );
    assert!(!cert.proofs.is_empty(), "discharges carry proofs");
    assert!(
        ShardedExecutor::new(&cert.method, &cfg(2)).is_err(),
        "without the discharge the executor refuses (B)"
    );

    // One receiver per Employee tuple, straight from the compiled cursor.
    let cu = match compile(&stmt, &catalog).unwrap() {
        CompiledStatement::CursorUpdate(cu) => cu,
        _ => panic!("(B) is a cursor update"),
    };
    let order: Vec<Receiver> = cu.receivers(&instance).iter().cloned().collect();
    assert!(!order.is_empty(), "Section 7 instance has employees");

    let method = &cert.method;
    let mut reference = instance.clone();
    let out_ref = method.apply_in_place_sequence(&mut reference, &order);
    assert!(matches!(out_ref, InPlaceOutcome::Applied));

    // Fresh executors at several widths, with a maintained view; the
    // wave report accounts for every receiver on the lanes.
    for shards in [2usize, 3, 5] {
        let mut exec =
            ShardedExecutor::with_certificate(method, &cert.certificate, &cfg(shards)).unwrap();
        let mut sharded = instance.clone();
        let mut view = DatabaseView::new(&sharded);
        let mut wave = WaveStats::default();
        let out = exec.apply(&mut sharded, &mut view, &order, Some(&mut wave));
        assert_identical(
            &out,
            &out_ref,
            &sharded,
            &reference,
            0,
            &format!("solver-discharged {shards} shards"),
        );
        assert!(
            view.matches_rebuild(&sharded),
            "maintained view diverged under the solver-discharged certificate ({shards} shards)"
        );
        assert_eq!(
            wave.local_receivers,
            order.len() as u64,
            "the wave report must account for every receiver ({shards} shards)"
        );
        assert_eq!(
            wave.lanes.iter().map(|l| l.receivers).sum::<u64>(),
            wave.local_receivers,
            "lane receiver counts must sum to the local total"
        );
    }
}
