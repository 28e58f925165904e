//! Seeded differential suite for the incremental [`DatabaseView`].
//!
//! Each trial draws one random (schema, instance, method, receiver-order)
//! triple from a seed, then drives the method statement-by-statement
//! through observed transactions over a maintained view, checking after
//! **every statement** that the view is byte-identical to a from-scratch
//! relational rebuild of the instance — and that a rolled-back statement
//! leaves both instance and view exactly as they were. The final state is
//! also cross-checked against an independent reference path that rebuilds
//! the `Database` per receiver (the pre-view semantics), and against the
//! production [`apply_sequence_viewed`] driver.
//!
//! Every assertion message carries the failing seed; to replay one, add it
//! to `tests/seeds/view_differential.seeds` (replayed before the random
//! sweep) or run
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test view_differential`.
//!
//! The sweep runs with `receivers-obs` metrics on: a failing trial prints
//! a replay banner with the seed and the final metrics summary, and the
//! sweep itself ends with the counter-backed netting invariant — across
//! the whole corpus the view's delta observer must have netted at least
//! as many operations as it replayed (`view.netted_ops ≤ view.raw_ops`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::core::algebraic::{AlgebraicMethod, Statement};
use receivers::objectbase::gen::{
    random_instance, random_receivers, random_schema, InstanceParams, SchemaParams,
};
use receivers::objectbase::{
    ClassId, Edge, InPlaceOutcome, Instance, InstanceTxn, Oid, PropId, Receiver, Signature,
    UpdateMethod,
};
use receivers::obs;
use receivers::relalg::database::Database;
use receivers::relalg::expr::RelName;
use receivers::relalg::gen::{random_expr, ExprParams};
use receivers::relalg::typecheck::{infer_schema, update_params, ParamSchemas};
use receivers::relalg::view::DatabaseView;
use receivers::relalg::Expr;

/// Default number of random triples per run; override with
/// `RECEIVERS_DIFF_TRIPLES`. The `#[ignore]`d long-run variant uses 5000.
const DEFAULT_TRIPLES: u64 = 500;

/// Base offset separating the sweep's seed space from the corpus seeds.
const SWEEP_BASE: u64 = 0x51EE_D000;

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
                "\n=== view_differential trial failed: replay with ===\n\
                 ===   RECEIVERS_DIFF_SEED={} cargo test --test view_differential ===",
                self.seed
            );
            eprint!(
                "{}",
                obs::export::render_summary(&obs::metrics_snapshot(), &[])
            );
        }
    }
}

/// One random update method over `schema`: a signature rooted at a class
/// with outgoing properties plus 0–2 argument classes, and one statement
/// for a random subset of the receiving class's properties. Expressions
/// come from the generic well-typed generator ([`random_expr`]) filtered
/// to "unary over the property's target class", with hand-built fallbacks
/// (current successors, an argument, the whole target class) so every
/// seed yields at least one statement.
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
        // Keep each property with probability 0.6; if nothing survived by
        // the last one, force it so the method is never a no-op by type.
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
        format!("diff_{seed:x}"),
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
    // First choice: the generic generator, filtered. Well-typedness is by
    // construction; we only need the right scheme.
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

/// Replace `recv`'s `prop`-successors by `values` through an observed
/// transaction, keeping `view` in lockstep.
fn apply_statement(
    instance: &mut Instance,
    view: &mut DatabaseView,
    recv: Oid,
    prop: PropId,
    values: &[Oid],
) {
    let mut txn = InstanceTxn::begin_observed(instance, view);
    let old: Vec<Oid> = txn.instance().successors(recv, prop).collect();
    for v in old {
        txn.remove_edge(&Edge::new(recv, prop, v));
    }
    for &v in values {
        txn.add_edge(Edge::new(recv, prop, v))
            .expect("typed evaluation only yields objects of the instance");
    }
    txn.commit();
}

/// The same edits as [`apply_statement`], but rolled back — both instance
/// and view must come back bit-identical.
fn apply_statement_and_rollback(
    instance: &mut Instance,
    view: &mut DatabaseView,
    recv: Oid,
    prop: PropId,
    values: &[Oid],
) {
    let mut txn = InstanceTxn::begin_observed(instance, view);
    let old: Vec<Oid> = txn.instance().successors(recv, prop).collect();
    for v in old {
        txn.remove_edge(&Edge::new(recv, prop, v));
    }
    for &v in values {
        txn.add_edge(Edge::new(recv, prop, v)).expect("well typed");
    }
    txn.rollback();
}

/// One full differential trial for `seed`.
/// The trial's random schema and instance, drawn from `rng` (seeded from
/// `seed`) — the first draws of every trial.
fn trial_instance(seed: u64, rng: &mut StdRng) -> Instance {
    let schema = random_schema(
        SchemaParams {
            classes: rng.random_range(2..=5),
            properties: rng.random_range(1..=6),
        },
        seed,
    );
    random_instance(
        &schema,
        InstanceParams {
            objects_per_class: rng.random_range(2..=8),
            edge_density: 0.1 + rng.random_range(0..=4u32) as f64 * 0.1,
        },
        seed.wrapping_mul(3),
    )
}

/// Require `db` to be the relational encoding of `instance`
/// (Proposition 5.1), with the expected relations built here from the
/// instance's nodes and edges alone — an oracle that shares no code with
/// `Database::from_instance` or the view's maintenance.
fn assert_encodes(db: &Database, instance: &Instance, seed: u64) {
    let schema = instance.schema();
    let mut classes: BTreeMap<ClassId, BTreeSet<Oid>> =
        schema.classes().map(|c| (c, BTreeSet::new())).collect();
    for o in instance.nodes() {
        classes.get_mut(&o.class).expect("typed node").insert(o);
    }
    let mut props: BTreeMap<PropId, BTreeSet<(Oid, Oid)>> =
        schema.properties().map(|p| (p, BTreeSet::new())).collect();
    for e in instance.edges() {
        props
            .get_mut(&e.prop)
            .expect("typed edge")
            .insert((e.src, e.dst));
    }
    for (c, want) in classes {
        let got: Vec<Oid> = db
            .relation(RelName::Class(c))
            .expect("class relation")
            .tuples()
            .map(|t| {
                assert_eq!(t.len(), 1, "class tuples are unary (seed {seed})");
                t[0]
            })
            .collect();
        assert_eq!(
            got,
            want.into_iter().collect::<Vec<_>>(),
            "class relation C{} (seed {seed})",
            c.0
        );
    }
    for (p, want) in props {
        let got: Vec<(Oid, Oid)> = db
            .relation(RelName::Prop(p))
            .expect("property relation")
            .tuples()
            .map(|t| {
                assert_eq!(t.len(), 2, "property tuples are binary (seed {seed})");
                (t[0], t[1])
            })
            .collect();
        assert_eq!(
            got,
            want.into_iter().collect::<Vec<_>>(),
            "property relation P{} (seed {seed})",
            p.0
        );
    }
    assert_eq!(
        db.tuple_count(),
        instance.node_count() + instance.edge_count(),
        "no stray relations or tuples (seed {seed})"
    );
}

fn run_triple(seed: u64) {
    let _banner = ReplayBanner { seed };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let instance = trial_instance(seed, &mut rng);
    let schema = Arc::clone(instance.schema());
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
    if order.is_empty() {
        // A signature class can be empty only if objects_per_class were 0,
        // which the parameter range forbids — but keep the trial total
        // honest rather than silently passing.
        panic!("receiver generation produced no receivers (seed {seed})");
    }

    // The maintained path: one view built up-front, then per-statement
    // observed edits with a rebuild comparison after every statement.
    let mut working = instance.clone();
    let mut view = DatabaseView::new(&working);
    for (ti, t) in order.iter().enumerate() {
        t.validate(method.signature(), &working)
            .unwrap_or_else(|e| panic!("generated receivers validate (seed {seed}): {e}"));
        let results = method
            .evaluate_on(view.database(), t)
            .unwrap_or_else(|e| panic!("evaluation failed (seed {seed}): {e}"));
        let recv = t.receiving_object();
        for (si, (prop, values)) in results.iter().enumerate() {
            // Dry run first: the statement's edits rolled back must leave
            // instance and view exactly as before.
            let (i_snap, v_snap) = (working.clone(), view.clone());
            apply_statement_and_rollback(&mut working, &mut view, recv, *prop, values);
            assert_eq!(
                working, i_snap,
                "rollback must restore the instance (seed {seed}, receiver {ti}, statement {si})"
            );
            assert_eq!(
                view, v_snap,
                "rollback must restore the view (seed {seed}, receiver {ti}, statement {si})"
            );
            // Then for real.
            apply_statement(&mut working, &mut view, recv, *prop, values);
            assert!(
                view.matches_rebuild(&working),
                "maintained view diverged from fresh rebuild \
                 (seed {seed}, receiver {ti}, statement {si})"
            );
        }
        working.check_index_consistent();
    }

    // Independent reference: the pre-view semantics — a fresh relational
    // encoding per receiver, edits applied directly to the instance.
    let mut reference = instance.clone();
    for t in &order {
        let results = method
            .evaluate(&reference, t)
            .expect("reference evaluation");
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
    assert_eq!(
        working, reference,
        "view-backed and rebuild-per-receiver application diverged (seed {seed})"
    );
    assert_eq!(hash_of(&working), hash_of(&reference), "hash (seed {seed})");
    assert_eq!(
        *view.database(),
        Database::from_instance(&reference),
        "final view must equal the rebuild of the reference (seed {seed})"
    );
    assert_encodes(view.database(), &reference, seed);

    // And the production driver agrees wholesale.
    let mut driven = instance.clone();
    let mut driven_view = DatabaseView::new(&driven);
    let outcome = method.apply_sequence_viewed(&mut driven, &mut driven_view, &order);
    assert_eq!(
        outcome,
        InPlaceOutcome::Applied,
        "algebraic methods terminate (seed {seed})"
    );
    assert_eq!(driven, working, "apply_sequence_viewed (seed {seed})");
    assert!(
        driven_view.matches_rebuild(&driven),
        "driver-maintained view must match rebuild (seed {seed})"
    );
}

/// Seeds from the committed replay corpus: `tests/seeds/*.seeds`, one
/// decimal or `0x`-hex seed per line, `#` comments ignored.
fn corpus_seeds() -> Vec<u64> {
    let raw = include_str!("seeds/view_differential.seeds");
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
    // Metrics on for the whole sweep (tracing stays wherever the
    // environment put it): the trials feed the netting invariant below,
    // and a failing trial's banner carries a meaningful summary.
    obs::set_enabled(obs::trace_enabled(), true);
    // Regression corpus first: seeds that once found (or nearly found)
    // divergence replay before any random exploration.
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

    // The counter-backed invariant: netting can only shrink a batch, so
    // across every flush of the corpus the delta observer must have
    // replayed at most as many operations as it received — and the sweep
    // must actually have exercised the observer.
    let snap = obs::metrics_snapshot();
    let batches = snap.counter("view.batches").unwrap_or(0);
    let raw = snap.counter("view.raw_ops").unwrap_or(0);
    let netted = snap.counter("view.netted_ops").unwrap_or(0);
    assert!(batches > 0, "the sweep must flush delta batches");
    assert!(raw > 0, "the sweep must record raw delta ops");
    assert!(
        netted <= raw,
        "netting must never amplify a batch: {netted} netted > {raw} raw \
         over {batches} batches"
    );
}

/// The tier-1 differential sweep: the replay corpus plus 500 random
/// (schema, instance, method-sequence) triples, each checked
/// statement-by-statement against a from-scratch rebuild.
#[test]
fn maintained_view_matches_rebuild_after_every_statement() {
    sweep(DEFAULT_TRIPLES);
}

/// `Database::from_instance`, which the sweep's rebuild comparisons
/// trust, against the hand-built encoding of [`assert_encodes`] on the
/// instance of every corpus and sweep seed.
#[test]
fn from_instance_matches_a_hand_built_encoding() {
    let n = std::env::var("RECEIVERS_DIFF_TRIPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_TRIPLES);
    for seed in corpus_seeds()
        .into_iter()
        .chain((0..n).map(|k| SWEEP_BASE + k))
    {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let instance = trial_instance(seed, &mut rng);
        assert_encodes(&Database::from_instance(&instance), &instance, seed);
    }
}

/// Scheduled long run: 5000 triples. `cargo test --test view_differential
/// -- --ignored` (CI runs this on a schedule, not per push).
#[test]
#[ignore = "long run; exercised by the scheduled CI job"]
fn maintained_view_matches_rebuild_long_run() {
    sweep(5000);
}

/// The sequence-level rollback contract with a caller-held view: a
/// receiver that fails validation mid-sequence makes
/// [`apply_sequence_viewed`] replay the whole accumulated delta log in
/// reverse, so *both* the instance and the maintained view come back
/// bit-identical to their pre-sequence snapshots — equality, equal
/// hashes, consistent adjacency indexes, and the view still matching a
/// fresh rebuild. (Same shape as PR 1's `PoisonedTxnMethod` contract
/// test, lifted from one transaction to the whole sequence plus the
/// view.)
#[test]
fn mid_sequence_failure_restores_instance_and_view() {
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
    // Third receiver names a bar that does not exist in the instance, so
    // validation fails after two receivers have already committed edits.
    let ghost = Oid::new(s.bar, 40_000);
    assert!(
        !i.class_members(s.bar).any(|o| o == ghost),
        "ghost bar must be absent"
    );
    let order = vec![
        Receiver::new(vec![Oid::new(s.drinker, 3), Oid::new(s.bar, 1)]),
        Receiver::new(vec![Oid::new(s.drinker, 11), Oid::new(s.bar, 4)]),
        Receiver::new(vec![Oid::new(s.drinker, 20), ghost]),
        Receiver::new(vec![Oid::new(s.drinker, 30), Oid::new(s.bar, 9)]),
    ];

    let mut working = i.clone();
    let mut view = DatabaseView::new(&working);
    let (i_snap, v_snap) = (working.clone(), view.clone());
    let (ih, vh) = (hash_of(&working), hash_of(view.database()));

    let outcome = m.apply_sequence_viewed(&mut working, &mut view, &order);
    assert!(
        matches!(outcome, InPlaceOutcome::Undefined(_)),
        "ghost receiver must make the sequence undefined, got {outcome:?}"
    );
    assert_eq!(working, i_snap, "instance restored to pre-sequence state");
    assert_eq!(view, v_snap, "view restored to pre-sequence state");
    assert_eq!(hash_of(&working), ih, "instance hash unchanged");
    assert_eq!(hash_of(view.database()), vh, "view hash unchanged");
    working.check_index_consistent();
    assert!(
        view.matches_rebuild(&working),
        "restored view matches rebuild"
    );

    // Non-vacuous: the two receivers before the ghost really would have
    // changed the instance had the sequence survived.
    let mut prefix = i.clone();
    let mut prefix_view = DatabaseView::new(&prefix);
    assert_eq!(
        m.apply_sequence_viewed(&mut prefix, &mut prefix_view, &order[..2]),
        InPlaceOutcome::Applied
    );
    assert_ne!(prefix, i, "rolled-back prefix edits were not a no-op");

    // The trait-level entry point (internally built view) honours the
    // same contract on a plain `&mut Instance`.
    let mut via_trait = i.clone();
    assert!(matches!(
        m.apply_in_place_sequence(&mut via_trait, &order),
        InPlaceOutcome::Undefined(_)
    ));
    assert_eq!(via_trait, i, "trait entry point restores the instance");
    assert_eq!(hash_of(&via_trait), hash_of(&i));
    via_trait.check_index_consistent();
}
