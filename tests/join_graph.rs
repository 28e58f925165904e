//! Seeded differential suite for the join graph of `relalg::eval`.
//!
//! `eval` flattens every tree of products, natural joins, equality theta
//! joins and equality selections (with the renamings over them) into
//! leaves and equalities, and joins the leaves in its own order. Each
//! trial here draws random such trees over a random instance of the beer
//! or the employee schema and checks `eval` against [`naive`], a
//! structural evaluator written in this file: every product built in
//! full and filtered afterwards, every operator in the tree's own order.
//! Results must be equal, and so must errors — the same variant with the
//! same attribute.
//!
//! The generator favours the shapes the join graph rewrites: renamings
//! over products (the `par(·)` shape `ρ(π_self(rec) × R)`), repeated
//! leaves, natural joins on shared attributes, nullary `π_∅` probes, and
//! non-equality operators left inside a tree. A tenth of its choices are
//! deliberately ill-formed (clashing products, cross-domain equalities,
//! unknown attributes and parameters) to check error parity.
//!
//! Every assertion message carries the failing seed; replay one with
//! `RECEIVERS_DIFF_SEED=<seed> cargo test --test join_graph`, or shrink
//! the sweep with `RECEIVERS_DIFF_TREES=<n>`.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers::objectbase::examples::{beer_schema, employee_schema};
use receivers::objectbase::gen::{random_instance, random_receivers, InstanceParams};
use receivers::objectbase::{ClassId, PropId, Schema, Signature};
use receivers::relalg::database::Database;
use receivers::relalg::eval::{eval, Bindings};
use receivers::relalg::typecheck::{rec_params, update_params};
use receivers::relalg::{infer_schema, Attr, Expr, ParamSchemas, RelAlgError, RelSchema, Relation};

/// Default number of trials per run; override with `RECEIVERS_DIFF_TREES`.
const DEFAULT_TRIALS: u64 = 500;

/// Trees drawn per trial, over one instance and one set of bindings.
const TREES_PER_TRIAL: usize = 8;

/// Base offset separating this sweep's seeds from the other differential
/// suites (`relation_ops` 0xF1A7_0000, `plan_differential` 0x91A7_0000).
const SWEEP_BASE: u64 = 0x701E_0000;

/// The structural oracle: each operator applied to its evaluated operands
/// as defined, products in full, no reordering.
fn naive(expr: &Expr, db: &Database, b: &Bindings) -> Result<Relation, RelAlgError> {
    Ok(match expr {
        Expr::Base(rel) => db.relation(*rel)?.clone(),
        Expr::Param(p) => b
            .get(p)
            .cloned()
            .ok_or_else(|| RelAlgError::UnknownParam(p.clone()))?,
        Expr::Union(l, r) => naive(l, db, b)?.union(&naive(r, db, b)?)?,
        Expr::Diff(l, r) => naive(l, db, b)?.difference(&naive(r, db, b)?)?,
        Expr::Product(l, r) => naive(l, db, b)?.product(&naive(r, db, b)?)?,
        Expr::SelectEq(e, x, y) => naive(e, db, b)?.select_eq(x, y)?,
        Expr::SelectNe(e, x, y) => naive(e, db, b)?.select_ne(x, y)?,
        Expr::Project(e, attrs) => naive(e, db, b)?.project(attrs)?,
        Expr::Rename(e, from, to) => naive(e, db, b)?.rename(from, to)?,
        Expr::ThetaJoin {
            left,
            right,
            on_left,
            on_right,
            eq,
        } => {
            let product = naive(left, db, b)?.product(&naive(right, db, b)?)?;
            if *eq {
                product.select_eq(on_left, on_right)?
            } else {
                product.select_ne(on_left, on_right)?
            }
        }
        // `σ_{A=A'}(L × ρ_{A→A'}(R))` for each common `A`, then the
        // right-hand copies projected away.
        Expr::NatJoin(l, r) => {
            let (l, mut r) = (naive(l, db, b)?, naive(r, db, b)?);
            let common = l.schema().common_attrs(r.schema())?;
            let copy = |a: &str| format!("{a}\u{2032}");
            for a in &common {
                r = r.rename(a, &copy(a))?;
            }
            let mut joined = l.product(&r)?;
            for a in &common {
                joined = joined.select_eq(a, &copy(a))?;
            }
            let keep: Vec<Attr> = l
                .schema()
                .attrs()
                .chain(r.schema().attrs().filter(|a| !a.ends_with('\u{2032}')))
                .cloned()
                .collect();
            joined.project(&keep)?
        }
    })
}

/// Random join trees over one schema and one set of parameter schemes.
struct TreeGen<'s> {
    rng: StdRng,
    schema: &'s Schema,
    params: ParamSchemas,
    fresh: usize,
}

impl TreeGen<'_> {
    /// A tenth of the choices go deliberately wrong.
    fn faulty(&mut self) -> bool {
        self.rng.random_bool(0.1)
    }

    fn fresh(&mut self) -> Attr {
        self.fresh += 1;
        format!("g{}", self.fresh)
    }

    fn scheme(&self, e: &Expr) -> Option<RelSchema> {
        infer_schema(e, self.schema, &self.params).ok()
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.rng.random_range(0..items.len())].clone())
    }

    fn leaf(&mut self) -> Expr {
        let classes = self.schema.class_count() as u32;
        let props = self.schema.property_count() as u32;
        match self.rng.random_range(0..10u32) {
            0..=2 => Expr::class(ClassId(self.rng.random_range(0..classes))),
            3..=5 => Expr::prop(PropId(self.rng.random_range(0..props))),
            6 => Expr::self_rel(),
            7 if self.faulty() => Expr::arg(7),
            7 => Expr::arg(1),
            8 => Expr::rec(),
            _ => Expr::rec().project(["self"]),
        }
    }

    /// `e` with every attribute renamed to a fresh name (`self` kept
    /// when `keep_self`), so it can stand beside anything in a product.
    fn apart(&mut self, mut e: Expr, keep_self: bool) -> Expr {
        if let Some(s) = self.scheme(&e) {
            for a in s.attrs() {
                if !(keep_self && a == "self") {
                    let to = self.fresh();
                    e = e.rename(a.clone(), to);
                }
            }
        }
        e
    }

    /// Two attributes of `s`, of one domain unless the choice is faulty.
    fn pair(&mut self, s: &RelSchema) -> Option<(Attr, Attr)> {
        let cols = s.columns();
        let mut pairs = Vec::new();
        let faulty = self.faulty();
        for (a, da) in cols {
            for (b, db) in cols {
                if a != b && (da == db) != faulty {
                    pairs.push((a.clone(), b.clone()));
                }
            }
        }
        self.pick(&pairs)
    }

    fn tree(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let l = self.tree(depth - 1);
        let ls = self.scheme(&l);
        match self.rng.random_range(0..10u32) {
            0 => {
                let r = self.tree(depth - 1);
                let r = if self.faulty() {
                    r
                } else {
                    self.apart(r, false)
                };
                l.product(r)
            }
            // The `par(·)` shape: `π_self(rec) × R` renamed apart,
            // natural-joined on `self`.
            1 => {
                let leaf = self.leaf();
                let leaf = self.apart(leaf, false);
                let r = self.apart(Expr::rec().project(["self"]).product(leaf), true);
                l.nat_join(r)
            }
            // A natural join on an attribute renamed to be shared.
            2 => {
                let r = self.tree(depth - 1);
                let rs = self.scheme(&r);
                let shared = match (&ls, &rs) {
                    (Some(ls), Some(rs)) => {
                        let mut cands = Vec::new();
                        for (a, da) in ls.columns() {
                            for (b, db) in rs.columns() {
                                if da == db && !rs.contains(a) {
                                    cands.push((b.clone(), a.clone()));
                                }
                            }
                        }
                        self.pick(&cands)
                    }
                    _ => None,
                };
                match shared {
                    Some((from, to)) => l.nat_join(r.rename(from, to)),
                    None => l.nat_join(r),
                }
            }
            3 => {
                let r = self.tree(depth - 1);
                let r = self.apart(r, false);
                match (ls, self.scheme(&r)) {
                    (Some(ls), Some(rs)) => {
                        let faulty = self.faulty();
                        let mut cands = Vec::new();
                        for (a, da) in ls.columns() {
                            for (b, db) in rs.columns() {
                                if (da == db) != faulty {
                                    cands.push((a.clone(), b.clone()));
                                }
                            }
                        }
                        match self.pick(&cands) {
                            Some((a, b)) => l.join_eq(r, a, b),
                            None => l.product(r),
                        }
                    }
                    _ => l.product(r),
                }
            }
            4 | 5 => match ls.and_then(|s| self.pair(&s)) {
                Some((a, b)) if self.faulty() => l.select_eq(a, format!("{b}_missing")),
                Some((a, b)) => l.select_eq(a, b),
                None => l,
            },
            6 => match ls.and_then(|s| self.pick(&s.attrs().cloned().collect::<Vec<_>>())) {
                Some(a) => {
                    let to = match self.faulty().then(|| self.scheme(&l)).flatten() {
                        Some(s) => s.attrs().last().cloned().unwrap_or_default(),
                        None => self.fresh(),
                    };
                    l.rename(a, to)
                }
                None => l,
            },
            // A repeated leaf: `E ⋈ E = E`.
            7 => l.clone().nat_join(l),
            // A nullary probe guarding the tree.
            8 => {
                let guard = self.tree(depth - 1);
                l.product(guard.probe())
            }
            // A non-equality operator inside the tree.
            _ => match ls.and_then(|s| self.pair(&s)) {
                Some((a, b)) => l.select_ne(a, b),
                None => l,
            },
        }
    }

    /// A tree, sometimes under a projection.
    fn expr(&mut self) -> Expr {
        let depth = self.rng.random_range(1..=4);
        let e = self.tree(depth);
        match self.scheme(&e) {
            Some(s) if self.rng.random_bool(0.4) => {
                let mut attrs: Vec<Attr> = s.attrs().cloned().collect();
                let keep = self.rng.random_range(0..=attrs.len());
                for i in (1..attrs.len()).rev() {
                    attrs.swap(i, self.rng.random_range(0..=i));
                }
                attrs.truncate(keep);
                e.project(attrs)
            }
            _ => e,
        }
    }
}

/// What a sweep saw, for the non-vacuity checks at its end.
#[derive(Default)]
struct Seen {
    nonempty: usize,
    errors: BTreeMap<&'static str, usize>,
}

fn error_kind(e: &RelAlgError) -> &'static str {
    match e {
        RelAlgError::ProductAttrClash(_) => "product clash",
        RelAlgError::DomainMismatch { .. } => "domain mismatch",
        RelAlgError::UnknownAttr(_) => "unknown attribute",
        RelAlgError::UnknownParam(_) => "unknown parameter",
        RelAlgError::DuplicateAttr(_) => "duplicate attribute",
        _ => "other",
    }
}

fn run_trial(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1017_6A1E_D1FF_5EED);
    let (schema, sig) = if rng.random_bool(0.5) {
        let s = beer_schema();
        (s.schema, Signature::new(vec![s.drinker, s.bar]))
    } else {
        let s = employee_schema();
        (s.schema, Signature::new(vec![s.employee, s.amount]))
    };
    let sig = sig.expect("non-empty signature");
    let instance = random_instance(
        &schema,
        InstanceParams {
            objects_per_class: rng.random_range(1..=4),
            edge_density: 0.2 + rng.random_range(0..=4u32) as f64 * 0.1,
        },
        seed,
    );
    let db = Database::from_instance(&instance);
    let receivers = random_receivers(&instance, &sig, 3, false, seed.wrapping_mul(5));
    let one = receivers.iter().next().expect("every class is populated");
    let bindings = Bindings::for_receiver(one)
        .merged(Bindings::for_receiver_set(&sig, &receivers).expect("receivers are typed"));
    let mut params = update_params(&sig);
    params.extend(rec_params(&sig));
    let mut gen = TreeGen {
        rng,
        schema: &schema,
        params,
        fresh: 0,
    };
    for k in 0..TREES_PER_TRIAL {
        let expr = gen.expr();
        let got = eval(&expr, &db, &bindings);
        let want = naive(&expr, &db, &bindings);
        assert_eq!(got, want, "seed {seed}, tree {k}: {expr}");
        match want {
            Ok(rel) => seen.nonempty += usize::from(!rel.is_empty()),
            Err(e) => *seen.errors.entry(error_kind(&e)).or_default() += 1,
        }
    }
}

fn sweep(trials: u64) {
    let mut seen = Seen::default();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &mut seen);
        return;
    }
    let n = std::env::var("RECEIVERS_DIFF_TREES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(trials);
    for k in 0..n {
        run_trial(SWEEP_BASE + k, &mut seen);
    }
    if n >= DEFAULT_TRIALS {
        assert!(seen.nonempty > 0, "the sweep must produce non-empty joins");
        for kind in [
            "product clash",
            "domain mismatch",
            "unknown attribute",
            "unknown parameter",
        ] {
            assert!(
                seen.errors.get(kind).copied().unwrap_or(0) > 0,
                "the sweep must check parity on a {kind} error: {:?}",
                seen.errors
            );
        }
    }
}

/// The tier-1 sweep: 500 trials of eight random trees each, `eval` against
/// the structural oracle, results and errors alike.
#[test]
fn join_graph_matches_structural_evaluation() {
    sweep(DEFAULT_TRIALS);
}
