//! Expression evaluation against a [`Database`] and parameter bindings.
//!
//! Operators evaluate structurally, except that each tree of products,
//! equality joins and equality selections is evaluated as one join graph
//! — its leaves joined smallest first through sorted probes — so that no
//! product is built where a predicate connects its sides (see [`eval`]).

use std::borrow::Cow;
use std::collections::BTreeMap;

use receivers_objectbase::{Receiver, ReceiverSet, Signature};

use crate::database::Database;
use crate::error::{RelAlgError, Result};
use crate::expr::Expr;
use crate::relation::Relation;
use crate::schema::{Attr, RelSchema};

/// Bindings for parameter relations.
///
/// For an update expression of type σ applied to receiver `t = [o₀,…,oₖ]`,
/// `self` is bound to the singleton `{o₀}` and `arg_i` to `{o_i}`
/// (Definition 5.4(2)); for the parallel semantics, `rec` is bound to the
/// whole receiver set (Definition 6.2(1)).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    params: BTreeMap<String, Relation>,
}

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a named parameter relation.
    pub fn bind(&mut self, name: impl Into<String>, rel: Relation) -> &mut Self {
        self.params.insert(name.into(), rel);
        self
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.params.get(name)
    }

    /// The standard single-receiver bindings: `self ↦ {o₀}`,
    /// `arg_i ↦ {o_i}`.
    pub fn for_receiver(t: &Receiver) -> Self {
        let mut b = Self::new();
        b.bind("self", Relation::singleton("self", t.receiving_object()));
        for (i, &o) in t.arguments().iter().enumerate() {
            let name = format!("arg{}", i + 1);
            b.bind(name.clone(), Relation::singleton(name, o));
        }
        b
    }

    /// Like [`Bindings::for_receiver`] but with every parameter name primed
    /// (`self'`, `arg1'`, …) — used by the Theorem 5.6 reduction to hold a
    /// second receiver.
    pub fn for_receiver_primed(t: &Receiver) -> Self {
        let mut b = Self::new();
        b.bind("self'", Relation::singleton("self'", t.receiving_object()));
        for (i, &o) in t.arguments().iter().enumerate() {
            let name = format!("arg{}'", i + 1);
            b.bind(name.clone(), Relation::singleton(name, o));
        }
        b
    }

    /// The parallel-semantics binding: `rec` holds the entire receiver set
    /// as a relation over scheme `self arg1 … argk`.
    pub fn for_receiver_set(sig: &Signature, t: &ReceiverSet) -> Result<Self> {
        let mut cols = vec![("self".to_owned(), sig.receiving_class())];
        for (i, &c) in sig.argument_classes().iter().enumerate() {
            cols.push((format!("arg{}", i + 1), c));
        }
        let schema = RelSchema::new(cols)?;
        let rec = Relation::from_tuples(schema, t.iter().map(|r| r.objects().to_vec()))?;
        let mut b = Self::new();
        b.bind("rec", rec);
        Ok(b)
    }

    /// Merge two sets of bindings (right wins on clashes).
    pub fn merged(mut self, other: Bindings) -> Self {
        self.params.extend(other.params);
        self
    }
}

/// Evaluate `expr` on `db` under `bindings`.
///
/// Every maximal tree of products, natural joins, equality theta joins
/// and equality selections — with the renamings over it — is evaluated
/// as one **join graph**: its leaves are evaluated on their own, each
/// equality between two attributes of one leaf filters that leaf, and the
/// leaves are then joined greedily, smallest first, each step a sorted
/// probe keyed by the shared attributes and the equalities crossing it
/// (see `JoinGraph`). No Cartesian product is built where a predicate
/// connects its sides, however deep in the tree the predicate sits — the
/// difference between linear and quadratic work on the left-deep chains
/// the SQL compiler and `par(·)` produce. Non-equality selections and
/// joins and all other operators evaluate structurally, and the result
/// and any error equal the structural evaluation's.
pub fn eval(expr: &Expr, db: &Database, bindings: &Bindings) -> Result<Relation> {
    eval_cow(expr, db, bindings).map(Cow::into_owned)
}

/// The borrowing evaluator behind [`eval`]: base relations and parameter
/// bindings come back as `Cow::Borrowed`, so operators probe them in place
/// and a full copy is made only when a leaf itself is the final result.
/// This is what makes evaluation against a maintained
/// [`DatabaseView`](crate::view::DatabaseView) `O(probe)` instead of
/// `O(relation)`: a singleton `self ⋈ Ca` no longer clones all of `Ca`
/// first.
fn eval_cow<'a>(
    expr: &Expr,
    db: &'a Database,
    bindings: &'a Bindings,
) -> Result<Cow<'a, Relation>> {
    match expr {
        Expr::Product(..)
        | Expr::NatJoin(..)
        | Expr::SelectEq(..)
        | Expr::ThetaJoin { eq: true, .. } => {
            eval_join_graph(expr, None, db, bindings).map(Cow::Owned)
        }
        Expr::Rename(e, ..) if is_join_tree(e) => {
            eval_join_graph(expr, None, db, bindings).map(Cow::Owned)
        }
        // The projection is fused into the join graph's final one.
        Expr::Project(e, attrs) if is_join_tree(e) => {
            eval_join_graph(e, Some(attrs), db, bindings).map(Cow::Owned)
        }
        Expr::Base(rel) => db.relation(*rel).map(Cow::Borrowed),
        Expr::Param(p) => bindings
            .get(p)
            .map(Cow::Borrowed)
            .ok_or_else(|| RelAlgError::UnknownParam(p.clone())),
        Expr::Union(l, r) => {
            let lrel = eval_cow(l, db, bindings)?;
            let rrel = eval_cow(r, db, bindings)?;
            Ok(Cow::Owned(lrel.union(&rrel)?))
        }
        Expr::Diff(l, r) => {
            let lrel = eval_cow(l, db, bindings)?;
            let rrel = eval_cow(r, db, bindings)?;
            Ok(Cow::Owned(lrel.difference(&rrel)?))
        }
        Expr::ThetaJoin {
            left,
            right,
            on_left,
            on_right,
            eq: false,
        } => {
            let lrel = eval_cow(left, db, bindings)?;
            let rrel = eval_cow(right, db, bindings)?;
            Ok(Cow::Owned(
                lrel.theta_join(&rrel, on_left, on_right, false)?,
            ))
        }
        Expr::SelectNe(e, a, b) => Ok(Cow::Owned(eval_cow(e, db, bindings)?.select_ne(a, b)?)),
        Expr::Project(e, attrs) => Ok(Cow::Owned(eval_cow(e, db, bindings)?.project(attrs)?)),
        Expr::Rename(e, from, to) => Ok(Cow::Owned(eval_cow(e, db, bindings)?.rename(from, to)?)),
    }
}

/// Whether `expr` is the root of a join tree: a product, natural join,
/// equality theta join or equality selection, possibly under renamings.
fn is_join_tree(expr: &Expr) -> bool {
    match expr {
        Expr::Product(..) | Expr::NatJoin(..) | Expr::SelectEq(..) => true,
        Expr::ThetaJoin { eq, .. } => *eq,
        Expr::Rename(e, ..) => is_join_tree(e),
        _ => false,
    }
}

/// Evaluate the join tree `expr`, projected onto `keep` when given (a
/// projection directly above the tree, fused into the final one).
fn eval_join_graph(
    expr: &Expr,
    keep: Option<&[Attr]>,
    db: &Database,
    bindings: &Bindings,
) -> Result<Relation> {
    let mut graph = JoinGraph {
        leaves: Vec::new(),
        eqs: Vec::new(),
    };
    let scheme = graph.flatten(expr, db, bindings)?;
    let out = match keep {
        Some(attrs) => scheme.project(attrs)?,
        None => scheme,
    };
    graph.join(out)
}

/// A join tree flattened into its leaf relations and the equalities
/// between their attributes.
///
/// Leaves that share an attribute name are joined on it. That is sound
/// because flattening computes every node's scheme in the tree's own
/// shape, as the structural evaluation would: a product or equality theta
/// join whose sides share a name fails there, so two leaves can share a
/// name only when the lowest node above both is a natural join — which
/// equates them on it. Renamings are pushed to every leaf under them that
/// carries the attribute, and to the equalities recorded under them.
struct JoinGraph<'a> {
    /// Leaf relations, in tree order, under their final attribute names.
    leaves: Vec<Cow<'a, Relation>>,
    /// Equalities `(A, B)` from equality selections and theta joins.
    eqs: Vec<(Attr, Attr)>,
}

impl<'a> JoinGraph<'a> {
    /// Collect the leaves and equalities of `expr`, returning its scheme.
    /// Children are flattened left to right before their parent's scheme
    /// is checked, so the first error is the structural evaluation's.
    fn flatten(
        &mut self,
        expr: &Expr,
        db: &'a Database,
        bindings: &'a Bindings,
    ) -> Result<RelSchema> {
        match expr {
            Expr::Product(l, r) => {
                let ls = self.flatten(l, db, bindings)?;
                let rs = self.flatten(r, db, bindings)?;
                ls.product(&rs)
            }
            Expr::NatJoin(l, r) => {
                let ls = self.flatten(l, db, bindings)?;
                let rs = self.flatten(r, db, bindings)?;
                ls.natural_join(&rs)
            }
            Expr::ThetaJoin {
                left,
                right,
                on_left,
                on_right,
                eq: true,
            } => {
                let ls = self.flatten(left, db, bindings)?;
                let rs = self.flatten(right, db, bindings)?;
                let scheme = ls.product(&rs)?;
                self.equate(&scheme, on_left, on_right)?;
                Ok(scheme)
            }
            Expr::SelectEq(e, a, b) => {
                let scheme = self.flatten(e, db, bindings)?;
                self.equate(&scheme, a, b)?;
                Ok(scheme)
            }
            Expr::Rename(e, from, to) => {
                let (first_leaf, first_eq) = (self.leaves.len(), self.eqs.len());
                let scheme = self.flatten(e, db, bindings)?.rename(from, to)?;
                for leaf in &mut self.leaves[first_leaf..] {
                    if leaf.schema().contains(from) {
                        leaf.to_mut().rename_in_place(from, to)?;
                    }
                }
                for (a, b) in &mut self.eqs[first_eq..] {
                    for attr in [a, b] {
                        if *attr == *from {
                            attr.clone_from(to);
                        }
                    }
                }
                Ok(scheme)
            }
            leaf => {
                let rel = eval_cow(leaf, db, bindings)?;
                let scheme = rel.schema().clone();
                self.leaves.push(rel);
                Ok(scheme)
            }
        }
    }

    /// Record `σ_{a=b}` over a node of scheme `scheme`, failing as
    /// [`Relation::select_eq`] would.
    fn equate(&mut self, scheme: &RelSchema, a: &Attr, b: &Attr) -> Result<()> {
        if scheme.domain(a)? != scheme.domain(b)? {
            return Err(RelAlgError::DomainMismatch {
                left: a.clone(),
                right: b.clone(),
            });
        }
        if a != b {
            self.eqs.push((a.clone(), b.clone()));
        }
        Ok(())
    }

    /// Join the leaves and project onto `out` (a scheme over their
    /// attributes).
    ///
    /// Nullary leaves are `{()}` or `{}`: the first drop out, the second
    /// empty the result. A leaf repeated with the same scheme is dropped
    /// (`R ⋈ R = R`; `par(·)` repeats `π_self(rec)` once per base
    /// relation). Each equality within one leaf filters that leaf. Then,
    /// starting from the smallest leaf, each step joins the smallest leaf
    /// connected to the rows so far — by a shared attribute or an equality
    /// — keyed by both; a leaf connected to nothing is joined as a product
    /// only when no connected one is left.
    fn join(self, out: RelSchema) -> Result<Relation> {
        let mut leaves: Vec<Cow<'a, Relation>> = Vec::with_capacity(self.leaves.len());
        for leaf in self.leaves {
            if leaf.schema().arity() == 0 {
                if leaf.is_empty() {
                    return Ok(Relation::empty(out));
                }
            } else if !leaves.contains(&leaf) {
                leaves.push(leaf);
            }
        }
        let mut pending = Vec::with_capacity(self.eqs.len());
        for (a, b) in self.eqs {
            let mut local = false;
            for leaf in &mut leaves {
                if leaf.schema().contains(&a) && leaf.schema().contains(&b) {
                    *leaf = Cow::Owned(leaf.select_eq(&a, &b)?);
                    local = true;
                }
            }
            if !local {
                pending.push((a, b));
            }
        }
        let Some(first) = smallest(&leaves, |_| true) else {
            return Ok(Relation::nullary_true());
        };
        let mut acc = leaves.remove(first).into_owned();
        while !acc.is_empty() && !leaves.is_empty() {
            let connected = |leaf: &Relation| {
                leaf.schema().attrs().any(|a| acc.schema().contains(a))
                    || pending
                        .iter()
                        .any(|eq| crossing(acc.schema(), leaf.schema(), eq).is_some())
            };
            let next = smallest(&leaves, connected)
                .or_else(|| smallest(&leaves, |_| true))
                .expect("leaves remain");
            let leaf = leaves.remove(next);
            let mut keys = Vec::new();
            pending.retain(|eq| match crossing(acc.schema(), leaf.schema(), eq) {
                Some((a, b)) => {
                    keys.push((a.clone(), b.clone()));
                    false
                }
                None => true,
            });
            acc = acc.natural_join_on(&leaf, &keys)?;
        }
        if acc.is_empty() {
            return Ok(Relation::empty(out));
        }
        debug_assert!(pending.is_empty(), "every equality crosses some step");
        if acc.schema() == &out {
            return Ok(acc);
        }
        let attrs: Vec<Attr> = out.attrs().cloned().collect();
        acc.project(&attrs)
    }
}

/// The join key `(A, B)` — `A` in `acc`, `B` in `leaf` — that the
/// equality `eq` contributes when it crosses from `acc` to `leaf`.
fn crossing<'e>(
    acc: &RelSchema,
    leaf: &RelSchema,
    (a, b): &'e (Attr, Attr),
) -> Option<(&'e Attr, &'e Attr)> {
    if acc.contains(a) && leaf.contains(b) {
        Some((a, b))
    } else if acc.contains(b) && leaf.contains(a) {
        Some((b, a))
    } else {
        None
    }
}

/// Index of the smallest leaf satisfying `pred`, the first on ties.
fn smallest(leaves: &[Cow<'_, Relation>], pred: impl Fn(&Relation) -> bool) -> Option<usize> {
    (0..leaves.len())
        .filter(|&i| pred(&leaves[i]))
        .min_by_key(|&i| leaves[i].len())
}
#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::Receiver;

    #[test]
    fn evaluates_add_bar_expression() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let bindings = Bindings::for_receiver(&t);
        // π_frequents(self ⋈[self=Drinker] Dfrequents) ∪ arg1
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .project(["frequents"])
            .union(Expr::arg(1));
        let out = eval(&e, &db, &bindings).unwrap();
        let bars: Vec<_> = out.column("frequents").unwrap();
        assert_eq!(bars, vec![o.bar1, o.bar2, o.bar3]);
    }

    #[test]
    fn evaluates_favorite_bar_expression() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let bindings = Bindings::for_receiver(&t);
        let e = Expr::arg(1);
        let out = eval(&e, &db, &bindings).unwrap();
        assert_eq!(out.column("arg1").unwrap(), vec![o.bar1]);
    }

    #[test]
    fn evaluates_delete_bar_expression() {
        // delete_bar (Example 5.11):
        //   f := π_f(self ⋈[self=D] Df ⋈[f≠arg1] arg1)
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar1]);
        let bindings = Bindings::for_receiver(&t);
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .join_ne(Expr::arg(1), "frequents", "arg1")
            .project(["frequents"]);
        let out = eval(&e, &db, &bindings).unwrap();
        assert_eq!(out.column("frequents").unwrap(), vec![o.bar2]);
    }

    #[test]
    fn rec_binding_holds_whole_receiver_set() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let t = ReceiverSet::from_iter([
            Receiver::new(vec![o.d1, o.bar1]),
            Receiver::new(vec![o.d1, o.bar3]),
        ]);
        let bindings = Bindings::for_receiver_set(&sig, &t).unwrap();
        let db = Database::from_instance(&i);
        let out = eval(&Expr::rec(), &db, &bindings).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().arity(), 2);
    }

    /// The join planner: equality selections over products/joins are
    /// executed as hash joins; the result must equal the naive
    /// product-then-filter evaluation in every placement case.
    #[test]
    fn join_planner_matches_naive_semantics() {
        let s = beer_schema();
        let (i, _o) = figure2(&s);
        let db = Database::from_instance(&i);
        let b = Bindings::new();

        // Cross-side equality: σ[Drinker=D2](frequents × ρ(frequents)).
        let copy = Expr::prop(s.frequents)
            .rename("Drinker", "D2")
            .rename("frequents", "f2");
        let planned = Expr::prop(s.frequents)
            .product(copy.clone())
            .select_eq("Drinker", "D2");
        let planned_result = eval(&planned, &db, &b).unwrap();
        // Naive: evaluate the product and filter manually.
        let naive = eval(&Expr::prop(s.frequents).product(copy), &db, &b)
            .unwrap()
            .select_eq("Drinker", "D2")
            .unwrap();
        assert_eq!(planned_result, naive);
        assert_eq!(planned_result.len(), 4); // 2 edges × 2 (same drinker)

        // Intra-side equality pushed to one operand: σ[f=f3](… × Bar).
        let bar_side = Expr::class(s.bar).rename("Bar", "B3");
        let expr = Expr::prop(s.frequents)
            .rename("frequents", "f")
            .product(
                Expr::prop(s.frequents)
                    .rename("Drinker", "D2")
                    .rename("frequents", "f3"),
            )
            .product(bar_side)
            .select_eq("f", "f3");
        let planned_result = eval(&expr, &db, &b).unwrap();
        assert_eq!(planned_result.len(), 2 * 3); // matched pairs × 3 bars

        // Stacked selections over a natural join with a shared attribute.
        let left = Expr::prop(s.frequents).rename("frequents", "f");
        let right = Expr::prop(s.frequents).rename("frequents", "g");
        let expr = left.nat_join(right).select_eq("f", "g");
        let joined = eval(&expr, &db, &b).unwrap();
        assert_eq!(joined.len(), 2); // diagonal of the 2-edge join
    }

    #[test]
    fn missing_binding_errors() {
        let s = beer_schema();
        let (i, _) = figure2(&s);
        let db = Database::from_instance(&i);
        assert!(matches!(
            eval(&Expr::self_rel(), &db, &Bindings::new()),
            Err(RelAlgError::UnknownParam(_))
        ));
    }
}
