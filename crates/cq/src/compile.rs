//! Compilation of *positive* relational algebra expressions into positive
//! queries (unions of conjunctive queries with non-equalities).
//!
//! The appendix observes that "positive expressions can be viewed as
//! conjunctive queries extended with union and non-equality"; this module
//! is that view, made executable. It is the bridge between the Theorem 5.6
//! reduction (which produces algebra expressions) and the containment
//! procedure of Lemma 5.13 (which consumes positive queries).
//!
//! The translation is standard:
//!
//! * a base or parameter relation becomes a single atom over fresh
//!   variables;
//! * union concatenates disjunct sets (schemes agree positionally);
//! * Cartesian product pairs disjuncts with disjoint variables;
//! * `σ_{A=B}` unifies the two column variables in every disjunct
//!   (dropping disjuncts where a non-equality collapses);
//! * `σ_{A≠B}` records a non-equality (dropping disjuncts where both
//!   columns are already the same variable);
//! * projection restricts the column list (existential variables remain);
//! * renaming is a no-op on the query structure;
//! * natural and theta joins desugar to product plus selections.

use std::collections::{BTreeMap, BTreeSet};

use receivers_objectbase::ClassId;
use receivers_relalg::deps::AtomRel;
use receivers_relalg::{Expr, RelSchema};

use crate::error::{CqError, Result};
use crate::query::{Atom, ConjunctiveQuery, PositiveQuery, Var};
use crate::schema_ctx::SchemaCtx;

/// A disjunct under construction: a conjunctive query whose "interface" is
/// the `columns` vector, aligned with the node's relation scheme.
#[derive(Debug, Clone)]
struct PreCq {
    domains: Vec<ClassId>,
    atoms: BTreeSet<Atom>,
    neqs: BTreeSet<(Var, Var)>,
    columns: Vec<Var>,
}

impl PreCq {
    fn leaf(rel: AtomRel, scheme: &RelSchema) -> Self {
        let domains: Vec<ClassId> = scheme.columns().iter().map(|(_, d)| *d).collect();
        let vars: Vec<Var> = (0..domains.len() as u32).map(Var).collect();
        let mut atoms = BTreeSet::new();
        atoms.insert(Atom {
            rel,
            args: vars.clone(),
        });
        Self {
            domains,
            atoms,
            neqs: BTreeSet::new(),
            columns: vars,
        }
    }

    /// Substitute `from ↦ to`; `None` when a non-equality collapses.
    fn unify(mut self, a: Var, b: Var) -> Option<Self> {
        if a == b {
            return Some(self);
        }
        let (keep, drop) = if a < b { (a, b) } else { (b, a) };
        let get = |v: Var| if v == drop { keep } else { v };
        let mut neqs = BTreeSet::new();
        for (x, y) in std::mem::take(&mut self.neqs) {
            let (x, y) = (get(x), get(y));
            if x == y {
                return None;
            }
            neqs.insert(if x < y { (x, y) } else { (y, x) });
        }
        self.neqs = neqs;
        self.atoms = std::mem::take(&mut self.atoms)
            .into_iter()
            .map(|at| Atom {
                rel: at.rel,
                args: at.args.into_iter().map(get).collect(),
            })
            .collect();
        for c in &mut self.columns {
            *c = get(*c);
        }
        Some(self)
    }

    /// Add a non-equality; `None` when the columns are already identical.
    fn add_neq(mut self, a: Var, b: Var) -> Option<Self> {
        if a == b {
            return None;
        }
        self.neqs.insert(if a < b { (a, b) } else { (b, a) });
        Some(self)
    }

    /// Merge another disjunct's variables after this one's (for products
    /// and joins), returning the shifted copy of `other`.
    fn absorb(&mut self, other: &PreCq) -> PreCq {
        let offset = self.domains.len() as u32;
        self.domains.extend(other.domains.iter().copied());
        let shift = |v: Var| Var(v.0 + offset);
        let shifted = PreCq {
            domains: Vec::new(),
            atoms: other
                .atoms
                .iter()
                .map(|at| Atom {
                    rel: at.rel.clone(),
                    args: at.args.iter().map(|&v| shift(v)).collect(),
                })
                .collect(),
            neqs: other
                .neqs
                .iter()
                .map(|&(a, b)| (shift(a), shift(b)))
                .collect(),
            columns: other.columns.iter().map(|&v| shift(v)).collect(),
        };
        self.atoms.extend(shifted.atoms.iter().cloned());
        self.neqs.extend(shifted.neqs.iter().copied());
        shifted
    }

    fn into_cq(self) -> ConjunctiveQuery {
        ConjunctiveQuery::from_parts(self.domains, self.columns.clone(), self.atoms, self.neqs)
            .substitute(&BTreeMap::new())
            .expect("empty substitution cannot collapse a non-equality")
    }
}

/// Compile a positive algebra expression into an equivalent positive
/// query. Errors with [`CqError::NotPositive`] on difference.
pub fn compile_positive(expr: &Expr, ctx: &SchemaCtx) -> Result<PositiveQuery> {
    // The one full inference validates the whole tree; `go` then threads
    // each node's scheme bottom-up instead of re-inferring every subtree
    // (which made compilation quadratic in the expression size).
    let scheme = ctx.infer(expr)?;
    let (disjuncts, _) = go(expr, ctx)?;
    let summary_domains: Vec<ClassId> = scheme.columns().iter().map(|(_, d)| *d).collect();
    let mut cqs: Vec<ConjunctiveQuery> = Vec::with_capacity(disjuncts.len());
    let mut seen = BTreeSet::new();
    for d in disjuncts {
        let cq = d.into_cq();
        if seen.insert(cq.clone()) {
            cqs.push(cq);
        }
    }
    PositiveQuery::new(summary_domains, cqs)
}

/// The disjuncts of `expr` and its scheme, computed in one bottom-up
/// pass with the same scheme operations as [`SchemaCtx::infer`].
fn go(expr: &Expr, ctx: &SchemaCtx) -> Result<(Vec<PreCq>, RelSchema)> {
    Ok(match expr {
        Expr::Base(r) => {
            let rel = AtomRel::Base(*r);
            let scheme = ctx.rel_schema(&rel)?;
            (vec![PreCq::leaf(rel, &scheme)], scheme)
        }
        Expr::Param(p) => {
            let rel = AtomRel::Param(p.clone());
            let scheme = ctx.rel_schema(&rel)?;
            (vec![PreCq::leaf(rel, &scheme)], scheme)
        }
        Expr::Union(l, r) => {
            let (mut out, scheme) = go(l, ctx)?;
            out.extend(go(r, ctx)?.0);
            (out, scheme)
        }
        Expr::Diff(_, _) => return Err(CqError::NotPositive),
        Expr::Product(l, r) => {
            let (ls, lscheme) = go(l, ctx)?;
            let (rs, rscheme) = go(r, ctx)?;
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for lcq in &ls {
                for rcq in &rs {
                    let mut merged = lcq.clone();
                    let shifted = merged.absorb(rcq);
                    merged.columns.extend(shifted.columns.iter().copied());
                    out.push(merged);
                }
            }
            (out, lscheme.product(&rscheme)?)
        }
        Expr::SelectEq(e, a, b) => {
            let (ds, scheme) = go(e, ctx)?;
            let (i, j) = (scheme.position(a)?, scheme.position(b)?);
            let out = ds
                .into_iter()
                .filter_map(|d| {
                    let (x, y) = (d.columns[i], d.columns[j]);
                    d.unify(x, y)
                })
                .collect();
            (out, scheme)
        }
        Expr::SelectNe(e, a, b) => {
            let (ds, scheme) = go(e, ctx)?;
            let (i, j) = (scheme.position(a)?, scheme.position(b)?);
            let out = ds
                .into_iter()
                .filter_map(|d| {
                    let (x, y) = (d.columns[i], d.columns[j]);
                    d.add_neq(x, y)
                })
                .collect();
            (out, scheme)
        }
        Expr::Project(e, attrs) => {
            let (ds, scheme) = go(e, ctx)?;
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| scheme.position(a).map_err(CqError::from))
                .collect::<Result<_>>()?;
            let out = ds
                .into_iter()
                .map(|mut d| {
                    d.columns = positions.iter().map(|&i| d.columns[i]).collect();
                    d
                })
                .collect();
            (out, scheme.project(attrs)?)
        }
        Expr::Rename(e, from, to) => {
            let (ds, scheme) = go(e, ctx)?;
            (ds, scheme.rename(from, to)?)
        }
        Expr::NatJoin(l, r) => {
            let (ls, lscheme) = go(l, ctx)?;
            let (rs, rscheme) = go(r, ctx)?;
            let common = lscheme.common_attrs(&rscheme)?;
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for lcq in &ls {
                'pair: for rcq in &rs {
                    let mut merged = lcq.clone();
                    let shifted = merged.absorb(rcq);
                    // Unify common columns.
                    let mut current = merged;
                    let mut right_cols = shifted.columns.clone();
                    for a in &common {
                        let li = lscheme.position(a)?;
                        let ri = rscheme.position(a)?;
                        let (x, y) = (current.columns[li], right_cols[ri]);
                        match current.unify(x, y) {
                            Some(next) => {
                                // The unification may have rewritten the
                                // right columns too; recompute them.
                                let (keep, drop) = if x < y { (x, y) } else { (y, x) };
                                for c in &mut right_cols {
                                    if *c == drop {
                                        *c = keep;
                                    }
                                }
                                current = next;
                            }
                            None => continue 'pair,
                        }
                    }
                    // Result columns: left scheme order, then right
                    // non-common.
                    let mut columns = current.columns.clone();
                    for (ri, (a, _)) in rscheme.columns().iter().enumerate() {
                        if !common.contains(a) {
                            columns.push(right_cols[ri]);
                        }
                    }
                    current.columns = columns;
                    out.push(current);
                }
            }
            (out, lscheme.natural_join(&rscheme)?)
        }
        Expr::ThetaJoin {
            left,
            right,
            on_left,
            on_right,
            eq,
        } => {
            let (ls, lscheme) = go(left, ctx)?;
            let (rs, rscheme) = go(right, ctx)?;
            let li = lscheme.position(on_left)?;
            let ri = rscheme.position(on_right)?;
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for lcq in &ls {
                for rcq in &rs {
                    let mut merged = lcq.clone();
                    let shifted = merged.absorb(rcq);
                    merged.columns.extend(shifted.columns.iter().copied());
                    let (x, y) = (merged.columns[li], merged.columns[lcq.columns.len() + ri]);
                    let next = if *eq {
                        merged.unify(x, y)
                    } else {
                        merged.add_neq(x, y)
                    };
                    if let Some(d) = next {
                        out.push(d);
                    }
                }
            }
            (out, lscheme.product(&rscheme)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, CanonicalDb};
    use receivers_objectbase::examples::{beer_schema, figure2};
    use receivers_objectbase::{Receiver, Signature};
    use receivers_relalg::database::Database;
    use receivers_relalg::eval::{eval as alg_eval, Bindings};
    use receivers_relalg::expr::RelName;
    use receivers_relalg::typecheck::update_params;

    /// Convert a relalg Database + receiver bindings into a CanonicalDb so
    /// compiled queries can be cross-checked against direct algebra
    /// evaluation.
    fn to_canonical(
        db: &Database,
        bindings: &[(&str, receivers_objectbase::Oid)],
        schema: &receivers_objectbase::Schema,
    ) -> CanonicalDb {
        let mut out = CanonicalDb::new();
        for c in schema.classes() {
            let rel = db.relation(RelName::Class(c)).unwrap();
            out.insert(AtomRel::Base(RelName::Class(c)), rel.tuple_set().clone());
        }
        for p in schema.properties() {
            let rel = db.relation(RelName::Prop(p)).unwrap();
            out.insert(AtomRel::Base(RelName::Prop(p)), rel.tuple_set().clone());
        }
        for (name, o) in bindings {
            let mut single = receivers_relalg::TupleSet::new(1);
            single.insert(&[*o]);
            out.insert(AtomRel::Param((*name).to_owned()), single);
        }
        out
    }

    /// Compile add_bar's expression and check it evaluates identically to
    /// the algebra evaluator on Figure 2.
    #[test]
    fn compiled_add_bar_matches_algebra_semantics() {
        let s = beer_schema();
        let (i, o) = figure2(&s);
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let ctx = SchemaCtx::new(std::sync::Arc::clone(&s.schema), update_params(&sig));
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .project(["frequents"])
            .union(Expr::arg(1));
        let pq = compile_positive(&e, &ctx).unwrap();
        assert_eq!(pq.disjuncts().len(), 2);

        let db = Database::from_instance(&i);
        let t = Receiver::new(vec![o.d1, o.bar3]);
        let alg = alg_eval(&e, &db, &Bindings::for_receiver(&t)).unwrap();
        let expected: BTreeSet<Vec<receivers_objectbase::Oid>> =
            alg.tuples().map(|t| t.to_vec()).collect();

        let canonical = to_canonical(&db, &[("self", o.d1), ("arg1", o.bar3)], &s.schema);
        let mut got = BTreeSet::new();
        for d in pq.disjuncts() {
            got.extend(evaluate(d, &canonical).iter().map(|t| t.to_vec()));
        }
        assert_eq!(got, expected);
    }

    /// delete_bar (Example 5.11) uses a non-equality; compiled form must
    /// carry it.
    #[test]
    fn compiled_delete_bar_has_neq() {
        let s = beer_schema();
        let sig = Signature::new(vec![s.drinker, s.bar]).unwrap();
        let ctx = SchemaCtx::new(std::sync::Arc::clone(&s.schema), update_params(&sig));
        let e = Expr::self_rel()
            .join_eq(Expr::prop(s.frequents), "self", "Drinker")
            .join_ne(Expr::arg(1), "frequents", "arg1")
            .project(["frequents"]);
        let pq = compile_positive(&e, &ctx).unwrap();
        assert_eq!(pq.disjuncts().len(), 1);
        assert_eq!(pq.disjuncts()[0].neqs().count(), 1);
    }

    /// Selections that contradict collapse disjuncts: σ_{a≠a} drops all.
    #[test]
    fn contradictory_selection_yields_empty_query() {
        let s = beer_schema();
        let ctx = SchemaCtx::new(
            std::sync::Arc::clone(&s.schema),
            receivers_relalg::typecheck::ParamSchemas::new(),
        );
        // σ_{Drinker≠Drinker2}(σ_{Drinker=Drinker2}(Df × ρ(Df))) = ∅
        let copy = Expr::prop(s.frequents)
            .rename("Drinker", "Drinker2")
            .rename("frequents", "frequents2");
        let e = Expr::prop(s.frequents)
            .product(copy)
            .select_eq("Drinker", "Drinker2")
            .select_ne("Drinker", "Drinker2");
        let pq = compile_positive(&e, &ctx).unwrap();
        assert!(pq.disjuncts().is_empty());
    }

    /// Difference is rejected.
    #[test]
    fn difference_is_not_positive() {
        let s = beer_schema();
        let ctx = SchemaCtx::new(
            std::sync::Arc::clone(&s.schema),
            receivers_relalg::typecheck::ParamSchemas::new(),
        );
        let e = Expr::class(s.bar).diff(Expr::class(s.bar));
        assert!(matches!(
            compile_positive(&e, &ctx),
            Err(CqError::NotPositive)
        ));
    }

    /// Natural join compiles to shared variables.
    #[test]
    fn natural_join_shares_variables() {
        let s = beer_schema();
        let ctx = SchemaCtx::new(
            std::sync::Arc::clone(&s.schema),
            receivers_relalg::typecheck::ParamSchemas::new(),
        );
        // frequents ⋈ ρ_{Bar→…}… : join frequents and serves on Bar via
        // rename to a shared attribute name.
        let serves_renamed = Expr::prop(s.serves).rename("Bar", "frequents");
        let e = Expr::prop(s.frequents).nat_join(serves_renamed);
        let pq = compile_positive(&e, &ctx).unwrap();
        assert_eq!(pq.disjuncts().len(), 1);
        let cq = &pq.disjuncts()[0];
        assert_eq!(cq.atom_count(), 2);
        // Variables: drinker, bar, beer = 3 (bar shared).
        assert_eq!(cq.var_count(), 3);
        assert_eq!(cq.summary().len(), 3);
    }
}
