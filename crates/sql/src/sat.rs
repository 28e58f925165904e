//! A decision procedure over the condition language: `satisfiable`,
//! `disjoint`, `implies`, and pairwise statement commutativity; and the
//! read checks on one statement behind sharding and stable guards
//! (`pinned_read_proof`, `stable_guard`).
//!
//! # The fragment and the model theory
//!
//! A [`Condition`] is a conjunction of atoms over one distinguished row
//! (the target-table row `x₀`): equalities `a = b`, memberships
//! `a IN TABLE T`, their set-level negations `a <> b` /
//! `a NOT IN TABLE T`, and `EXISTS (select)`. Under the evaluation
//! semantics of [`crate::eval`] a column reference denotes the *set* of
//! property successors (a singleton object for identity columns), `=`
//! means the two sets intersect, and `<>` means they are disjoint.
//!
//! The solver normalizes the positive atoms into a typed conjunctive
//! query over *row and value nodes* — congruence closure by union-find
//! merges nodes equated through identity columns — and keeps the
//! negative atoms **outside** the query as set-disjointness literals.
//! Because properties are multi-valued in the base model (footnote 1 of
//! the paper introduces single-valuedness only as an extension), the
//! canonical instance of the positive part under the identity valuation
//! is the *freest* model: a value lies in a column's set exactly when
//! some positive atom forces it there. Hence
//!
//! * the condition is **unsatisfiable** iff the positive part demands a
//!   class-incompatible identification, or some negative literal's two
//!   sides are forced to share a value (the shared value maps into every
//!   model by the canonical homomorphism, so the literal fails
//!   everywhere); and
//! * otherwise the canonical instance itself witnesses satisfiability.
//!
//! This makes `satisfiable` sound *and complete* for the fragment;
//! `disjoint(c₁, c₂)` is satisfiability of the conjunction sharing `x₀`,
//! and `implies(c₁, c₂)` reuses the Chandra–Merlin homomorphism test of
//! [`receivers_cq::hom`] on the positive parts (`c₁ ⊆ c₂` iff a
//! homomorphism `q₂ → q₁` fixes `x₀`) plus syntactic coverage of the
//! conclusion's negative literals. Verdicts degrade to `Unknown` only on
//! unresolved names or negative literals not anchored at `x₀`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use receivers_cq::{exists_homomorphism, ConjunctiveQuery, SchemaCtx};
use receivers_objectbase::{ClassId, PropId};
use receivers_relalg::deps::AtomRel;
use receivers_relalg::expr::RelName;
use receivers_relalg::typecheck::ParamSchemas;

use crate::ast::{ColumnRef, Condition, FromItem, Projection, Select, SqlStatement};
use crate::catalog::{Catalog, TableInfo};
use crate::compile::{compile, CompiledStatement};
use crate::footprint::{footprint, Write};
use crate::scope::{resolve, walk_condition, Bound, Column, Reference, Scope, Visitor};

/// A human-readable, atom-level justification of a verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Proof {
    /// One note per proof step, renderable as diagnostic notes.
    pub notes: Vec<String>,
}

impl Proof {
    /// Append a proof step (builder-style; also used by the planner
    /// passes of [`crate::plan`] when they attach proofs to stages).
    pub(crate) fn note(mut self, s: impl Into<String>) -> Self {
        self.notes.push(s.into());
        self
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

/// Verdict of [`Solver::satisfiable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Satisfiability {
    /// The canonical instance satisfies the condition.
    Satisfiable,
    /// No instance and row satisfy the condition.
    Unsatisfiable(Proof),
    /// The solver cannot decide (unresolved names, typically).
    Unknown(String),
}

/// Verdict of [`Solver::disjoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disjointness {
    /// No instance has a row satisfying both conditions.
    Disjoint(Proof),
    /// The canonical instance satisfies both conditions at once.
    Overlapping,
    /// The solver cannot decide.
    Unknown(String),
}

/// Verdict of [`Solver::implies`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Implication {
    /// Every row satisfying the premise satisfies the conclusion.
    Implies(Proof),
    /// The canonical model of the premise refutes the conclusion.
    NotImplied,
    /// The solver cannot decide.
    Unknown(String),
}

/// Verdict of [`Solver::commutes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Commutativity {
    /// Applying the two statements in either order yields the same
    /// instance.
    Commutes(Proof),
    /// No certificate found — the statements may or may not commute.
    Unknown(String),
}

/// A guard to compare: the (optional) condition of one statement plus the
/// cursor variable its column references may be qualified with.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardRef<'a> {
    /// The cursor variable acting as an alias for the target row.
    pub cursor_var: Option<&'a str>,
    /// The guard; `None` is the always-true guard.
    pub condition: Option<&'a Condition>,
}

impl<'a> GuardRef<'a> {
    /// The always-true guard (an unguarded statement).
    pub fn unguarded() -> Self {
        Self::default()
    }

    /// A guard without a cursor variable (set-oriented statements).
    pub fn of(condition: Option<&'a Condition>) -> Self {
        Self {
            cursor_var: None,
            condition,
        }
    }

    /// A cursor-body guard.
    pub fn in_cursor(var: &'a str, condition: Option<&'a Condition>) -> Self {
        Self {
            cursor_var: Some(var),
            condition,
        }
    }

    /// Extract the guard of any statement (its write-restricting
    /// condition), with the row named as [`SqlStatement::parts`] names
    /// it, for commutativity and dead-store reasoning.
    pub fn of_statement(stmt: &'a SqlStatement) -> Self {
        let (_, row, condition, _) = stmt.parts();
        Self::in_cursor(row, condition)
    }
}

/// The decision procedure, tied to one catalog.
pub struct Solver<'a> {
    catalog: &'a Catalog,
}

// ---------------------------------------------------------------------
// Normal form: typed node graph + out-of-query negative literals.
// ---------------------------------------------------------------------

/// One side of a negative literal, as a *forced-value set* expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum SetTerm {
    /// The singleton `{node}` (an identity column).
    Node(usize),
    /// The successors of `node` under a property (a data column).
    Image(usize, PropId),
    /// All values of the single data column of a table (`IN TABLE`).
    Members(PropId),
}

#[derive(Debug, Clone)]
struct NegLit {
    a: SetTerm,
    b: SetTerm,
    /// Display of the originating atom, for proofs.
    display: String,
}

/// A positive atom `Prop(src, dst)` with its provenance.
#[derive(Debug, Clone)]
struct Edge {
    prop: PropId,
    src: usize,
    dst: usize,
    /// Display of the originating atom, for proofs.
    why: String,
}

/// Congruence-closed normal form of a conjunction of conditions over one
/// shared target row (node `0`).
struct NormalForm {
    classes: Vec<ClassId>,
    parent: Vec<usize>,
    edges: Vec<Edge>,
    negs: Vec<NegLit>,
}

/// Normalization failure: a proper refutation or an honest shrug.
enum NormErr {
    Unsat(Proof),
    Unknown(String),
}

/// A resolved column reference: the row node plus the data property, or
/// `None` for the identity column.
#[derive(Debug, Clone, Copy)]
struct Term {
    node: usize,
    prop: Option<PropId>,
}

impl NormalForm {
    fn new(target_class: ClassId) -> Self {
        Self {
            classes: vec![target_class],
            parent: vec![0],
            edges: Vec::new(),
            negs: Vec::new(),
        }
    }

    fn fresh(&mut self, class: ClassId) -> usize {
        self.classes.push(class);
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&self, mut n: usize) -> usize {
        while self.parent[n] != n {
            n = self.parent[n];
        }
        n
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            debug_assert_eq!(self.classes[ra], self.classes[rb]);
            // Keep the smaller root so node 0 stays its own canonical
            // representative (`x₀` anchoring relies on it).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    /// The forced-value set of a term in the canonical instance, each
    /// value paired with the atom that forces it there.
    fn forced(&self, term: &SetTerm) -> BTreeMap<usize, String> {
        let mut out = BTreeMap::new();
        match *term {
            SetTerm::Node(n) => {
                out.insert(self.find(n), "it denotes the row object itself".to_owned());
            }
            SetTerm::Image(n, prop) => {
                let root = self.find(n);
                for e in &self.edges {
                    if e.prop == prop && self.find(e.src) == root {
                        out.entry(self.find(e.dst)).or_insert_with(|| e.why.clone());
                    }
                }
            }
            SetTerm::Members(prop) => {
                for e in &self.edges {
                    if e.prop == prop {
                        out.entry(self.find(e.dst)).or_insert_with(|| e.why.clone());
                    }
                }
            }
        }
        out
    }

    /// Check every negative literal against the canonical instance.
    fn check_negs(&self) -> Result<(), Proof> {
        for lit in &self.negs {
            let fa = self.forced(&lit.a);
            let fb = self.forced(&lit.b);
            if let Some((v, why_a)) = fa.iter().find(|(v, _)| fb.contains_key(*v)) {
                let why_b = &fb[v];
                let mut proof = Proof::default().note(format!(
                    "`{}` can never hold: both sides are forced to share a value",
                    lit.display
                ));
                proof = proof.note(format!("the left-hand set contains it because {why_a}"));
                proof = proof.note(format!("the right-hand set contains it because {why_b}"));
                return Err(proof);
            }
        }
        Ok(())
    }

    /// Compile the positive part to a typed conjunctive query with
    /// summary `(x₀)`. Every node carries its class-membership atom so
    /// the query stays safe even when `x₀` occurs in no property atom.
    fn to_cq(&self, ctx: &SchemaCtx) -> Result<ConjunctiveQuery, NormErr> {
        let mut b = ConjunctiveQuery::builder(ctx);
        let mut vars = BTreeMap::new();
        for n in 0..self.classes.len() {
            let root = self.find(n);
            vars.entry(root)
                .or_insert_with(|| b.var(self.classes[root]));
        }
        let err = |e: receivers_cq::CqError| NormErr::Unknown(format!("cq build failed: {e}"));
        for (&root, &v) in &vars {
            b.atom(AtomRel::Base(RelName::Class(self.classes[root])), vec![v])
                .map_err(err)?;
        }
        for e in &self.edges {
            b.atom(
                AtomRel::Base(RelName::Prop(e.prop)),
                vec![vars[&self.find(e.src)], vars[&self.find(e.dst)]],
            )
            .map_err(err)?;
        }
        b.summary(vec![vars[&self.find(0)]]);
        b.build().map_err(err)
    }

    /// A negative literal as an `x₀`-anchored shape, comparable across
    /// two conditions over the same target table. `None` when a side
    /// references an existential row other than `x₀`.
    fn anchored(&self, lit: &NegLit) -> Option<(CovTerm, CovTerm)> {
        let conv = |t: &SetTerm| match *t {
            SetTerm::Node(n) => (self.find(n) == 0).then_some(CovTerm::X0),
            SetTerm::Image(n, p) => (self.find(n) == 0).then_some(CovTerm::X0Image(p)),
            SetTerm::Members(p) => Some(CovTerm::Members(p)),
        };
        let (a, b) = (conv(&lit.a)?, conv(&lit.b)?);
        Some(if a <= b { (a, b) } else { (b, a) })
    }
}

/// An `x₀`-anchored negative-literal side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CovTerm {
    X0,
    X0Image(PropId),
    Members(PropId),
}

// ---------------------------------------------------------------------
// The normalizer: conditions → normal form, resolving names by
// `crate::scope`'s rule over the target row and the `FROM` rows.
// ---------------------------------------------------------------------

struct Normalizer<'a> {
    catalog: &'a Catalog,
    outer: &'a TableInfo,
    cursor_var: Option<&'a str>,
}

/// A scope binding and the normal-form node of its row.
struct NodeScope<'c> {
    bound: Bound<'c>,
    node: usize,
}

impl Scope for NodeScope<'_> {
    fn alias(&self) -> Option<&str> {
        self.bound.alias
    }

    fn table(&self) -> &TableInfo {
        self.bound.table
    }
}

type Scopes<'c> = Vec<NodeScope<'c>>;

impl<'a> Normalizer<'a> {
    /// The scope stack of the target row alone: node 0, named by the
    /// guard's row alias when it has one.
    fn row_scopes(&self) -> Scopes<'a> {
        vec![NodeScope {
            bound: Bound {
                alias: self.cursor_var,
                table: self.outer,
            },
            node: 0,
        }]
    }

    /// Resolve a column reference by [`crate::scope::resolve`].
    fn resolve(&self, colref: &crate::ast::ColumnRef, scopes: &Scopes) -> Result<Term, NormErr> {
        let r = resolve(colref, scopes).map_err(|e| NormErr::Unknown(e.to_string()))?;
        Ok(Term {
            node: scopes[r.scope].node,
            prop: match r.column {
                Column::Id => None,
                Column::Prop(p) => Some(p),
            },
        })
    }

    /// The class of the *values* a term can denote.
    fn term_class(&self, nf: &NormalForm, t: &Term) -> ClassId {
        match t.prop {
            None => nf.classes[t.node],
            Some(p) => self.catalog.schema.property(p).dst,
        }
    }

    fn describe_class(&self, c: ClassId) -> String {
        format!("`{}`", self.catalog.schema.class_name(c))
    }

    /// Conjoin a positive intersection atom `V(a) ∩ V(b) ≠ ∅` into the
    /// normal form: unify identities, or pin a shared value node.
    fn add_eq(&self, nf: &mut NormalForm, a: Term, b: Term, why: &str) -> Result<(), NormErr> {
        let (ca, cb) = (self.term_class(nf, &a), self.term_class(nf, &b));
        if ca != cb {
            return Err(NormErr::Unsat(Proof::default().note(format!(
                "`{why}` can never hold: the left side holds {} objects but the right side \
                 holds {} objects, and classes are disjoint",
                self.describe_class(ca),
                self.describe_class(cb)
            ))));
        }
        match (a.prop, b.prop) {
            (None, None) => nf.union(a.node, b.node),
            (None, Some(p)) => nf.edges.push(Edge {
                prop: p,
                src: b.node,
                dst: a.node,
                why: format!("`{why}` requires it"),
            }),
            (Some(p), None) => nf.edges.push(Edge {
                prop: p,
                src: a.node,
                dst: b.node,
                why: format!("`{why}` requires it"),
            }),
            (Some(pa), Some(pb)) => {
                let y = nf.fresh(ca);
                nf.edges.push(Edge {
                    prop: pa,
                    src: a.node,
                    dst: y,
                    why: format!("`{why}` requires a shared value"),
                });
                nf.edges.push(Edge {
                    prop: pb,
                    src: b.node,
                    dst: y,
                    why: format!("`{why}` requires a shared value"),
                });
            }
        }
        Ok(())
    }

    fn set_term(&self, t: Term) -> SetTerm {
        match t.prop {
            None => SetTerm::Node(t.node),
            Some(p) => SetTerm::Image(t.node, p),
        }
    }

    fn conjoin<'c>(
        &self,
        nf: &mut NormalForm,
        cond: &'c Condition,
        scopes: &mut Scopes<'c>,
    ) -> Result<(), NormErr>
    where
        'a: 'c,
    {
        match cond {
            Condition::And(a, b) => {
                self.conjoin(nf, a, scopes)?;
                self.conjoin(nf, b, scopes)
            }
            Condition::Eq(a, b) => {
                let (ta, tb) = (self.resolve(a, scopes)?, self.resolve(b, scopes)?);
                self.add_eq(nf, ta, tb, &format!("{a} = {b}"))
            }
            Condition::NotEq(a, b) => {
                let (ta, tb) = (self.resolve(a, scopes)?, self.resolve(b, scopes)?);
                if self.term_class(nf, &ta) != self.term_class(nf, &tb) {
                    return Ok(()); // disjoint classes: trivially true
                }
                nf.negs.push(NegLit {
                    a: self.set_term(ta),
                    b: self.set_term(tb),
                    display: format!("{a} <> {b}"),
                });
                Ok(())
            }
            Condition::InTable(c, table) => {
                let (tinfo, prop) = self
                    .catalog
                    .single_column(table)
                    .map_err(|e| NormErr::Unknown(e.to_string()))?;
                let tinfo = tinfo.clone();
                let tc = self.resolve(c, scopes)?;
                let member = nf.fresh(tinfo.class);
                let member_term = Term {
                    node: member,
                    prop: Some(prop),
                };
                self.add_eq(nf, tc, member_term, &format!("{c} IN TABLE {table}"))
            }
            Condition::NotInTable(c, table) => {
                let (_tinfo, prop) = self
                    .catalog
                    .single_column(table)
                    .map_err(|e| NormErr::Unknown(e.to_string()))?;
                let tc = self.resolve(c, scopes)?;
                if self.term_class(nf, &tc) != self.catalog.schema.property(prop).dst {
                    return Ok(()); // disjoint classes: trivially true
                }
                nf.negs.push(NegLit {
                    a: self.set_term(tc),
                    b: SetTerm::Members(prop),
                    display: format!("{c} NOT IN TABLE {table}"),
                });
                Ok(())
            }
            Condition::Exists(select) => self.exists(nf, select, scopes),
        }
    }

    /// Flatten `EXISTS (select)` the way `eval` evaluates it: fresh row
    /// nodes for the `FROM` items, the `WHERE` conjoined, and — when the
    /// projection is a data column — a value-existence atom (a row whose
    /// projected column is empty contributes nothing to the result).
    fn exists<'c>(
        &self,
        nf: &mut NormalForm,
        select: &'c Select,
        scopes: &mut Scopes<'c>,
    ) -> Result<(), NormErr>
    where
        'a: 'c,
    {
        let depth = scopes.len();
        for item in &select.from {
            let table = self
                .catalog
                .lookup(&item.table)
                .map_err(|e| NormErr::Unknown(e.to_string()))?;
            let node = nf.fresh(table.class);
            scopes.push(NodeScope {
                bound: Bound {
                    alias: Some(item.name()),
                    table,
                },
                node,
            });
        }
        let mut result = Ok(());
        if let Some(w) = &select.where_clause {
            result = self.conjoin(nf, w, scopes);
        }
        if result.is_ok() {
            if let Projection::Column(c) = &select.projection {
                match self.resolve(c, scopes) {
                    Ok(Term {
                        node,
                        prop: Some(p),
                    }) => {
                        let y = nf.fresh(self.catalog.schema.property(p).dst);
                        nf.edges.push(Edge {
                            prop: p,
                            src: node,
                            dst: y,
                            why: format!("the subquery projects `{c}`"),
                        });
                    }
                    Ok(Term { prop: None, .. }) => {} // identity: row existence suffices
                    Err(e) => result = Err(e),
                }
            }
        }
        scopes.truncate(depth);
        result
    }
}

impl<'a> Solver<'a> {
    /// A solver over one catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    fn normalize_into(
        &self,
        nf: &mut NormalForm,
        table: &TableInfo,
        guard: GuardRef<'_>,
    ) -> Result<(), NormErr> {
        let Some(cond) = guard.condition else {
            return Ok(()); // the always-true guard adds nothing
        };
        let n = Normalizer {
            catalog: self.catalog,
            outer: table,
            cursor_var: guard.cursor_var,
        };
        n.conjoin(nf, cond, &mut n.row_scopes())
    }

    fn normal_form(&self, table: &str, guards: &[GuardRef<'_>]) -> Result<NormalForm, NormErr> {
        let info = self
            .catalog
            .lookup(table)
            .map_err(|e| NormErr::Unknown(e.to_string()))?
            .clone();
        let mut nf = NormalForm::new(info.class);
        for g in guards {
            self.normalize_into(&mut nf, &info, *g)?;
        }
        Ok(nf)
    }

    /// Is some row of `table` in some instance capable of satisfying the
    /// condition? Complete for the condition fragment: `Unsatisfiable`
    /// comes with an atom-level proof, `Satisfiable` is witnessed by the
    /// canonical instance, and `Unknown` arises only from unresolved
    /// names.
    pub fn satisfiable(&self, table: &str, guard: GuardRef<'_>) -> Satisfiability {
        match self.normal_form(table, &[guard]) {
            Err(NormErr::Unsat(p)) => Satisfiability::Unsatisfiable(p),
            Err(NormErr::Unknown(r)) => Satisfiability::Unknown(r),
            Ok(nf) => match nf.check_negs() {
                Err(p) => Satisfiability::Unsatisfiable(p),
                Ok(()) => Satisfiability::Satisfiable,
            },
        }
    }

    /// Can any single row of `table` satisfy both guards at once? `None`
    /// guards mean *true*, so an unguarded side is disjoint from the
    /// other only if the other is itself unsatisfiable.
    pub fn disjoint(&self, table: &str, a: GuardRef<'_>, b: GuardRef<'_>) -> Disjointness {
        match self.normal_form(table, &[a, b]) {
            Err(NormErr::Unsat(p)) => {
                Disjointness::Disjoint(p.note("no row satisfies both conditions at once"))
            }
            Err(NormErr::Unknown(r)) => Disjointness::Unknown(r),
            Ok(nf) => match nf.check_negs() {
                Err(p) => {
                    Disjointness::Disjoint(p.note("no row satisfies both conditions at once"))
                }
                Ok(()) => Disjointness::Overlapping,
            },
        }
    }

    /// Does the premise guard imply the conclusion guard, row for row?
    ///
    /// Positive parts are compared by the Chandra–Merlin test of
    /// [`receivers_cq::hom`]: `premise ⊆ conclusion` iff a homomorphism
    /// maps the conclusion's query into the premise's, fixing `x₀`. The
    /// conclusion's negative literals must additionally appear among the
    /// premise's, compared as `x₀`-anchored shapes; literals anchored at
    /// existential rows yield `Unknown`.
    pub fn implies(
        &self,
        table: &str,
        premise: GuardRef<'_>,
        conclusion: GuardRef<'_>,
    ) -> Implication {
        let nf1 = match self.normal_form(table, &[premise]) {
            Err(NormErr::Unsat(p)) => {
                return Implication::Implies(p.note("the premise is itself unsatisfiable"))
            }
            Err(NormErr::Unknown(r)) => return Implication::Unknown(r),
            Ok(nf) => nf,
        };
        if let Err(p) = nf1.check_negs() {
            return Implication::Implies(p.note("the premise is itself unsatisfiable"));
        }
        let nf2 = match self.normal_form(table, &[conclusion]) {
            Err(NormErr::Unsat(_)) => return Implication::NotImplied,
            Err(NormErr::Unknown(r)) => return Implication::Unknown(r),
            Ok(nf) => nf,
        };
        let ctx = SchemaCtx::new(
            std::sync::Arc::clone(&self.catalog.schema),
            ParamSchemas::new(),
        );
        let (q1, q2) = match (nf1.to_cq(&ctx), nf2.to_cq(&ctx)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(NormErr::Unknown(r)), _) | (_, Err(NormErr::Unknown(r))) => {
                return Implication::Unknown(r)
            }
            (Err(NormErr::Unsat(_)), _) | (_, Err(NormErr::Unsat(_))) => {
                unreachable!("to_cq never refutes")
            }
        };
        // q1 ⊆ q2 iff ψ: q2 → q1 with ψ(x₀) = x₀ (summaries are (x₀)).
        if !exists_homomorphism(&q2, &q1) {
            // The canonical instance of the premise — which satisfies the
            // premise's negative literals, checked above — refutes the
            // conclusion's positive part at x₀.
            return Implication::NotImplied;
        }
        let premise_lits: BTreeSet<_> = nf1.negs.iter().filter_map(|l| nf1.anchored(l)).collect();
        let mut proof = Proof::default().note(
            "the conclusion's positive atoms fold into the premise's \
             (Chandra–Merlin homomorphism fixing the target row)",
        );
        for lit in &nf2.negs {
            match nf2.anchored(lit) {
                Some(shape) if premise_lits.contains(&shape) => {
                    proof = proof.note(format!(
                        "the premise carries the negative atom `{}` verbatim",
                        lit.display
                    ));
                }
                _ => {
                    return Implication::Unknown(format!(
                        "negative atom `{}` of the conclusion is not syntactically \
                         covered by the premise",
                        lit.display
                    ))
                }
            }
        }
        Implication::Implies(proof)
    }

    /// A pairwise commutativity certificate: applying `s1` then `s2`
    /// yields the same instance as `s2` then `s1`, on every instance.
    ///
    /// Certified cases:
    ///
    /// * **Footprint disjointness** (Bernstein): neither statement reads
    ///   or writes what the other writes; deletes additionally demand the
    ///   two statements reference disjoint table sets (a delete changes
    ///   row sets, not just values).
    /// * **Same-property updates with provably disjoint guards**: both
    ///   write property `P`, neither reads `P` (guards included), and
    ///   [`Solver::disjoint`] proves no row passes both guards — so no
    ///   row is written twice and neither write feeds the other's reads.
    pub fn commutes(&self, s1: &SqlStatement, s2: &SqlStatement) -> Commutativity {
        let (fp1, fp2) = (footprint(s1, self.catalog), footprint(s2, self.catalog));
        let (Some(w1), Some(w2)) = (&fp1.write, &fp2.write) else {
            return Commutativity::Unknown("a statement's write target does not resolve".into());
        };
        if matches!(w1, Write::Delete { .. }) || matches!(w2, Write::Delete { .. }) {
            if fp1.tables.is_disjoint(&fp2.tables) {
                return Commutativity::Commutes(Proof::default().note(
                    "the statements reference disjoint table sets, so neither the deleted \
                     rows nor any read value can depend on the other statement",
                ));
            }
            return Commutativity::Unknown(
                "a delete shares tables with the other statement".into(),
            );
        }
        let (
            Write::Update {
                prop: p1,
                table: t1,
                ..
            },
            Write::Update {
                prop: p2,
                table: t2,
                ..
            },
        ) = (w1, w2)
        else {
            unreachable!("deletes handled above")
        };
        if p1 != p2 && !fp1.reads.contains(p2) && !fp2.reads.contains(p1) {
            return Commutativity::Commutes(Proof::default().note(format!(
                "write/read footprints are disjoint: `{}` and `{}` are distinct properties \
                 and neither statement reads the other's write",
                self.catalog.schema.prop_name(*p1),
                self.catalog.schema.prop_name(*p2)
            )));
        }
        if p1 == p2 && t1 == t2 && !fp1.reads.contains(p1) && !fp2.reads.contains(p1) {
            let (g1, g2) = (GuardRef::of_statement(s1), GuardRef::of_statement(s2));
            if let Disjointness::Disjoint(p) = self.disjoint(t1, g1, g2) {
                let mut proof = Proof::default().note(format!(
                    "both statements write `{}` but no row passes both guards, and neither \
                     statement reads the written property",
                    self.catalog.schema.prop_name(*p1)
                ));
                proof.notes.extend(p.notes);
                return Commutativity::Commutes(proof);
            }
        }
        Commutativity::Unknown("no footprint or guard-disjointness certificate applies".into())
    }

    /// Prove that every read of `prop` in an update statement is pinned
    /// to the receiver row itself (`x₀`): the value subquery and guard
    /// mention `prop` only through the target row, never through an
    /// existential row or an `IN TABLE` sweep. Such a read cannot observe
    /// another receiver's write, which is what lets a sharded plan
    /// discharge the read/write conflict on `prop` (see
    /// `receivers_core::shard`).
    ///
    /// Returns `None` for deletes, for statements whose reads fail to
    /// normalize, and when any `prop` read is not `x₀`-pinned.
    pub fn pinned_read_proof(&self, stmt: &SqlStatement, prop: PropId) -> Option<Proof> {
        self.pinned_reads(stmt, prop).ok()?;
        Some(Proof::default().note(format!(
            "every read of `{}` in this statement goes through the receiver row itself, \
             so no other receiver's write can reach it",
            self.catalog.schema.prop_name(prop)
        )))
    }

    /// Whether every read of `prop` in an update statement goes through
    /// the receiver row ([`Solver::pinned_read_proof`]): `Ok(true)` when
    /// it reads `prop` and every read is pinned, `Ok(false)` when it
    /// reads no `prop` at all, and `Err` with the read that is not
    /// pinned, or why the reads could not be normalized.
    fn pinned_reads(&self, stmt: &SqlStatement, prop: PropId) -> Result<bool, String> {
        let (table, var, guard, Some((_, select))) = stmt.parts() else {
            return Err("a delete has no value subquery".to_owned());
        };
        let info = self.catalog.lookup(table).map_err(|e| e.to_string())?;
        let mut nf = NormalForm::new(info.class);
        let n = Normalizer {
            catalog: self.catalog,
            outer: info,
            cursor_var: Some(var),
        };
        let mut scopes = n.row_scopes();
        guard
            .map_or(Ok(()), |g| n.conjoin(&mut nf, g, &mut scopes))
            .and_then(|()| n.exists(&mut nf, select, &mut scopes))
            .map_err(|e| match e {
                NormErr::Unsat(_) => "its guard and value subquery cannot hold together".to_owned(),
                NormErr::Unknown(why) => format!("its reads do not normalize: {why}"),
            })?;
        let elsewhere = || {
            format!(
                "reads {} through a row other than the receiver",
                self.catalog.column_name(prop)
            )
        };
        let mut reads = false;
        for e in nf.edges.iter().filter(|e| e.prop == prop) {
            if nf.find(e.src) != 0 {
                return Err(elsewhere());
            }
            reads = true;
        }
        for lit in &nf.negs {
            for t in [&lit.a, &lit.b] {
                match *t {
                    SetTerm::Image(node, p) if p == prop => {
                        if nf.find(node) != 0 {
                            return Err(elsewhere());
                        }
                        reads = true;
                    }
                    SetTerm::Members(p) if p == prop => return Err(elsewhere()),
                    _ => {}
                }
            }
        }
        Ok(reads)
    }

    /// The stability check on a cursor statement: whether no receiver's
    /// write can change what another receiver's guard or values read, so
    /// each receiver sees the pre-statement instance at its turn and the
    /// loop (`M_seq`, Def. 3.1) equals the guarded set statement.
    ///
    /// * An update of `P` is stable when every read of `P`, in the guard
    ///   and in the values, goes through the receiver's own row
    ///   ([`Solver::pinned_read_proof`]): only that receiver writes the
    ///   row, after reading it, and the write changes nothing else.
    /// * A delete from class `C` is stable when its guard reads neither
    ///   `C`'s membership (a `FROM` or `IN TABLE` table over `C`) nor a
    ///   property whose values lie in `C`, even on the receiver's own row:
    ///   deleting another receiver removes it and every edge at it, and
    ///   the edges left at the receiver's row point outside `C`.
    ///
    /// `Err` names the reads that refute stability.
    pub fn stable_guard(&self, stmt: &SqlStatement) -> Result<StableGuard, String> {
        let (table, var, guard, values) = stmt.parts();
        let info = self.catalog.lookup(table).map_err(|e| e.to_string())?;
        if let Some((column, _)) = values {
            let prop = info
                .column_prop(column)
                .ok_or_else(|| format!("`{column}` is not a data column of `{table}`"))?;
            return Ok(StableGuard::Pinned {
                prop,
                reads: self.pinned_reads(stmt, prop)?,
            });
        }
        let mut reads = DeleteReads {
            catalog: self.catalog,
            class: info.class,
            refusals: Vec::new(),
        };
        if let Some(g) = guard {
            let row = Bound {
                alias: Some(var),
                table: info,
            };
            walk_condition(g, Some(row), self.catalog, &mut reads);
        }
        if reads.refusals.is_empty() {
            Ok(StableGuard::Unreached { class: info.class })
        } else {
            Err(reads.refusals.join("; "))
        }
    }

    /// Compile a cursor update and certify it for sharded execution,
    /// discharging each footprint conflict backed by a
    /// [`pinned_read_proof`](Self::pinned_read_proof).
    ///
    /// The syntactic certificate of [`receivers_core::certify`] refuses
    /// any method that reads a property it writes; this is where the
    /// solver buys those conflicts back. Scenario (B)'s `Old = Salary`
    /// read goes through the receiver row only, so its `Salary` conflict
    /// discharges and the method shards; scenario (C) reads the
    /// manager's salary — a different row — so its conflict stands and
    /// the certificate correctly stays unsafe.
    ///
    /// Returns `None` for statements that are not cursor updates or do
    /// not compile to an algebraic method.
    pub fn certify_sharded(&self, stmt: &SqlStatement) -> Option<ShardedCertification> {
        let CompiledStatement::CursorUpdate(cu) = compile(stmt, self.catalog).ok()? else {
            return None;
        };
        let method = cu.to_algebraic().ok()?;
        let mut certificate = receivers_core::certify(&method);
        let mut proofs = Vec::new();
        for prop in certificate.undischarged().collect::<Vec<_>>() {
            if let Some(proof) = self.pinned_read_proof(stmt, prop) {
                certificate.discharge(prop);
                proofs.push((prop, proof));
            }
        }
        Some(ShardedCertification {
            method,
            certificate,
            proofs,
        })
    }
}

/// The result of [`Solver::certify_sharded`]: the compiled method, its
/// (possibly discharge-refined) shard certificate, and one proof per
/// discharged conflict.
#[derive(Debug)]
pub struct ShardedCertification {
    /// The compiled algebraic method.
    pub method: receivers_core::AlgebraicMethod,
    /// The shard certificate, conflicts discharged where proven.
    pub certificate: receivers_core::ShardCertificate,
    /// The self-pinned-reads proof behind each discharged conflict.
    pub proofs: Vec<(PropId, Proof)>,
}

/// Why a cursor statement is stable ([`Solver::stable_guard`]): no
/// receiver's write can reach what another receiver's guard or values
/// read, so the statement runs as its set statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableGuard {
    /// An update whose every read of the written property `prop` goes
    /// through the receiver's own row; `reads` is `false` when it reads
    /// no `prop` at all.
    Pinned {
        /// The written property.
        prop: PropId,
        /// Whether the statement reads `prop`.
        reads: bool,
    },
    /// A delete whose guard reads neither the deleted class's membership
    /// nor a property whose values lie in it.
    Unreached {
        /// The deleted class.
        class: ClassId,
    },
}

impl StableGuard {
    /// One line naming why the statement is stable.
    pub fn describe(&self, catalog: &Catalog) -> String {
        match *self {
            Self::Pinned { prop, reads: true } => format!(
                "reads of {} are pinned to the row",
                catalog.column_name(prop)
            ),
            Self::Pinned { prop, reads: false } => {
                format!(
                    "reads no {}, the column it writes",
                    catalog.column_name(prop)
                )
            }
            Self::Unreached { class } => {
                let class = catalog.schema.class_name(class);
                format!("reads neither {class} membership nor a column whose values lie in {class}")
            }
        }
    }
}

/// The delete half of [`Solver::stable_guard`]: the reads of a guard
/// that deleting another receiver of `class` can change, each named once.
struct DeleteReads<'c> {
    catalog: &'c Catalog,
    class: ClassId,
    refusals: Vec<String>,
}

impl DeleteReads<'_> {
    fn refuse(&mut self, why: String) {
        if !self.refusals.contains(&why) {
            self.refusals.push(why);
        }
    }

    /// Refuse a read of `prop` whose values lie in the deleted class.
    fn value_in_class(&mut self, prop: PropId) {
        if self.catalog.schema.property(prop).dst == self.class {
            let name = self.catalog.column_name(prop);
            self.refuse(format!(
                "reads {name}, whose values lie in the deleted class"
            ));
        }
    }

    /// Refuse a read of the deleted class's membership through `what`.
    fn membership(&mut self, what: String) {
        let class = self.catalog.schema.class_name(self.class);
        self.refuse(format!("reads {class} membership (`{what}`)"));
    }
}

impl Visitor for DeleteReads<'_> {
    fn scan(&mut self, item: &FromItem, table: crate::error::Result<&TableInfo>) {
        match table {
            Ok(t) if t.class == self.class => self.membership(match &item.alias {
                Some(alias) => format!("FROM {} {alias}", item.table),
                None => format!("FROM {}", item.table),
            }),
            Ok(_) => {}
            Err(e) => self.refuse(e.to_string()),
        }
    }

    fn column(&mut self, _: &ColumnRef, reference: crate::error::Result<Reference>) {
        match reference {
            Ok(Reference {
                column: Column::Prop(p),
                ..
            }) => self.value_in_class(p),
            Ok(_) => {}
            Err(e) => self.refuse(e.to_string()),
        }
    }

    fn in_table(
        &mut self,
        _: &ColumnRef,
        table: &str,
        column: crate::error::Result<(&TableInfo, PropId)>,
    ) {
        match column {
            Ok((t, _)) if t.class == self.class => self.membership(format!("IN TABLE {table}")),
            Ok((_, p)) => self.value_in_class(p),
            Err(e) => self.refuse(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::parser::parse;

    fn cond(text: &str) -> Condition {
        // Parse a condition by wrapping it in a delete statement.
        match parse(&format!("delete from Employee where {text}")).unwrap() {
            SqlStatement::Delete { condition, .. } => condition,
            _ => unreachable!(),
        }
    }

    fn solver_catalog() -> Catalog {
        employee_catalog().1
    }

    #[test]
    fn contradictory_identity_atoms_are_unsat() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let g = cond("Manager = EmpId and Manager <> EmpId");
        match s.satisfiable("Employee", GuardRef::of(Some(&g))) {
            Satisfiability::Unsatisfiable(p) => {
                assert!(p.notes[0].contains("Manager <> EmpId"), "{p}");
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn set_level_noteq_alone_is_satisfiable() {
        // `Salary <> Salary` holds on a row with no salary at all —
        // set-level negation, not tuple calculus.
        let c = solver_catalog();
        let s = Solver::new(&c);
        let g = cond("Salary <> Salary");
        assert_eq!(
            s.satisfiable("Employee", GuardRef::of(Some(&g))),
            Satisfiability::Satisfiable
        );
        // But a forced salary value breaks it.
        let g = cond("Salary in table Fire and Salary <> Salary");
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g))),
            Satisfiability::Unsatisfiable(_)
        ));
    }

    #[test]
    fn membership_and_its_negation_are_unsat() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let g = cond("Salary in table Fire and Salary not in table Fire");
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g))),
            Satisfiability::Unsatisfiable(_)
        ));
    }

    #[test]
    fn cross_class_equality_is_unsat_with_class_proof() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let g = cond("EmpId = Salary");
        match s.satisfiable("Employee", GuardRef::of(Some(&g))) {
            Satisfiability::Unsatisfiable(p) => {
                assert!(p.notes[0].contains("classes are disjoint"), "{p}");
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn unknown_column_degrades_to_unknown() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let g = cond("Bonus = Salary");
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g))),
            Satisfiability::Unknown(_)
        ));
    }

    #[test]
    fn complementary_memberships_are_disjoint() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let (g1, g2) = (
            cond("Salary in table Fire"),
            cond("Salary not in table Fire"),
        );
        assert!(matches!(
            s.disjoint("Employee", GuardRef::of(Some(&g1)), GuardRef::of(Some(&g2))),
            Disjointness::Disjoint(_)
        ));
        // Compatible guards overlap (canonical-model witness).
        let g3 = cond("Manager = EmpId");
        assert_eq!(
            s.disjoint("Employee", GuardRef::of(Some(&g1)), GuardRef::of(Some(&g3))),
            Disjointness::Overlapping
        );
        // The always-true guard overlaps everything satisfiable.
        assert_eq!(
            s.disjoint("Employee", GuardRef::unguarded(), GuardRef::of(Some(&g1))),
            Disjointness::Overlapping
        );
    }

    #[test]
    fn conjunction_implies_its_conjuncts_but_not_conversely() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let both = cond("Salary in table Fire and Manager = EmpId");
        let one = cond("Salary in table Fire");
        assert!(matches!(
            s.implies(
                "Employee",
                GuardRef::of(Some(&both)),
                GuardRef::of(Some(&one))
            ),
            Implication::Implies(_)
        ));
        assert_eq!(
            s.implies(
                "Employee",
                GuardRef::of(Some(&one)),
                GuardRef::of(Some(&both))
            ),
            Implication::NotImplied
        );
        // Everything implies the always-true guard.
        assert!(matches!(
            s.implies("Employee", GuardRef::of(Some(&one)), GuardRef::unguarded()),
            Implication::Implies(_)
        ));
    }

    #[test]
    fn negative_atoms_must_be_covered_for_implication() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let premise = cond("Manager <> EmpId and Salary in table Fire");
        let covered = cond("Manager <> EmpId");
        let uncovered = cond("Salary not in table Fire");
        assert!(matches!(
            s.implies(
                "Employee",
                GuardRef::of(Some(&premise)),
                GuardRef::of(Some(&covered))
            ),
            Implication::Implies(_)
        ));
        assert!(matches!(
            s.implies(
                "Employee",
                GuardRef::of(Some(&premise)),
                GuardRef::of(Some(&uncovered))
            ),
            Implication::Unknown(_)
        ));
    }

    #[test]
    fn disjoint_footprints_commute() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let s1 = parse("update Employee set Salary = (select New from NewSal where Old = Salary)")
            .unwrap();
        let s2 = parse("update Fire set Amount = (select Old from NewSal)").unwrap();
        assert!(matches!(s.commutes(&s1, &s2), Commutativity::Commutes(_)));
        // Reading the other's write breaks the certificate.
        let s3 =
            parse("update NewSal set Old = (select Amount from Fire where Amount in table Fire)")
                .unwrap();
        assert!(matches!(s.commutes(&s1, &s3), Commutativity::Unknown(_)));
    }

    #[test]
    fn same_property_updates_with_disjoint_guards_commute() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let s1 = parse(
            "update Employee set Manager = (select EmpId from Employee E2) \
             where Salary in table Fire",
        )
        .unwrap();
        let s2 = parse(
            "update Employee set Manager = (select EmpId from Employee E2) \
             where Salary not in table Fire",
        )
        .unwrap();
        assert!(matches!(s.commutes(&s1, &s2), Commutativity::Commutes(_)));
        // Overlapping guards: no certificate.
        let s3 = parse("update Employee set Manager = (select EmpId from Employee E2)").unwrap();
        assert!(matches!(s.commutes(&s1, &s3), Commutativity::Unknown(_)));
    }

    #[test]
    fn deletes_commute_only_across_disjoint_tables() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        let d = parse("delete from Fire where Amount in table Fire").unwrap();
        let u = parse("update Employee set Salary = (select New from NewSal where Old = Salary)")
            .unwrap();
        assert!(matches!(s.commutes(&d, &u), Commutativity::Commutes(_)));
        let d2 = parse("delete from Employee where Salary in table Fire").unwrap();
        assert!(matches!(s.commutes(&d2, &u), Commutativity::Unknown(_)));
    }

    #[test]
    fn statement_b_reads_are_self_pinned_but_statement_c_reads_are_not() {
        use crate::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C};
        let (es, c) = employee_catalog();
        let s = Solver::new(&c);
        let b = parse(CURSOR_UPDATE_B).unwrap();
        let ch = parse(CURSOR_UPDATE_C).unwrap();
        assert!(s.pinned_read_proof(&b, es.salary).is_some());
        assert!(s.pinned_read_proof(&ch, es.salary).is_none());
    }

    #[test]
    fn certify_sharded_discharges_b_but_not_c() {
        use crate::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C};
        let (es, c) = employee_catalog();
        let s = Solver::new(&c);

        let b = s.certify_sharded(&parse(CURSOR_UPDATE_B).unwrap()).unwrap();
        assert!(
            b.certificate.conflicts.contains(&es.salary),
            "B reads Salary, which it writes — a syntactic conflict"
        );
        assert!(b.certificate.shard_safe(), "…discharged by the solver");
        assert_eq!(b.proofs.len(), 1);
        assert_eq!(b.proofs[0].0, es.salary);

        let ch = s.certify_sharded(&parse(CURSOR_UPDATE_C).unwrap()).unwrap();
        assert!(
            !ch.certificate.shard_safe(),
            "C reads the manager's salary — not self-pinned, conflict stands"
        );
        assert!(ch.proofs.is_empty());

        // Non-cursor statements are out of scope.
        use crate::scenarios::UPDATE_A;
        assert!(s.certify_sharded(&parse(UPDATE_A).unwrap()).is_none());
    }

    #[test]
    fn exists_projection_forces_a_value() {
        let c = solver_catalog();
        let s = Solver::new(&c);
        // The unqualified `Salary` projection resolves outermost-first,
        // to the target row: `EXISTS` then forces a salary value on x₀,
        // contradicting `Salary <> Salary`.
        let g = cond("exists (select Salary from Employee E2) and Salary <> Salary");
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g))),
            Satisfiability::Unsatisfiable(_)
        ));
        // Qualified `E2.Salary` belongs to the existential row E2, which
        // stays distinct from x₀ — the conjunction is satisfiable.
        let g2 = cond(
            "exists (select E2.Salary from Employee E2 where E2.Manager = EmpId) \
             and Salary <> Salary",
        );
        assert_eq!(
            s.satisfiable("Employee", GuardRef::of(Some(&g2))),
            Satisfiability::Satisfiable
        );
        // But unifying E2 with x₀ through the identity column re-forces
        // the value: `E2.EmpId = EmpId` merges the rows.
        let g3 = cond(
            "exists (select E2.Salary from Employee E2 where E2.EmpId = EmpId) \
             and Salary <> Salary",
        );
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g3))),
            Satisfiability::Unsatisfiable(_)
        ));
        // Plain `Salary = Salary` forces a value too.
        let g4 = cond("Salary = Salary and Salary <> Salary");
        assert!(matches!(
            s.satisfiable("Employee", GuardRef::of(Some(&g4))),
            Satisfiability::Unsatisfiable(_)
        ));
    }
}
