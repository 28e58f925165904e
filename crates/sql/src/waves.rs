//! Order-dependent cursor updates in waves: the paper's `M_seq` (Def.
//! 3.1) from a few `par(E)` evaluations instead of one per receiver.
//!
//! A cursor update `P := E` that Theorem 5.12 refuses runs in key order:
//! each receiver's value is `E` on the instance the earlier receivers
//! left. Whether an earlier receiver's write can reach a later one's
//! value is a per-instance question (Lemma 3.3's pair test), and on one
//! instance it has a static answer. Take `E`'s join tree without its
//! leaves on `P` and project it onto `self` and the source attribute of
//! every `P` leaf: each `(t, o)` of that **read-anchor** query says that
//! a derivation of `t`'s value may read `o`'s `P` row. The anchor query
//! reads only relations the stage never writes, so one evaluation before
//! the stage holds at every step of the sequence.
//!
//! The key order is then cut into maximal **segments** in which no
//! receiver anchors at an earlier receiver of its own segment (its own
//! row does not count: only it writes that row, after reading it). Each
//! segment runs as one `par(E)` evaluation and one batch write. That is
//! exactly `M_seq`: a receiver's value can differ from its value at the
//! segment's start only through the `P` row of one of its anchors, and
//! the cut guarantees no earlier member of its segment has written one.
//!
//! A stage whose segments average fewer than [`MIN_SEGMENT_LEN`]
//! receivers runs the receiver loop instead, decided before any values
//! are evaluated. Plan time refuses waves, with the reason, when `E` is
//! not a join tree (products, natural and equality joins, equality
//! selections and renamings under one projection) or when a `P` leaf's
//! source is linked to `self` only through `P` itself.

use std::collections::{BTreeMap, BTreeSet};

use receivers_core::algebraic::try_apply_assignment_batch;
use receivers_core::AlgebraicMethod;
use receivers_objectbase::{
    undo_ops, ClassId, DeltaOp, InPlaceOutcome, Instance, Oid, PropId, Receiver, Schema,
};
use receivers_obs as obs;
use receivers_relalg::database::base_schema;
use receivers_relalg::par::par;
use receivers_relalg::view::DatabaseView;
use receivers_relalg::{infer_schema, Attr, Expr, RelName};

use crate::catalog::Catalog;
use crate::plan::par_pairs;

obs::counter!(C_WAVES, "sql.plan.waves");
obs::counter!(C_WAVE_FALLBACKS, "sql.plan.wave_fallbacks");

/// Receivers per segment, on average, below which a stage runs its
/// receiver loop: a segment's `par(E)` evaluation has a fixed cost the
/// loop does not pay (the `sequential/cursor_c` bench, EXPERIMENTS.md
/// P27).
pub(crate) const MIN_SEGMENT_LEN: usize = 2;

/// The anchor query's result attribute.
const ANCHOR: &str = "anchor#";

/// The wave plan of an algebraic cursor update `P := E`.
pub(crate) struct Waves {
    prop: PropId,
    /// `par(E)`: every receiver's values from one evaluation.
    values: Expr,
    /// `par` of the read-anchor query, pairs `(t, o)`; `None` when every
    /// read of `P` is the receiver's own row.
    anchors: Option<Expr>,
    /// The properties linking `self` to the anchors (EXPLAIN's account).
    through: Vec<PropId>,
}

/// One leaf of a join tree: `self` or a base relation, with the name
/// each of its attributes has at the top of the tree.
struct Leaf {
    rel: Expr,
    /// `(own attribute, name at the top)`, in the relation's column order.
    attrs: Vec<(Attr, Attr)>,
}

impl Leaf {
    /// The leaf as an expression with its top-level attribute names,
    /// renamed through names no relation has, so that a swap of two
    /// names renames cleanly.
    fn expr(&self) -> Expr {
        let moves: Vec<&(Attr, Attr)> = self.attrs.iter().filter(|(a, b)| a != b).collect();
        let mut e = self.rel.clone();
        for (k, (from, _)) in moves.iter().enumerate() {
            e = e.rename(from.clone(), format!("#{k}"));
        }
        for (k, (_, to)) in moves.iter().enumerate() {
            e = e.rename(format!("#{k}"), to.clone());
        }
        e
    }
}

/// A join tree flattened: its leaves, which share an attribute exactly
/// where the tree joins them naturally, and its equality conditions.
struct JoinTree {
    leaves: Vec<Leaf>,
    eqs: Vec<(Attr, Attr)>,
}

impl JoinTree {
    /// Flatten `e`, or name the operator that keeps it from being a join
    /// tree.
    fn of(e: &Expr, schema: &Schema) -> std::result::Result<Self, &'static str> {
        Ok(match e {
            Expr::Param(p) if p == "self" => JoinTree {
                leaves: vec![Leaf {
                    rel: e.clone(),
                    attrs: vec![("self".to_owned(), "self".to_owned())],
                }],
                eqs: Vec::new(),
            },
            Expr::Base(r) => JoinTree {
                leaves: vec![Leaf {
                    rel: e.clone(),
                    attrs: base_schema(schema, *r)
                        .attrs()
                        .map(|a| (a.clone(), a.clone()))
                        .collect(),
                }],
                eqs: Vec::new(),
            },
            Expr::Product(l, r) | Expr::NatJoin(l, r) => {
                Self::of(l, schema)?.join(Self::of(r, schema)?)
            }
            Expr::ThetaJoin {
                left,
                right,
                on_left,
                on_right,
                eq: true,
            } => {
                let mut t = Self::of(left, schema)?.join(Self::of(right, schema)?);
                t.eqs.push((on_left.clone(), on_right.clone()));
                t
            }
            Expr::SelectEq(e, a, b) => {
                let mut t = Self::of(e, schema)?;
                t.eqs.push((a.clone(), b.clone()));
                t
            }
            Expr::Rename(e, from, to) => {
                let mut t = Self::of(e, schema)?;
                let names = t
                    .leaves
                    .iter_mut()
                    .flat_map(|l| l.attrs.iter_mut().map(|(_, top)| top))
                    .chain(t.eqs.iter_mut().flat_map(|(a, b)| [a, b]));
                for name in names.filter(|n| **n == *from) {
                    name.clone_from(to);
                }
                t
            }
            Expr::Param(_) => return Err("a parameter other than self"),
            Expr::Union(..) => return Err("a union"),
            Expr::Diff(..) => return Err("a difference"),
            Expr::SelectNe(..) | Expr::ThetaJoin { .. } => return Err("a non-equality condition"),
            Expr::Project(..) => return Err("a projection below its top"),
        })
    }

    fn join(mut self, other: JoinTree) -> Self {
        self.leaves.extend(other.leaves);
        self.eqs.extend(other.eqs);
        self
    }
}

/// Equivalence classes of attributes under a set of equalities.
#[derive(Default)]
struct Classes {
    ids: BTreeMap<Attr, usize>,
    parent: Vec<usize>,
}

impl Classes {
    fn id(&mut self, a: &Attr) -> usize {
        if let Some(&id) = self.ids.get(a) {
            return id;
        }
        let id = self.parent.len();
        self.parent.push(id);
        self.ids.insert(a.clone(), id);
        id
    }

    fn find(&mut self, a: &Attr) -> usize {
        let mut k = self.id(a);
        while self.parent[k] != k {
            self.parent[k] = self.parent[self.parent[k]];
            k = self.parent[k];
        }
        k
    }

    fn union(&mut self, a: &Attr, b: &Attr) {
        let (x, y) = (self.find(a), self.find(b));
        self.parent[x] = y;
    }
}

/// A kept cursor update's wave plan, or why its receivers run one at a
/// time.
pub(crate) type WavePlan = std::result::Result<Waves, Refusal>;

/// Why an algebraic cursor stage's receivers run one at a time.
pub(crate) enum Refusal {
    /// The update expression is not a join tree: the operator that
    /// keeps it from being one.
    NotJoinTree(&'static str),
    /// A read of the written `prop` at the tree attribute `at` is linked
    /// to `self` only through `prop` itself, so it could be any row.
    Unanchored { prop: PropId, at: Attr },
    /// The method is not one statement, or a transform or type check of
    /// the plan failed.
    Error(String),
}

impl Refusal {
    /// One line for EXPLAIN, naming properties by their SQL columns.
    pub(crate) fn describe(&self, catalog: &Catalog) -> String {
        match self {
            Refusal::NotJoinTree(what) => {
                format!("its update expression is not a join tree: it has {what}")
            }
            Refusal::Unanchored { prop, at } => format!(
                "the read of {} at `{at}` is bound only through {} itself",
                catalog.column_name(*prop),
                column(catalog, *prop)
            ),
            Refusal::Error(e) => e.clone(),
        }
    }
}

/// A property's SQL column without its table.
fn column(catalog: &Catalog, prop: PropId) -> String {
    let name = catalog.column_name(prop);
    name.rsplit('.').next().unwrap_or_default().to_owned()
}

impl Waves {
    /// One line for EXPLAIN: what anchors the reads of the written
    /// column, by SQL column names.
    pub(crate) fn describe(&self, catalog: &Catalog) -> String {
        let read = catalog.column_name(self.prop);
        if self.anchors.is_none() {
            return format!("every read of {read} is the receiver's own row");
        }
        let through: Vec<String> = self.through.iter().map(|&p| column(catalog, p)).collect();
        format!(
            "reads of {read} are anchored through {}, which the stage does not write",
            through.join(", ")
        )
    }

    /// Plan waves for `method`, or say why its receivers must run one at
    /// a time.
    pub(crate) fn plan(method: &AlgebraicMethod) -> WavePlan {
        let [st] = method.statements() else {
            let n = method.statements().len();
            return Err(Refusal::Error(format!("the method has {n} statements")));
        };
        let schema = method.schema();
        let body = match &st.expr {
            Expr::Project(e, _) => e,
            e => e,
        };
        let tree = JoinTree::of(body, schema).map_err(Refusal::NotJoinTree)?;
        let mut classes = Classes::default();
        for (a, b) in &tree.eqs {
            classes.union(a, b);
        }
        let (written, rest): (Vec<&Leaf>, Vec<&Leaf>) = tree
            .leaves
            .iter()
            .partition(|l| l.rel == Expr::prop(st.property));

        // The leaves linked to `self` without `P`: joined through shared
        // attribute classes, starting at `self`'s.
        let row = classes.find(&"self".to_owned());
        let mut reached = BTreeSet::from([row]);
        let mut linked = vec![false; rest.len()];
        let mut grew = true;
        while grew {
            grew = false;
            for (k, leaf) in rest.iter().enumerate() {
                let ids: Vec<usize> = leaf.attrs.iter().map(|(_, a)| classes.find(a)).collect();
                if !linked[k] && ids.iter().any(|id| reached.contains(id)) {
                    linked[k] = true;
                    reached.extend(ids);
                    grew = true;
                }
            }
        }
        let linked: Vec<&Leaf> = rest
            .into_iter()
            .zip(linked)
            .filter_map(|(leaf, l)| l.then_some(leaf))
            .collect();
        let mut bound: BTreeMap<usize, BTreeSet<Attr>> = BTreeMap::new();
        for (_, a) in linked.iter().flat_map(|l| &l.attrs) {
            bound.entry(classes.find(a)).or_default().insert(a.clone());
        }

        let mut anchor_attrs = BTreeSet::new();
        for leaf in written {
            let src = &leaf.attrs[0].1;
            let class = classes.find(src);
            if class == row {
                continue; // the receiver's own row
            }
            let Some(attr) = bound.get(&class).and_then(|attrs| attrs.first()) else {
                return Err(Refusal::Unanchored {
                    prop: st.property,
                    at: src.clone(),
                });
            };
            anchor_attrs.insert(attr.clone());
        }
        let values = par(&st.expr).map_err(|e| Refusal::Error(e.to_string()))?;
        if anchor_attrs.is_empty() {
            return Ok(Waves {
                prop: st.property,
                values,
                anchors: None,
                through: Vec::new(),
            });
        }

        let mut joined = linked
            .iter()
            .map(|l| l.expr())
            .reduce(Expr::nat_join)
            .expect("`self` is linked");
        for attrs in bound.values() {
            let mut attrs = attrs.iter();
            let first = attrs.next().expect("a bound class has an attribute");
            for other in attrs {
                joined = joined.select_eq(first.clone(), other.clone());
            }
        }
        let anchors = anchor_attrs
            .iter()
            .map(|a| {
                joined
                    .clone()
                    .project(["self".to_owned(), a.clone()])
                    .rename(a.clone(), ANCHOR)
            })
            .reduce(Expr::union)
            .expect("an anchor attribute");
        let error = |e: receivers_relalg::RelAlgError| Refusal::Error(e.to_string());
        infer_schema(&anchors, schema, method.params()).map_err(error)?;
        let anchors = par(&anchors).map_err(error)?;
        let mut through: Vec<PropId> = linked
            .iter()
            .filter_map(|l| match l.rel {
                Expr::Base(RelName::Prop(p)) => Some(p),
                _ => None,
            })
            .collect();
        through.sort_unstable();
        through.dedup();
        Ok(Waves {
            prop: st.property,
            values,
            anchors: Some(anchors),
            through,
        })
    }

    /// The start of every segment of `rows` (ascending) under `anchors`
    /// (sorted `(t, o)` pairs): a receiver opens a new segment when it
    /// anchors at an earlier receiver of the current one.
    fn segments(rows: &[Oid], anchors: &[(Oid, Oid)]) -> Vec<usize> {
        let mut starts = vec![0];
        let mut rest = anchors;
        for (k, &t) in rows.iter().enumerate() {
            let skip = rest.partition_point(|&(r, _)| r < t);
            let n = rest[skip..].partition_point(|&(r, _)| r == t);
            let own = &rest[skip..skip + n];
            rest = &rest[skip + n..];
            let current = &rows[*starts.last().expect("one segment")..k];
            if own.iter().any(|&(_, o)| current.binary_search(&o).is_ok()) {
                starts.push(k);
            }
        }
        starts
    }

    /// Apply `method` to `order`, the stage's receivers (one object of
    /// `class` each, ascending), in key order: in waves when the segments
    /// are long enough, else through its receiver loop. Every failure is
    /// `Undefined`, with this call's writes undone and cut from `log`, as
    /// the loop leaves them. Returns the outcome and the waves run (0 for
    /// the loop).
    pub(crate) fn apply(
        &self,
        method: &AlgebraicMethod,
        class: ClassId,
        order: &[Receiver],
        instance: &mut Instance,
        view: &mut DatabaseView,
        log: &mut Vec<DeltaOp>,
    ) -> (InPlaceOutcome, u64) {
        let _span = obs::span("sql.plan.waves");
        let rows: Vec<Oid> = order.iter().map(Receiver::receiving_object).collect();
        // An anchor query that fails to evaluate leaves the loop to
        // report what the method does.
        let starts = match &self.anchors {
            None => Some(vec![0]),
            Some(query) => par_pairs(query, class, &rows, view.database())
                .ok()
                .map(|anchors| Self::segments(&rows, &anchors)),
        };
        let Some(starts) = starts.filter(|s| rows.len() >= MIN_SEGMENT_LEN * s.len()) else {
            C_WAVE_FALLBACKS.incr();
            return (method.apply_sequence_logged(instance, view, order, log), 0);
        };
        let start = log.len();
        let ends = starts.iter().skip(1).copied().chain([rows.len()]);
        for (from, to) in starts.iter().copied().zip(ends) {
            let segment = &rows[from..to];
            let written = par_pairs(&self.values, class, segment, view.database())
                .map_err(|e| e.to_string())
                .and_then(|pairs| {
                    let values: Vec<Oid> = pairs.iter().map(|&(_, v)| v).collect();
                    let mut assigns: Vec<(Oid, &[Oid])> = Vec::with_capacity(segment.len());
                    let mut at = 0;
                    for &t in segment {
                        let n = pairs[at..].partition_point(|&(r, _)| r == t);
                        assigns.push((t, &values[at..at + n]));
                        at += n;
                    }
                    try_apply_assignment_batch(instance, view, self.prop, &assigns, log)
                        .map_err(|e| e.to_string())
                });
            if let Err(why) = written {
                undo_ops(instance, view, &log[start..]);
                log.truncate(start);
                return (InPlaceOutcome::Undefined(why), 0);
            }
            C_WAVES.incr();
        }
        (InPlaceOutcome::Applied, starts.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::compile::{compile, CompiledStatement};
    use crate::parser::parse;
    use crate::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C};

    /// The wave plan of `text`, or its refusal, as EXPLAIN words them.
    fn plan(text: &str, catalog: &Catalog) -> std::result::Result<(Waves, String), String> {
        let Ok(CompiledStatement::CursorUpdate(cu)) = compile(&parse(text).unwrap(), catalog)
        else {
            panic!("{text} is a cursor update")
        };
        match Waves::plan(&cu.to_algebraic().unwrap()) {
            Ok(w) => {
                let why = w.describe(catalog);
                Ok((w, why))
            }
            Err(refusal) => Err(refusal.describe(catalog)),
        }
    }

    /// (C) reads its manager's salary: anchored through `Manager`. (B)
    /// reads only the receiver's own salary.
    #[test]
    fn anchors_follow_the_links_the_stage_does_not_write() {
        let (_, catalog) = employee_catalog();
        let (c, why) = plan(CURSOR_UPDATE_C, &catalog).unwrap();
        assert_eq!(
            why,
            "reads of Employee.Salary are anchored through Manager, which the stage does not write"
        );
        assert!(c.anchors.is_some());
        let (b, why) = plan(CURSOR_UPDATE_B, &catalog).unwrap();
        assert!(b.anchors.is_none());
        assert_eq!(
            why,
            "every read of Employee.Salary is the receiver's own row"
        );
    }

    /// A read of the written column at a row reached only through that
    /// column is refused: its anchors would be every object.
    #[test]
    fn a_source_bound_only_through_the_written_property_is_refused() {
        let (_, catalog) = employee_catalog();
        let why = plan(
            "for each t in Employee do update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = Manager)",
            &catalog,
        )
        .err()
        .expect("refused");
        assert_eq!(
            why,
            "the read of Employee.Manager at `E1` is bound only through Manager itself"
        );
    }

    /// Cuts fall where a receiver anchors at an earlier member of its
    /// segment; anchors at itself, at later receivers and at earlier
    /// segments do not cut.
    #[test]
    fn segments_cut_at_anchors_inside_the_segment() {
        let o = |k| Oid::new(ClassId(0), k);
        let rows: Vec<Oid> = (0..6).map(o).collect();
        // 1 → 1 (own), 2 → 5 (later), 3 → 1 (same segment: cut), 4 → 0
        // (an earlier segment), 5 → 4 (same segment: cut).
        let anchors = [(1, 1), (2, 5), (3, 1), (4, 0), (5, 4)].map(|(t, a)| (o(t), o(a)));
        assert_eq!(Waves::segments(&rows, &anchors), [0, 3, 5]);
        assert_eq!(Waves::segments(&rows, &[]), [0]);
    }
}
