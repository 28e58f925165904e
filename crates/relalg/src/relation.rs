//! Relations: sets of typed tuples, with the algebra operators implemented
//! directly as methods. The expression evaluator ([`mod@crate::eval`]) lowers
//! the AST onto these methods.
//!
//! Tuples live in a flat, canonically-sorted row arena ([`TupleSet`]):
//! one `Vec<Oid>` chunked by arity, tuples exposed as `&[Oid]` views. The
//! operators are batch passes over the sorted runs — linear merges for
//! union/difference/intersection, order-preserving scans for selection
//! and leading-prefix projection, and sorted probes for the joins — so
//! most operator outputs are born in canonical order and adopt their row
//! buffer without a sort.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use receivers_objectbase::Oid;

use crate::error::{RelAlgError, Result};
use crate::schema::{Attr, RelSchema};
use crate::tuples::{TupleSet, Tuples};

/// A finite relation over a [`RelSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: RelSchema,
    tuples: TupleSet,
}

/// Matches the `Ord` the legacy `(RelSchema, BTreeSet<Vec<Oid>>)` derive
/// produced: scheme first, then the lexicographic tuple-sequence order.
/// `BTreeMap<_, Relation>` iteration order and the lowest-index-wins
/// determinism in `receivers-rt` depend on this staying fixed.
impl Ord for Relation {
    fn cmp(&self, other: &Self) -> Ordering {
        self.schema
            .cmp(&other.schema)
            .then_with(|| self.tuples.cmp(&other.tuples))
    }
}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Matches the legacy derived `Hash` (scheme, then tuple set) so
/// `Database: Hash` observes identical hashes across the representation
/// change — pinned by the `relation_ops` differential suite.
impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.tuples.hash(state);
    }
}

impl Relation {
    /// The empty relation over `schema`.
    pub fn empty(schema: RelSchema) -> Self {
        let tuples = TupleSet::new(schema.arity());
        Self { schema, tuples }
    }

    /// A unary singleton `{o}` — how the special relations `self` and
    /// `arg_i` are interpreted (Definition 5.4(2)).
    pub fn singleton(attr: impl Into<Attr>, o: Oid) -> Self {
        Self {
            schema: RelSchema::unary(attr, o.class),
            tuples: TupleSet::from_rows(1, vec![o]),
        }
    }

    /// The 0-ary relation `{()}` ("true").
    pub fn nullary_true() -> Self {
        let mut tuples = TupleSet::new(0);
        tuples.insert(&[]);
        Self {
            schema: RelSchema::nullary(),
            tuples,
        }
    }

    /// The 0-ary relation `{}` ("false").
    pub fn nullary_false() -> Self {
        Self::empty(RelSchema::nullary())
    }

    /// The scheme.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The underlying flat tuple set.
    pub fn tuple_set(&self) -> &TupleSet {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples in canonical order, as `&[Oid]` views into the
    /// flat row buffer.
    pub fn tuples(&self) -> Tuples<'_> {
        self.tuples.iter()
    }

    /// Membership test.
    pub fn contains(&self, t: &[Oid]) -> bool {
        self.tuples.contains(t)
    }

    fn check_tuple(schema: &RelSchema, t: &[Oid]) -> Result<()> {
        if t.len() != schema.arity() {
            return Err(RelAlgError::IllTypedTuple(format!(
                "arity {} vs scheme arity {}",
                t.len(),
                schema.arity()
            )));
        }
        for (o, (a, d)) in t.iter().zip(schema.columns()) {
            if o.class != *d {
                return Err(RelAlgError::IllTypedTuple(format!(
                    "attribute `{a}` expects domain c{}, got value of class c{}",
                    d.0, o.class.0
                )));
            }
        }
        Ok(())
    }

    /// Insert a tuple after checking arity and domains.
    pub fn insert(&mut self, t: &[Oid]) -> Result<bool> {
        Self::check_tuple(&self.schema, t)?;
        Ok(self.tuples.insert(t))
    }

    /// Remove a tuple. Returns `true` when it was present. The
    /// touched-tuple primitive incremental views are maintained with.
    pub fn remove(&mut self, t: &[Oid]) -> bool {
        self.tuples.remove(t)
    }

    /// Apply a netted batch of point edits: insert every row of `adds`
    /// and remove every row of `dels` (flat buffers of `arity`-chunked
    /// rows, each strictly sorted, disjoint from one another, with no row
    /// of `adds` present and every row of `dels` present). Small batches
    /// pay one nearest-side memmove per edit; past that, one linear
    /// difference+union merge replaces the whole buffer — `O(len + k)`
    /// for the entire batch, the consolidation primitive behind
    /// [`DatabaseView`](crate::view::DatabaseView)'s per-transaction
    /// flush.
    pub fn apply_row_edits(&mut self, adds: &[Oid], dels: &[Oid]) -> Result<()> {
        let arity = self.schema.arity();
        debug_assert!(arity > 0, "batched edits target class/property relations");
        for t in adds.chunks(arity) {
            Self::check_tuple(&self.schema, t)?;
        }
        // Below the threshold, k nearest-side moves beat two full-buffer
        // merge passes (a point edit moves ~len/4 rows, a merge copies
        // ~2·len).
        if (adds.len() + dels.len()) / arity < 8 {
            for t in dels.chunks(arity) {
                let removed = self.tuples.remove(t);
                debug_assert!(removed, "netted delete of an absent tuple");
            }
            for t in adds.chunks(arity) {
                let inserted = self.tuples.insert(t);
                debug_assert!(inserted, "netted insert of a present tuple");
            }
            return Ok(());
        }
        let adds = TupleSet::from_sorted_rows(arity, adds.to_vec());
        let dels = TupleSet::from_sorted_rows(arity, dels.to_vec());
        self.tuples = self.tuples.difference(&dels).union(&adds);
        Ok(())
    }

    /// Build a relation from tuples, validating each. The rows are
    /// collected into one buffer and sorted once — `O(n log n)` instead of
    /// the `O(n log n)` *node-wise* inserts of the legacy `BTreeSet`.
    pub fn from_tuples<I>(schema: RelSchema, iter: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: AsRef<[Oid]>,
    {
        let arity = schema.arity();
        let mut rows = Vec::new();
        let mut count = 0usize;
        for t in iter {
            let t = t.as_ref();
            Self::check_tuple(&schema, t)?;
            rows.extend_from_slice(t);
            count += 1;
        }
        let tuples = if arity == 0 {
            let mut t = TupleSet::new(0);
            if count > 0 {
                t.insert(&[]);
            }
            t
        } else {
            TupleSet::from_rows(arity, rows)
        };
        Ok(Self { schema, tuples })
    }

    /// Adopt a strictly sorted row buffer whose tuples are already known
    /// to match `schema`'s domains (an instance's nodes and edges, typed
    /// on insertion). Both are checked in debug builds only.
    pub(crate) fn from_typed_sorted_rows(schema: RelSchema, rows: Vec<Oid>) -> Self {
        let tuples = TupleSet::from_sorted_rows(schema.arity(), rows);
        debug_assert!(tuples.iter().all(|t| Self::check_tuple(&schema, t).is_ok()));
        Self { schema, tuples }
    }

    /// Adopt an already-built [`TupleSet`], validating arity and domains.
    pub fn from_tuple_set(schema: RelSchema, tuples: TupleSet) -> Result<Self> {
        if tuples.arity() != schema.arity() {
            return Err(RelAlgError::IllTypedTuple(format!(
                "arity {} vs scheme arity {}",
                tuples.arity(),
                schema.arity()
            )));
        }
        for t in tuples.iter() {
            Self::check_tuple(&schema, t)?;
        }
        Ok(Self { schema, tuples })
    }

    fn check_union_compatible(&self, other: &Self, op: &'static str) -> Result<()> {
        if self.schema.union_compatible(other.schema()) {
            Ok(())
        } else {
            Err(RelAlgError::SchemaMismatch {
                op,
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            })
        }
    }

    /// Union (positional compatibility; left scheme's names win).
    /// Linear sort-merge over the two canonical runs.
    pub fn union(&self, other: &Self) -> Result<Self> {
        self.check_union_compatible(other, "union")?;
        Ok(Self {
            schema: self.schema.clone(),
            tuples: self.tuples.union(&other.tuples),
        })
    }

    /// Difference. Linear sort-merge.
    pub fn difference(&self, other: &Self) -> Result<Self> {
        self.check_union_compatible(other, "difference")?;
        Ok(Self {
            schema: self.schema.clone(),
            tuples: self.tuples.difference(&other.tuples),
        })
    }

    /// Intersection. Linear sort-merge.
    pub fn intersection(&self, other: &Self) -> Result<Self> {
        self.check_union_compatible(other, "intersection")?;
        Ok(Self {
            schema: self.schema.clone(),
            tuples: self.tuples.intersection(&other.tuples),
        })
    }

    /// Cartesian product (attribute names must be disjoint). The nested
    /// scan emits rows already in canonical order — same-width prefixes
    /// sort by the strictly increasing outer tuple first — so the output
    /// buffer is adopted without sorting.
    pub fn product(&self, other: &Self) -> Result<Self> {
        let schema = self.schema.product(other.schema())?;
        let arity = schema.arity();
        if arity == 0 {
            return Ok(Self {
                schema,
                tuples: nullary_set(!self.is_empty() && !other.is_empty()),
            });
        }
        let mut rows = Vec::with_capacity(self.len() * other.len() * arity);
        for t1 in self.tuples.iter() {
            for t2 in other.tuples.iter() {
                rows.extend_from_slice(t1);
                rows.extend_from_slice(t2);
            }
        }
        Ok(Self {
            schema,
            tuples: TupleSet::from_sorted_rows(arity, rows),
        })
    }

    /// Equality selection `σ_{A=B}`: one order-preserving filter pass.
    pub fn select_eq(&self, a: &str, b: &str) -> Result<Self> {
        let (i, j) = self.selection_positions(a, b)?;
        Ok(Self {
            schema: self.schema.clone(),
            tuples: self.filter_rows(|t| t[i] == t[j]),
        })
    }

    /// Non-equality selection `σ_{A≠B}` (the positive algebra's extra
    /// operator, Definition 5.2).
    pub fn select_ne(&self, a: &str, b: &str) -> Result<Self> {
        let (i, j) = self.selection_positions(a, b)?;
        Ok(Self {
            schema: self.schema.clone(),
            tuples: self.filter_rows(|t| t[i] != t[j]),
        })
    }

    fn filter_rows(&self, mut pred: impl FnMut(&[Oid]) -> bool) -> TupleSet {
        let arity = self.schema.arity();
        debug_assert!(arity > 0, "selections address named attributes");
        let mut rows = Vec::new();
        for t in self.tuples.iter() {
            if pred(t) {
                rows.extend_from_slice(t);
            }
        }
        TupleSet::from_sorted_rows(arity, rows)
    }

    fn selection_positions(&self, a: &str, b: &str) -> Result<(usize, usize)> {
        let i = self.schema.position(a)?;
        let j = self.schema.position(b)?;
        if self.schema.columns()[i].1 != self.schema.columns()[j].1 {
            return Err(RelAlgError::DomainMismatch {
                left: a.to_owned(),
                right: b.to_owned(),
            });
        }
        Ok((i, j))
    }

    /// Projection `π_{A1,…,Ap}` (possibly 0-ary: `π_∅(E)` is the emptiness
    /// guard used by the Theorem 5.6 construction). Projecting onto a
    /// leading-column prefix preserves canonical order, so that case is a
    /// single scan deduplicating adjacent rows; arbitrary column orders
    /// gather into a buffer that is sorted and deduplicated once.
    pub fn project(&self, keep: &[Attr]) -> Result<Self> {
        let schema = self.schema.project(keep)?;
        let positions: Vec<usize> = keep
            .iter()
            .map(|a| self.schema.position(a))
            .collect::<Result<_>>()?;
        let k = positions.len();
        if k == 0 {
            return Ok(Self {
                schema,
                tuples: nullary_set(!self.is_empty()),
            });
        }
        if positions.iter().enumerate().all(|(idx, &p)| idx == p) {
            let mut rows: Vec<Oid> = Vec::with_capacity(self.len() * k);
            for t in self.tuples.iter() {
                let p = &t[..k];
                if rows.is_empty() || &rows[rows.len() - k..] != p {
                    rows.extend_from_slice(p);
                }
            }
            return Ok(Self {
                schema,
                tuples: TupleSet::from_sorted_rows(k, rows),
            });
        }
        let mut rows = Vec::with_capacity(self.len() * k);
        for t in self.tuples.iter() {
            rows.extend(positions.iter().map(|&p| t[p]));
        }
        Ok(Self {
            schema,
            tuples: TupleSet::from_rows(k, rows),
        })
    }

    /// Renaming `ρ_{A→B}`.
    pub fn rename(&self, from: &str, to: &str) -> Result<Self> {
        Ok(Self {
            schema: self.schema.rename(from, to)?,
            tuples: self.tuples.clone(),
        })
    }

    /// Renaming `ρ_{A→B}` of an owned relation: only the scheme changes,
    /// so the rows are not copied.
    pub(crate) fn rename_in_place(&mut self, from: &str, to: &str) -> Result<()> {
        self.schema = self.schema.rename(from, to)?;
        Ok(())
    }

    /// Natural join on all common attributes.
    pub fn natural_join(&self, other: &Self) -> Result<Self> {
        self.natural_join_on(other, &[])
    }

    /// Theta join `⋈_{A θ B}`: Cartesian product followed by one equality
    /// or non-equality selection between a left and a right attribute.
    /// Equality theta joins are executed as sorted probes.
    pub fn theta_join(&self, other: &Self, a: &str, b: &str, eq: bool) -> Result<Self> {
        if eq && self.schema.contains(a) && other.schema.contains(b) {
            return self.product_on(other, &[(a.to_owned(), b.to_owned())]);
        }
        let prod = self.product(other)?;
        if eq {
            prod.select_eq(a, b)
        } else {
            prod.select_ne(a, b)
        }
    }

    /// Equi-join keeping **all** columns of both sides: equivalent to
    /// `σ_{a₁=b₁ ∧ …}(self × other)` where each `aᵢ` addresses this
    /// relation and each `bᵢ` the other, but evaluated as a sorted probe
    /// instead of materializing the product: `other`'s rows are probed by
    /// key (see `Probe`), and the output is born in canonical order, so its
    /// buffer is adopted without a final sort.
    pub fn product_on(&self, other: &Self, pairs: &[(Attr, Attr)]) -> Result<Self> {
        if pairs.is_empty() {
            return self.product(other);
        }
        let schema = self.schema.product(other.schema())?;
        let (left_pos, right_pos) = self.join_positions(other, pairs)?;
        let arity = schema.arity();
        let probe = Probe::new(&other.tuples, &right_pos);
        let mut rows = Vec::new();
        let mut key = Vec::with_capacity(left_pos.len());
        for t1 in self.tuples.iter() {
            key.clear();
            key.extend(left_pos.iter().map(|&i| t1[i]));
            probe.for_each_match(&other.tuples, &right_pos, &key, |t2| {
                rows.extend_from_slice(t1);
                rows.extend_from_slice(t2);
            });
        }
        Ok(Self {
            schema,
            tuples: TupleSet::from_sorted_rows(arity, rows),
        })
    }

    /// Natural join with additional equality constraints between left and
    /// right attributes, all evaluated as one sorted probe. The extra
    /// pairs' columns are both kept (unlike the merged common attributes).
    /// The evaluator's join graph ([`mod@crate::eval`]) runs every join step
    /// through this.
    pub fn natural_join_on(&self, other: &Self, extra: &[(Attr, Attr)]) -> Result<Self> {
        let common = self.schema.common_attrs(other.schema())?;
        let schema = self.schema.natural_join(other.schema())?;
        let common_pairs: Vec<(Attr, Attr)> =
            common.iter().map(|a| (a.clone(), a.clone())).collect();
        let all_pairs: Vec<(Attr, Attr)> =
            common_pairs.iter().chain(extra.iter()).cloned().collect();
        let (left_pos, right_pos) = self.join_positions(other, &all_pairs)?;
        let keep_pos: Vec<usize> = other
            .schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, (a, _))| !common.contains(a))
            .map(|(i, _)| i)
            .collect();
        let arity = self.schema.arity() + keep_pos.len();
        if arity == 0 {
            // Both sides 0-ary (so the key is empty): {()} iff both hold.
            return Ok(Self {
                schema,
                tuples: nullary_set(!self.is_empty() && !other.is_empty()),
            });
        }
        let probe = Probe::new(&other.tuples, &right_pos);
        let mut rows = Vec::new();
        let mut key = Vec::with_capacity(left_pos.len());
        for t1 in self.tuples.iter() {
            key.clear();
            key.extend(left_pos.iter().map(|&i| t1[i]));
            probe.for_each_match(&other.tuples, &right_pos, &key, |t2| {
                rows.extend_from_slice(t1);
                rows.extend(keep_pos.iter().map(|&i| t2[i]));
            });
        }
        // Dropping the merged common columns can break canonical order and
        // introduce duplicates; `from_rows` detects the already-sorted
        // common case and sorts/dedups otherwise.
        Ok(Self {
            schema,
            tuples: TupleSet::from_rows(arity, rows),
        })
    }

    fn join_positions(
        &self,
        other: &Self,
        pairs: &[(Attr, Attr)],
    ) -> Result<(Vec<usize>, Vec<usize>)> {
        let mut left_pos = Vec::with_capacity(pairs.len());
        let mut right_pos = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let i = self.schema.position(a)?;
            let j = other.schema.position(b)?;
            if self.schema.columns()[i].1 != other.schema.columns()[j].1 {
                return Err(RelAlgError::DomainMismatch {
                    left: a.clone(),
                    right: b.clone(),
                });
            }
            left_pos.push(i);
            right_pos.push(j);
        }
        Ok((left_pos, right_pos))
    }

    /// Collect the values in column `attr`.
    pub fn column(&self, attr: &str) -> Result<Vec<Oid>> {
        let i = self.schema.position(attr)?;
        Ok(self.tuples.iter().map(|t| t[i]).collect())
    }
}

/// The 0-ary tuple set: `{()}` when `present`, `{}` otherwise.
fn nullary_set(present: bool) -> TupleSet {
    let mut t = TupleSet::new(0);
    if present {
        t.insert(&[]);
    }
    t
}

/// How a join finds the rows of one side whose key columns equal a key.
///
/// When the key columns are exactly the leading-column prefix of the
/// scheme, the canonical row order doubles as the index: all matches for a
/// key form one contiguous run found by binary search, with no build cost
/// at all. For arbitrary key positions a `u32` permutation of the rows is
/// sorted by the key columns once and probed the same way. Both paths
/// yield a key's matches in canonical order.
enum Probe {
    /// The key is the leading prefix: probe the rows themselves.
    Prefix,
    /// The rows' indices sorted by the key columns ([`key_perm`]).
    Perm(Vec<u32>),
}

impl Probe {
    fn new(ts: &TupleSet, key_pos: &[usize]) -> Self {
        if key_pos.iter().enumerate().all(|(k, &j)| j == k) {
            Probe::Prefix
        } else {
            Probe::Perm(key_perm(ts, key_pos))
        }
    }

    /// Call `f` on every row of `ts` whose `key_pos` columns equal `key`.
    fn for_each_match<'t>(
        &self,
        ts: &'t TupleSet,
        key_pos: &[usize],
        key: &[Oid],
        mut f: impl FnMut(&'t [Oid]),
    ) {
        match self {
            Probe::Prefix => ts.range_iter(ts.prefix_bounds(key)).for_each(f),
            Probe::Perm(perm) => {
                for &p in &perm[perm_bounds(ts, perm, key_pos, key)] {
                    f(ts.get(p as usize));
                }
            }
        }
    }
}

/// A permutation of `ts`'s tuple indices sorted by the projection onto
/// `key_pos`, tie-broken by the full row: matches for one key value form a
/// contiguous, full-row-ordered run, so probing it emits join output in
/// canonical order.
fn key_perm(ts: &TupleSet, key_pos: &[usize]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..ts.len() as u32).collect();
    perm.sort_unstable_by(|&a, &b| {
        let (ta, tb) = (ts.get(a as usize), ts.get(b as usize));
        key_pos
            .iter()
            .map(|&p| ta[p].cmp(&tb[p]))
            .find(|c| c.is_ne())
            .unwrap_or_else(|| ta.cmp(tb))
    });
    perm
}

/// The run of `perm` whose tuples project onto exactly `key`.
fn perm_bounds(ts: &TupleSet, perm: &[u32], key_pos: &[usize], key: &[Oid]) -> Range<usize> {
    let proj_cmp = |idx: u32| -> Ordering {
        let t = ts.get(idx as usize);
        key_pos
            .iter()
            .zip(key)
            .map(|(&p, k)| t[p].cmp(k))
            .find(|c| c.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let start = perm.partition_point(|&i| proj_cmp(i) == Ordering::Less);
    let end = start + perm[start..].partition_point(|&i| proj_cmp(i) == Ordering::Equal);
    start..end
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {{", self.schema)?;
        for t in self.tuples.iter() {
            write!(f, "  (")?;
            for (i, o) in t.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o}")?;
            }
            writeln!(f, ")")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::ClassId;

    const A: ClassId = ClassId(0);
    const B: ClassId = ClassId(1);

    fn oa(i: u32) -> Oid {
        Oid::new(A, i)
    }
    fn ob(i: u32) -> Oid {
        Oid::new(B, i)
    }

    fn rel_ab(pairs: &[(u32, u32)]) -> Relation {
        let schema = RelSchema::new(vec![("x".into(), A), ("y".into(), B)]).unwrap();
        Relation::from_tuples(schema, pairs.iter().map(|&(a, b)| vec![oa(a), ob(b)])).unwrap()
    }

    #[test]
    fn insert_validates_types() {
        let mut r = Relation::empty(RelSchema::unary("x", A));
        assert!(r.insert(&[ob(0)]).is_err());
        assert!(r.insert(&[oa(0), oa(1)]).is_err());
        assert!(r.insert(&[oa(0)]).unwrap());
        assert!(!r.insert(&[oa(0)]).unwrap());
    }

    #[test]
    fn union_is_positional() {
        let r = Relation::singleton("f", ob(1));
        let s = Relation::singleton("arg1", ob(2));
        let u = r.union(&s).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.schema().attrs().next().unwrap(), "f");
        let t = Relation::singleton("z", oa(0));
        assert!(r.union(&t).is_err());
    }

    #[test]
    fn product_and_projection() {
        let r = Relation::singleton("x", oa(0));
        let s = rel_ab(&[(1, 1), (1, 2)]).rename("x", "u").unwrap();
        let p = r.product(&s).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.schema().arity(), 3);
        let proj = p.project(&["y".into()]).unwrap();
        assert_eq!(proj.len(), 2);
        let nothing = p.project(&[]).unwrap();
        assert_eq!(nothing, Relation::nullary_true());
    }

    #[test]
    fn nullary_guard_semantics() {
        let empty = rel_ab(&[]);
        let full = rel_ab(&[(0, 0)]);
        assert_eq!(empty.project(&[]).unwrap(), Relation::nullary_false());
        assert_eq!(full.project(&[]).unwrap(), Relation::nullary_true());
        // Guard: E × π∅(C) is E when C non-empty, ∅ otherwise.
        let guarded = full.product(&empty.project(&[]).unwrap()).unwrap();
        assert!(guarded.is_empty());
        let passed = full.product(&full.project(&[]).unwrap()).unwrap();
        assert_eq!(passed.len(), 1);
    }

    #[test]
    fn selections() {
        let schema = RelSchema::new(vec![("x".into(), A), ("z".into(), A)]).unwrap();
        let r = Relation::from_tuples(
            schema,
            [vec![oa(0), oa(0)], vec![oa(0), oa(1)], vec![oa(2), oa(2)]],
        )
        .unwrap();
        assert_eq!(r.select_eq("x", "z").unwrap().len(), 2);
        assert_eq!(r.select_ne("x", "z").unwrap().len(), 1);
        // Cross-domain comparison rejected.
        let rab = rel_ab(&[(0, 0)]);
        assert!(rab.select_eq("x", "y").is_err());
    }

    #[test]
    fn natural_join_matches_on_common_attrs() {
        let s1 = RelSchema::new(vec![("x".into(), A), ("y".into(), B)]).unwrap();
        let r = Relation::from_tuples(s1, [vec![oa(0), ob(0)], vec![oa(1), ob(1)]]).unwrap();
        let s2 = RelSchema::new(vec![("x".into(), A), ("z".into(), B)]).unwrap();
        let s = Relation::from_tuples(s2, [vec![oa(0), ob(5)]]).unwrap();
        let j = r.natural_join(&s).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.schema().attrs().collect::<Vec<_>>(), ["x", "y", "z"]);
        assert_eq!(j.tuples().next().unwrap(), &[oa(0), ob(0), ob(5)][..]);
    }

    #[test]
    fn natural_join_with_no_common_attrs_is_product() {
        let r = Relation::singleton("x", oa(0));
        let s = Relation::singleton("y", ob(0));
        assert_eq!(r.natural_join(&s).unwrap(), r.product(&s).unwrap());
    }

    #[test]
    fn remove_is_set_removal() {
        let mut r = rel_ab(&[(0, 0), (1, 1)]);
        assert!(r.remove(&[oa(0), ob(0)]));
        assert!(!r.remove(&[oa(0), ob(0)]));
        assert_eq!(r, rel_ab(&[(1, 1)]));
    }

    #[test]
    fn prefix_probe_matches_hash_join() {
        // Small left, large right with the join key in leading position:
        // takes the range-probe path. Compare against the product+select
        // definition it must be equivalent to.
        let left = Relation::from_tuples(
            RelSchema::unary("u", A),
            [vec![oa(1)], vec![oa(3)], vec![oa(u32::MAX)]],
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i % 5, i)).collect();
        let right = rel_ab(&pairs);
        let fast = left
            .product_on(&right, &[("u".into(), "x".into())])
            .unwrap();
        let slow = left.product(&right).unwrap().select_eq("u", "x").unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 16, "8 matches per present key");
    }

    #[test]
    fn permuted_probe_matches_product_select() {
        // Join key at a NON-leading position of the right scheme: takes
        // the permuted-probe path, which must agree with the
        // product+select definition and (operands flipped so the key is
        // leading again) with the prefix-probe path.
        let left = Relation::from_tuples(
            RelSchema::unary("u", B),
            [vec![ob(0)], vec![ob(2)], vec![ob(7)]],
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = (0..30).map(|i| (i, i % 4)).collect();
        let right = rel_ab(&pairs);
        let permuted = left
            .product_on(&right, &[("u".into(), "y".into())])
            .unwrap();
        let slow = left.product(&right).unwrap().select_eq("u", "y").unwrap();
        assert_eq!(permuted, slow);
        let flipped = right
            .product_on(&left, &[("y".into(), "u".into())])
            .unwrap();
        assert_eq!(permuted.len(), flipped.len());

        // Multi-column key in permuted order (right positions [1, 0]).
        let two = RelSchema::new(vec![("v".into(), B), ("w".into(), A)]).unwrap();
        let left2 = Relation::from_tuples(two, [vec![ob(1), oa(4)], vec![ob(3), oa(3)]]).unwrap();
        let fast2 = left2
            .product_on(
                &right,
                &[("v".into(), "y".into()), ("w".into(), "x".into())],
            )
            .unwrap();
        let slow2 = left2
            .product(&right)
            .unwrap()
            .select_eq("v", "y")
            .unwrap()
            .select_eq("w", "x")
            .unwrap();
        assert_eq!(fast2, slow2);
    }

    #[test]
    fn theta_join_eq_and_ne() {
        let r = Relation::singleton("x", oa(0));
        let s =
            Relation::from_tuples(RelSchema::unary("z", A), [vec![oa(0)], vec![oa(1)]]).unwrap();
        assert_eq!(r.theta_join(&s, "x", "z", true).unwrap().len(), 1);
        assert_eq!(r.theta_join(&s, "x", "z", false).unwrap().len(), 1);
    }
}
