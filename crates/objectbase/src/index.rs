//! Incrementally maintained adjacency indices over instance edges.
//!
//! [`EdgeIndex`] stores the edge set of a
//! [`PartialInstance`](crate::partial::PartialInstance) as two
//! synchronized views of the same edges:
//!
//! * **forward**: `(src, prop) → adj` of destinations — drives
//!   `successors` and, because [`Edge`]'s derived ordering is
//!   `(src, prop, dst)`-lexicographic, in-order traversal of the forward
//!   map reproduces the canonical edge order of a flat `BTreeSet<Edge>`
//!   exactly;
//! * **reverse**: `(dst, prop) → adj` of sources — drives predecessor
//!   lookups and the incident-edge sweep of cascading node removal.
//!
//! Next to them sits one edge count per property, which is all
//! [`EdgeIndex::properties`] needs. There is no per-property pair set:
//! [`EdgeIndex::labeled`] is a filtered scan of the forward view, and the
//! bulk consumers that want every property at once
//! ([`Database::from_instance`], restriction) make one canonical pass.
//!
//! ## Adjacency lists
//!
//! An `adj` is a strictly ascending `Vec<Oid>` of at most [`ADJ_BOUND`]
//! oids (1 KiB). Inserting past the last element — the order bulk
//! writes, snapshots and replayed logs arrive in — is a push. Past the
//! bound the list becomes a `BTreeSet<Oid>`, so a hub does not pay a
//! memmove of its whole list per insert (quadratic for descending
//! inserts); it turns back into a vector when it shrinks to half the
//! bound, so edits at the boundary cannot flip the representation on
//! every call. Two lists are equal when their *contents* are, whatever
//! their representation.
//!
//! Per-operation complexity (`K` = keys of a view, `d` = degree of the
//! touched list, `B` = [`ADJ_BOUND`], `E` = total edges):
//!
//! | operation                    | cost                        |
//! |------------------------------|-----------------------------|
//! | `insert` / `remove`          | `O(log K + min(d, B))` (×2) |
//! | `replace_rows` (per row: `n` new) | `O(log K + d + n)` forward; reverse edits transposed by destination (one lookup per destination of each run of equal lists, one counting pass) or, when that takes more lookups than half the edits, sorted; one map operation per touched reverse row |
//! | `from_sorted_pairs`          | `O(E log E)`: one stable sort per block |
//! | `contains`                   | `O(log K + log d)`          |
//! | `successors(o, p)`           | `O(log K + d)`              |
//! | `predecessors(o, p)`         | `O(log K + d)`              |
//! | `labeled(p)`                 | `O(E)` filtered scan        |
//! | `properties()`               | `O(P)` over property counts |
//! | `incident(o)`                | `O(log K + d·log d)`        |
//! | full iteration               | `O(E)`                      |
//!
//! ## Bulk writes
//!
//! Two primitives write a set at a time. [`EdgeIndex::replace_rows`]
//! replaces whole `(src, prop)` rows of one property, each by a sorted
//! list: one merge against each old list and one forward-map operation
//! per row, then the batch's reverse edits grouped into one run per
//! destination so each touched reverse row is written once — merged when
//! its run is large next to it, edge by edge when small, so a hub row
//! never pays `O(d)` for a few edits — and one count update. The grouping
//! is a transposition, which compares no edits: rows come in ascending
//! source order, so runs filled in row order are sorted, and a new list
//! shared by consecutive rows has its destinations looked up once. A
//! batch whose rows share few lists, one row among them, sorts its edits
//! by `(dst, src)` instead. It reports each row's effective diff
//! (`old∖new`, `new∖old`), which is what
//! [`InstanceTxn::replace_rows`](crate::InstanceTxn::replace_rows) logs;
//! [`EdgeIndex::replace_row`] is its one-row case.
//! [`EdgeIndex::from_sorted_pairs`] builds both views from
//! per-property sorted `(src, dst)` blocks with no per-edge probe;
//! [`EdgeIndex::from_edges`] and `FromIterator` sort, deduplicate and
//! call it, and snapshot recovery feeds it the decoded blocks.
//!
//! All iterators yield edges in the canonical `(src, prop, dst)` order, so
//! equality/ordering/hashing built on them is indistinguishable from the
//! flat-set representation.
//!
//! [`Database::from_instance`]: ../../receivers_relalg/database/struct.Database.html

use std::collections::btree_map::Entry;
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::fmt;

use crate::item::Edge;
use crate::oid::Oid;
use crate::schema::PropId;

/// Largest adjacency list kept as a sorted vector (128 oids = 1 KiB);
/// longer lists are B-trees.
pub const ADJ_BOUND: usize = 128;

/// A reverse row takes its run of [`EdgeIndex::replace_rows`] edits by
/// one merge into a rebuilt list when the run has at least
/// [`MERGE_MIN_RUN`] edits and at least `1 / MERGE_SHARE` of the row's
/// length; otherwise edge by edge, in place.
const MERGE_SHARE: usize = 16;

/// See [`MERGE_SHARE`]: a shorter run never pays for a rebuilt list.
const MERGE_MIN_RUN: usize = 8;

/// One edit of a reverse row `(dst, prop)`: `(src, added)`.
type RevEdit = (Oid, bool);

/// The per-row effective diffs of [`EdgeIndex::replace_rows`], in the
/// rows' order, held in two flat buffers.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RowDiffs {
    removed: Vec<Oid>,
    added: Vec<Oid>,
    /// Per row: its source and the ends of its runs in `removed` and
    /// `added`.
    rows: Vec<(Oid, usize, usize)>,
}

impl RowDiffs {
    /// Each row's `(src, old∖new, new∖old)`, both ascending.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &[Oid], &[Oid])> + '_ {
        let mut from = (0, 0);
        self.rows.iter().map(move |&(src, r, a)| {
            let row = (src, &self.removed[from.0..r], &self.added[from.1..a]);
            from = (r, a);
            row
        })
    }

    /// The number of edits over every row.
    pub fn edit_count(&self) -> usize {
        self.removed.len() + self.added.len()
    }
}

/// The reverse edits of a [`EdgeIndex::replace_rows`] batch (sources
/// strictly ascending), grouped by destination without
/// comparing edits: `(dsts, ends, edits)`, where `dsts` holds the
/// touched destinations ascending and `edits[ends[k - 1]..ends[k]]`
/// (from 0 for `k = 0`) is the run of `dsts[k]`, ascending by source.
///
/// Each destination gets a slot, its index in `dsts`. A removed
/// destination is looked up on its own; an added one is found in its
/// row's new list, whose slots are looked up once per run of consecutive
/// rows with an equal list — a shared-values batch looks up one list.
/// A counting pass then sizes each run, and the edits are placed in row
/// order, so each run comes out ascending by source.
///
/// `None` when the lookups would number more than half the edits (rows
/// share few lists, and one row never shares): a sort of the edits is
/// then the cheaper grouping.
fn transpose<V: AsRef<[Oid]>>(
    rows: &[(Oid, V)],
    diffs: &RowDiffs,
) -> Option<(Vec<Oid>, Vec<usize>, Vec<RevEdit>)> {
    // Per row, whether its additions look up its list afresh, decided
    // once: this pass counts the lookups, and the passes below look up
    // exactly the lists it chose.
    let mut fresh: Vec<bool> = Vec::new();
    let (mut prev, mut lookups): (Option<&[Oid]>, usize) = (None, 0);
    for ((_, new), (_, removed, added)) in rows.iter().zip(diffs.iter()) {
        let new = new.as_ref();
        let looked_up =
            !added.is_empty() && !prev.is_some_and(|p| std::ptr::eq(p, new) || p == new);
        lookups += removed.len() + if looked_up { new.len() } else { 0 };
        if 2 * lookups > diffs.edit_count() {
            return None;
        }
        if looked_up {
            prev = Some(new);
        }
        fresh.push(looked_up);
    }
    let mut dsts: Vec<Oid> = Vec::with_capacity(lookups);
    for (((_, new), (_, removed, _)), &fresh) in rows.iter().zip(diffs.iter()).zip(&fresh) {
        dsts.extend_from_slice(removed);
        if fresh {
            dsts.extend_from_slice(new.as_ref());
        }
    }
    dsts.sort_unstable();
    dsts.dedup();
    let slot = |o: &Oid| dsts.binary_search(o).expect("every destination is slotted");

    let mut slots: Vec<usize> = Vec::with_capacity(diffs.edit_count());
    let mut list_slots: Vec<usize> = Vec::new();
    for (((_, new), (_, removed, added)), fresh) in rows.iter().zip(diffs.iter()).zip(fresh) {
        slots.extend(removed.iter().map(slot));
        let new = new.as_ref();
        if fresh {
            list_slots.clear();
            list_slots.extend(new.iter().map(slot));
        }
        // `added` is a subsequence of `new`: one walk finds each one.
        let mut listed = new.iter().zip(&list_slots);
        for a in added {
            let (_, &s) = listed
                .find(|&(o, _)| o == a)
                .expect("an added destination is in its row's list");
            slots.push(s);
        }
    }

    // `ends[k]` counts run `k`, then holds where it starts, and after the
    // edits are placed, where it ends.
    let mut ends = vec![0; dsts.len()];
    for &s in &slots {
        ends[s] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        (*end, start) = (start, start + *end);
    }
    let mut edits = vec![(dsts[0], false); slots.len()];
    let mut slots = slots.into_iter();
    for (src, removed, added) in diffs.iter() {
        let row = removed
            .iter()
            .map(|_| false)
            .chain(added.iter().map(|_| true));
        for (added, s) in row.zip(slots.by_ref()) {
            edits[ends[s]] = (src, added);
            ends[s] += 1;
        }
    }
    Some((dsts, ends, edits))
}

/// One adjacency list: the strictly ascending neighbours of a
/// `(node, prop)` key. Never empty while stored in a view.
#[derive(Clone)]
enum Adj {
    /// At most [`ADJ_BOUND`] oids, strictly ascending.
    Vec(Vec<Oid>),
    /// More than `ADJ_BOUND / 2` oids (a tree shrinking to half the bound
    /// turns back into a vector).
    Tree(BTreeSet<Oid>),
}

impl Adj {
    fn single(o: Oid) -> Self {
        Adj::Vec(vec![o])
    }

    /// The list of `sorted` (strictly ascending, non-empty): a vector up to
    /// the bound, a tree past it.
    fn from_sorted(sorted: impl ExactSizeIterator<Item = Oid>) -> Self {
        if sorted.len() <= ADJ_BOUND {
            Adj::Vec(sorted.collect())
        } else {
            Adj::Tree(sorted.collect())
        }
    }

    /// Make this list hold exactly `new` (strictly ascending, non-empty),
    /// given the diff against the current contents. A vector that still
    /// fits is overwritten in place; a tree that stays above half the
    /// bound takes the diff edit by edit; anything else is rebuilt.
    fn assign(&mut self, new: &[Oid], removed: &[Oid], added: &[Oid]) {
        match self {
            Adj::Vec(v) if new.len() <= ADJ_BOUND => {
                v.clear();
                v.extend_from_slice(new);
            }
            Adj::Tree(t) if new.len() > ADJ_BOUND / 2 => {
                for o in removed {
                    t.remove(o);
                }
                t.extend(added.iter().copied());
            }
            _ => *self = Adj::from_sorted(new.iter().copied()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Adj::Vec(v) => v.len(),
            Adj::Tree(t) => t.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, o: &Oid) -> bool {
        match self {
            Adj::Vec(v) => v.binary_search(o).is_ok(),
            Adj::Tree(t) => t.contains(o),
        }
    }

    /// Insert `o`. Returns `true` when new.
    fn insert(&mut self, o: Oid) -> bool {
        let v = match self {
            Adj::Tree(t) => return t.insert(o),
            Adj::Vec(v) => v,
        };
        let at = if v.last().is_none_or(|&last| last < o) {
            v.len()
        } else {
            match v.binary_search(&o) {
                Ok(_) => return false,
                Err(at) => at,
            }
        };
        if v.len() < ADJ_BOUND {
            v.insert(at, o);
        } else {
            let mut t: BTreeSet<Oid> = std::mem::take(v).into_iter().collect();
            t.insert(o);
            *self = Adj::Tree(t);
        }
        true
    }

    /// Remove `o`. Returns `true` when it was present.
    fn remove(&mut self, o: &Oid) -> bool {
        match self {
            Adj::Vec(v) => match v.binary_search(o) {
                Ok(at) => {
                    v.remove(at);
                    true
                }
                Err(_) => false,
            },
            Adj::Tree(t) => {
                if !t.remove(o) {
                    return false;
                }
                if t.len() <= ADJ_BOUND / 2 {
                    *self = Adj::Vec(std::mem::take(t).into_iter().collect());
                }
                true
            }
        }
    }

    fn iter(&self) -> AdjIter<'_> {
        match self {
            Adj::Vec(v) => AdjIter::Vec(v.iter()),
            Adj::Tree(t) => AdjIter::Tree(t.iter()),
        }
    }

    /// Panics unless the representation invariants hold.
    fn check(&self) {
        match self {
            Adj::Vec(v) => {
                assert!(!v.is_empty(), "empty adjacency list stored");
                assert!(v.len() <= ADJ_BOUND, "vector list past the bound");
                assert!(v.windows(2).all(|w| w[0] < w[1]), "vector list unsorted");
            }
            Adj::Tree(t) => assert!(t.len() > ADJ_BOUND / 2, "tree list below half the bound"),
        }
    }
}

/// Contents, not representation: a vector and a tree holding the same
/// oids are equal.
impl PartialEq for Adj {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Adj::Vec(a), Adj::Vec(b)) => a == b,
            (Adj::Tree(a), Adj::Tree(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Adj {}

/// Ascending iterator over one adjacency list — an enum, not a boxed
/// trait object, so the per-element dispatch is one predictable branch.
enum AdjIter<'a> {
    Vec(std::slice::Iter<'a, Oid>),
    Tree(btree_set::Iter<'a, Oid>),
}

impl Iterator for AdjIter<'_> {
    type Item = Oid;

    #[inline]
    fn next(&mut self) -> Option<Oid> {
        match self {
            AdjIter::Vec(it) => it.next().copied(),
            AdjIter::Tree(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            AdjIter::Vec(it) => it.size_hint(),
            AdjIter::Tree(it) => it.size_hint(),
        }
    }
}

/// The two-view adjacency index over a set of edges.
///
/// Structural equality, ordering and hashing all agree with the underlying
/// *set of edges* (canonical `(src, prop, dst)` order), matching the
/// semantics of the `BTreeSet<Edge>` it replaces.
#[derive(Clone, Default)]
pub struct EdgeIndex {
    /// `(src, prop) → dst` list; canonical-order master copy.
    fwd: BTreeMap<(Oid, PropId), Adj>,
    /// `(dst, prop) → src` list.
    rev: BTreeMap<(Oid, PropId), Adj>,
    /// Edge count per property, indexed by `PropId`.
    prop_len: Vec<usize>,
    /// Total number of edges (each counted once).
    len: usize,
}

impl EdgeIndex {
    /// The empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an index from any edge iterator (duplicates collapse): the
    /// edges are bucketed by property, each bucket sorted and deduplicated,
    /// and the result handed to [`EdgeIndex::from_sorted_pairs`].
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut buckets: Vec<Vec<(Oid, Oid)>> = Vec::new();
        for e in edges {
            let p = e.prop.0 as usize;
            if p >= buckets.len() {
                buckets.resize_with(p + 1, Vec::new);
            }
            buckets[p].push((e.src, e.dst));
        }
        Self::from_sorted_pairs(buckets.into_iter().enumerate().map(|(p, mut pairs)| {
            pairs.sort_unstable();
            pairs.dedup();
            (PropId(p as u32), pairs)
        }))
    }

    /// Build an index in bulk from per-property `(src, dst)` pairs, each
    /// block strictly ascending. The forward view is collected from the
    /// blocks' runs of equal sources; each block is then stably sorted by
    /// destination and flipped in place to `(dst, src)`, and the reverse
    /// view collected from its runs. Both views are built from sorted
    /// keys, with no per-edge map probe. `O(E log E)` at worst, less when
    /// the block's per-source runs are few.
    ///
    /// # Panics
    ///
    /// When a block is not strictly ascending, or a property has two
    /// non-empty blocks.
    pub fn from_sorted_pairs(blocks: impl IntoIterator<Item = (PropId, Vec<(Oid, Oid)>)>) -> Self {
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        let mut prop_len: Vec<usize> = Vec::new();
        for (p, mut pairs) in blocks {
            if pairs.is_empty() {
                continue;
            }
            assert!(
                pairs.windows(2).all(|w| w[0] < w[1]),
                "edge block of property {} is not strictly ascending",
                p.0
            );
            let at = p.0 as usize;
            if at >= prop_len.len() {
                prop_len.resize(at + 1, 0);
            }
            assert_eq!(prop_len[at], 0, "property {} given twice", p.0);
            prop_len[at] = pairs.len();
            Self::collect_runs(&pairs, p, &mut fwd);
            // Sources ascend within each destination once the block is
            // stably sorted by destination alone; the sort merges the
            // block's ascending per-source runs.
            pairs.sort_by_key(|&(_, dst)| dst);
            for pair in &mut pairs {
                *pair = (pair.1, pair.0);
            }
            Self::collect_runs(&pairs, p, &mut rev);
        }
        fwd.sort_unstable_by_key(|&(key, _)| key);
        rev.sort_unstable_by_key(|&(key, _)| key);
        Self {
            fwd: fwd.into_iter().collect(),
            rev: rev.into_iter().collect(),
            len: prop_len.iter().sum(),
            prop_len,
        }
    }

    /// One `((a, p), list of b)` entry per run of equal `a` in the sorted
    /// `(a, b)` pairs.
    fn collect_runs(pairs: &[(Oid, Oid)], p: PropId, out: &mut Vec<((Oid, PropId), Adj)>) {
        for run in pairs.chunk_by(|x, y| x.0 == y.0) {
            out.push(((run[0].0, p), Adj::from_sorted(run.iter().map(|&(_, b)| b))));
        }
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no edges are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of edges labeled `p`. `O(1)`.
    pub fn labeled_len(&self, p: PropId) -> usize {
        self.prop_len.get(p.0 as usize).copied().unwrap_or(0)
    }

    /// Membership test. `O(log K + log d)`.
    pub fn contains(&self, e: &Edge) -> bool {
        self.fwd
            .get(&(e.src, e.prop))
            .is_some_and(|dsts| dsts.contains(&e.dst))
    }

    /// Insert an edge into both views. Returns `true` when new.
    pub fn insert(&mut self, e: Edge) -> bool {
        if !Self::link(&mut self.fwd, (e.src, e.prop), e.dst) {
            return false;
        }
        let fresh = Self::link(&mut self.rev, (e.dst, e.prop), e.src);
        debug_assert!(fresh, "index views out of sync");
        let p = e.prop.0 as usize;
        if p >= self.prop_len.len() {
            self.prop_len.resize(p + 1, 0);
        }
        self.prop_len[p] += 1;
        self.len += 1;
        true
    }

    fn link(view: &mut BTreeMap<(Oid, PropId), Adj>, key: (Oid, PropId), o: Oid) -> bool {
        match view.entry(key) {
            Entry::Occupied(mut adj) => adj.get_mut().insert(o),
            Entry::Vacant(slot) => {
                slot.insert(Adj::single(o));
                true
            }
        }
    }

    /// Remove an edge from both views. Returns `true` when present.
    pub fn remove(&mut self, e: &Edge) -> bool {
        if !Self::unlink(&mut self.fwd, (e.src, e.prop), &e.dst) {
            return false;
        }
        let present = Self::unlink(&mut self.rev, (e.dst, e.prop), &e.src);
        debug_assert!(present, "index views out of sync");
        self.prop_len[e.prop.0 as usize] -= 1;
        self.len -= 1;
        true
    }

    fn unlink(view: &mut BTreeMap<(Oid, PropId), Adj>, key: (Oid, PropId), o: &Oid) -> bool {
        let Entry::Occupied(mut adj) = view.entry(key) else {
            return false;
        };
        if !adj.get_mut().remove(o) {
            return false;
        }
        if adj.get().is_empty() {
            adj.remove();
        }
        true
    }

    /// Replace the whole row `(src, prop)` by `new` (strictly ascending;
    /// empty clears the row) and return the effective diff `(old∖new,
    /// new∖old)`, both ascending: the one-row case of
    /// [`EdgeIndex::replace_rows`].
    ///
    /// # Panics
    ///
    /// When `new` is not strictly ascending.
    pub fn replace_row(&mut self, src: Oid, prop: PropId, new: &[Oid]) -> (Vec<Oid>, Vec<Oid>) {
        let diffs = self.replace_rows(prop, &[(src, new)]);
        (diffs.removed, diffs.added)
    }

    /// Replace the `prop`-rows of several sources at once: row `(src,
    /// new)` makes the successors of `src` exactly `new` (strictly
    /// ascending; empty clears the row). Returns each row's effective
    /// diff, in input order.
    ///
    /// Each forward row is merged against its old list once and costs one
    /// forward-map operation. The reverse edits of the whole batch are
    /// then grouped by destination, and each touched reverse row is
    /// edited once: a run of at least 8 edits and 1/16 of the row is
    /// merged into a rebuilt list, a smaller one is applied edge by edge
    /// in place, so a hub row gaining a few sources costs `O(k log d)`,
    /// not `O(d)`. The counts are updated once.
    ///
    /// Where rows share lists the grouping is a transposition, not a
    /// sort: the sources ascend, so appending each row's edits to its
    /// destinations' runs in row order leaves every run ascending, and
    /// only the distinct destinations are ordered. An added destination
    /// is found in its row's new list, looked up once per run of rows
    /// with an equal list, so rows sharing one list of `n` values cost
    /// `O(n log n)` plus one counting pass over the edits. When the lookups would
    /// outnumber half the edits — rows share few lists, as a single row
    /// always does — a lookup per edit costs more than a sort, so the
    /// edits are sorted by `(dst, src)` instead.
    ///
    /// # Panics
    ///
    /// When the sources are not strictly ascending or a row is not.
    pub fn replace_rows<V: AsRef<[Oid]>>(&mut self, prop: PropId, rows: &[(Oid, V)]) -> RowDiffs {
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "replacement rows' sources are not strictly ascending"
        );
        let mut diffs = RowDiffs::default();
        for (src, new) in rows {
            let new = new.as_ref();
            assert!(
                new.windows(2).all(|w| w[0] < w[1]),
                "replacement row is not strictly ascending"
            );
            self.merge_forward(*src, prop, new, &mut diffs);
        }
        let (n_removed, n_added) = (diffs.removed.len(), diffs.added.len());
        if n_removed + n_added == 0 {
            return diffs;
        }
        if let Some((dsts, ends, edits)) = transpose(rows, &diffs) {
            let mut from = 0;
            for (&dst, &end) in dsts.iter().zip(&ends) {
                let run = edits[from..end].iter().copied();
                Self::edit_reverse_row(&mut self.rev, (dst, prop), run);
                from = end;
            }
        } else {
            let mut edits: Vec<(Oid, RevEdit)> = Vec::with_capacity(n_removed + n_added);
            for (src, removed, added) in diffs.iter() {
                edits.extend(removed.iter().map(|&dst| (dst, (src, false))));
                edits.extend(added.iter().map(|&dst| (dst, (src, true))));
            }
            edits.sort_unstable_by_key(|&(dst, (src, _))| (dst, src));
            for run in edits.chunk_by(|x, y| x.0 == y.0) {
                let key = (run[0].0, prop);
                Self::edit_reverse_row(&mut self.rev, key, run.iter().map(|&(_, e)| e));
            }
        }
        let p = prop.0 as usize;
        if p >= self.prop_len.len() {
            self.prop_len.resize(p + 1, 0);
        }
        self.prop_len[p] = self.prop_len[p] + n_added - n_removed;
        self.len = self.len + n_added - n_removed;
        diffs
    }

    /// The forward half of one row of [`EdgeIndex::replace_rows`]: merge
    /// the old list of `(src, prop)` against `new` once, write the row in
    /// one map operation, and append the row's diff to `diffs`.
    fn merge_forward(&mut self, src: Oid, prop: PropId, new: &[Oid], diffs: &mut RowDiffs) {
        let (from_removed, from_added) = (diffs.removed.len(), diffs.added.len());
        let (removed, added) = (&mut diffs.removed, &mut diffs.added);
        match self.fwd.entry((src, prop)) {
            Entry::Vacant(_) if new.is_empty() => {}
            Entry::Vacant(slot) => {
                added.extend_from_slice(new);
                slot.insert(Adj::from_sorted(new.iter().copied()));
            }
            Entry::Occupied(mut row) => {
                let mut new_it = new.iter().copied().peekable();
                for o in row.get().iter() {
                    while let Some(n) = new_it.next_if(|&n| n < o) {
                        added.push(n);
                    }
                    if new_it.next_if_eq(&o).is_none() {
                        removed.push(o);
                    }
                }
                added.extend(new_it);
                let (removed, added) = (&removed[from_removed..], &added[from_added..]);
                if new.is_empty() {
                    row.remove();
                } else if !(removed.is_empty() && added.is_empty()) {
                    row.get_mut().assign(new, removed, added);
                }
            }
        }
        diffs
            .rows
            .push((src, diffs.removed.len(), diffs.added.len()));
    }

    /// Apply one reverse row's run of edits (sorted by source, each
    /// effective) in one map operation: merged into a rebuilt list when
    /// the run is large next to the row, edge by edge otherwise.
    fn edit_reverse_row(
        view: &mut BTreeMap<(Oid, PropId), Adj>,
        key: (Oid, PropId),
        run: impl ExactSizeIterator<Item = RevEdit> + Clone,
    ) {
        match view.entry(key) {
            Entry::Vacant(slot) => {
                debug_assert!(run.clone().all(|e| e.1), "index views out of sync");
                slot.insert(Adj::from_sorted(run.map(|e| e.0)));
            }
            Entry::Occupied(mut row) => {
                let adj = row.get_mut();
                if run.len() >= MERGE_MIN_RUN && run.len() * MERGE_SHARE >= adj.len() {
                    let mut merged = Vec::with_capacity(adj.len() + run.len());
                    let mut edits = run.peekable();
                    for o in adj.iter() {
                        while let Some(e) = edits.next_if(|e| e.0 < o) {
                            debug_assert!(e.1, "index views out of sync");
                            merged.push(e.0);
                        }
                        match edits.next_if(|e| e.0 == o) {
                            Some(e) => debug_assert!(!e.1, "index views out of sync"),
                            None => merged.push(o),
                        }
                    }
                    for e in edits {
                        debug_assert!(e.1, "index views out of sync");
                        merged.push(e.0);
                    }
                    if merged.is_empty() {
                        row.remove();
                    } else {
                        *adj = Adj::from_sorted(merged.into_iter());
                    }
                } else {
                    for (src, add) in run {
                        let effective = if add {
                            adj.insert(src)
                        } else {
                            adj.remove(&src)
                        };
                        debug_assert!(effective, "index views out of sync");
                    }
                    if adj.is_empty() {
                        row.remove();
                    }
                }
            }
        }
    }

    /// The forward rows' keys `(src, prop)`, ascending.
    pub(crate) fn source_keys(&self) -> impl Iterator<Item = (Oid, PropId)> + '_ {
        self.fwd.keys().copied()
    }

    /// The reverse rows' keys `(dst, prop)`, ascending.
    pub(crate) fn target_keys(&self) -> impl Iterator<Item = (Oid, PropId)> + '_ {
        self.rev.keys().copied()
    }

    /// All edges in canonical `(src, prop, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        Self::expand(self.fwd.iter())
    }

    fn expand<'a>(
        entries: impl Iterator<Item = (&'a (Oid, PropId), &'a Adj)> + 'a,
    ) -> impl Iterator<Item = Edge> + 'a {
        entries
            .flat_map(|(&(src, prop), dsts)| dsts.iter().map(move |dst| Edge::new(src, prop, dst)))
    }

    /// The forward entries of property `p`, in canonical order: a filtered
    /// scan of the forward view, skipped outright when `p` has no edges.
    fn labeled_entries(&self, p: PropId) -> impl Iterator<Item = (&(Oid, PropId), &Adj)> + '_ {
        let entries = if self.labeled_len(p) > 0 {
            self.fwd.iter()
        } else {
            Default::default()
        };
        entries.filter(move |((_, q), _)| *q == p)
    }

    /// Edges labeled `p`, ordered by `(src, dst)` — the same order a
    /// label-filtered scan of the canonical sequence produces. `O(E)`.
    pub fn labeled(&self, p: PropId) -> impl Iterator<Item = Edge> + '_ {
        Self::expand(self.labeled_entries(p))
    }

    /// The `(src, dst)` pairs of edges labeled `p`, ordered by `(src, dst)`
    /// — the borrow-only form of [`EdgeIndex::labeled`]. `O(E)`.
    pub fn labeled_pairs(&self, p: PropId) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.labeled_entries(p)
            .flat_map(|(&(src, _), dsts)| dsts.iter().map(move |dst| (src, dst)))
    }

    /// The properties with at least one edge, ascending.
    pub fn properties(&self) -> impl Iterator<Item = PropId> + '_ {
        self.prop_len
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(p, _)| PropId(p as u32))
    }

    /// Objects reachable from `o` via `p`, ascending.
    pub fn successors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.fwd.get(&(o, p)).into_iter().flat_map(Adj::iter)
    }

    /// Objects with a `p`-edge into `o`, ascending.
    pub fn predecessors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.rev.get(&(o, p)).into_iter().flat_map(Adj::iter)
    }

    /// Out-degree of `(o, p)` without materializing the successor set.
    pub fn out_degree(&self, o: Oid, p: PropId) -> usize {
        self.fwd.get(&(o, p)).map_or(0, Adj::len)
    }

    /// Edges whose source is `o`, in canonical order.
    pub fn out_edges(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        Self::expand(self.fwd.range((o, PropId(0))..=(o, PropId(u32::MAX))))
    }

    /// Edges whose destination is `o`, ordered by `(prop, src)`.
    pub fn in_edges(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        self.rev
            .range((o, PropId(0))..=(o, PropId(u32::MAX)))
            .flat_map(|(&(dst, prop), srcs)| srcs.iter().map(move |src| Edge::new(src, prop, dst)))
    }

    /// Edges incident to `o` (either endpoint, self-loops once), in
    /// canonical order — matching an endpoint-filtered scan of the flat set.
    pub fn incident(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        let mut edges: Vec<Edge> = self.out_edges(o).chain(self.in_edges(o)).collect();
        edges.sort_unstable();
        edges.dedup();
        edges.into_iter()
    }

    /// Invariant check (for tests): panics unless every list keeps its
    /// representation bounds and both views and the counts agree.
    pub fn check_consistent(&self) {
        for adj in self.fwd.values().chain(self.rev.values()) {
            adj.check();
        }
        let from_fwd: BTreeSet<Edge> = self.iter().collect();
        let from_rev: BTreeSet<Edge> = self
            .rev
            .iter()
            .flat_map(|(&(d, p), srcs)| srcs.iter().map(move |s| Edge::new(s, p, d)))
            .collect();
        assert_eq!(from_fwd.len(), self.len, "len out of sync with fwd view");
        assert_eq!(from_fwd, from_rev, "rev view out of sync");
        let mut prop_len = vec![0; self.prop_len.len()];
        for e in &from_fwd {
            prop_len[e.prop.0 as usize] += 1;
        }
        assert_eq!(prop_len, self.prop_len, "property counts out of sync");
    }
}

impl PartialEq for EdgeIndex {
    fn eq(&self, other: &Self) -> bool {
        // The forward view determines the edge set, and `len` is derived.
        self.len == other.len && self.fwd == other.fwd
    }
}

impl Eq for EdgeIndex {}

impl PartialOrd for EdgeIndex {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdgeIndex {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic over the canonical edge sequence: identical to the
        // `BTreeSet<Edge>` ordering this type replaces.
        self.iter().cmp(other.iter())
    }
}

impl std::hash::Hash for EdgeIndex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Mirror `BTreeSet<Edge>`: length prefix, then elements in order.
        self.len.hash(state);
        for e in self.iter() {
            e.hash(state);
        }
    }
}

impl fmt::Debug for EdgeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Edge> for EdgeIndex {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        Self::from_edges(iter)
    }
}

impl<'a> IntoIterator for &'a EdgeIndex {
    type Item = Edge;
    type IntoIter = Box<dyn Iterator<Item = Edge> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassId;

    fn e(s: u32, p: u32, d: u32) -> Edge {
        Edge::new(
            Oid::new(ClassId(s % 3), s),
            PropId(p),
            Oid::new(ClassId(d % 3), d),
        )
    }

    #[test]
    fn canonical_iteration_matches_flat_set() {
        let edges = [e(2, 1, 0), e(0, 0, 1), e(0, 1, 2), e(2, 0, 2), e(1, 2, 1)];
        let ix = EdgeIndex::from_edges(edges);
        let flat: BTreeSet<Edge> = edges.into_iter().collect();
        assert_eq!(
            ix.iter().collect::<Vec<_>>(),
            flat.into_iter().collect::<Vec<_>>()
        );
        ix.check_consistent();
    }

    #[test]
    fn insert_remove_keep_views_in_sync() {
        let mut ix = EdgeIndex::new();
        assert!(ix.insert(e(0, 0, 1)));
        assert!(!ix.insert(e(0, 0, 1)), "set semantics");
        assert!(ix.insert(e(0, 0, 2)));
        assert!(ix.insert(e(1, 1, 1)));
        assert_eq!(ix.len(), 3);
        assert!(ix.remove(&e(0, 0, 1)));
        assert!(!ix.remove(&e(0, 0, 1)));
        assert!(!ix.remove(&e(5, 5, 5)));
        assert_eq!(ix.len(), 2);
        ix.check_consistent();
        assert!(ix.contains(&e(0, 0, 2)));
        assert!(!ix.contains(&e(0, 0, 1)));
    }

    #[test]
    fn targeted_lookups() {
        let ix = EdgeIndex::from_edges([e(0, 0, 1), e(0, 0, 2), e(0, 1, 1), e(2, 0, 1)]);
        let succ: Vec<u32> = ix
            .successors(Oid::new(ClassId(0), 0), PropId(0))
            .map(|o| o.index)
            .collect();
        assert_eq!(succ, vec![1, 2]);
        let preds: Vec<u32> = ix
            .predecessors(Oid::new(ClassId(1), 1), PropId(0))
            .map(|o| o.index)
            .collect();
        assert_eq!(preds, vec![0, 2]);
        assert_eq!(ix.labeled(PropId(0)).count(), 3);
        assert_eq!(ix.out_degree(Oid::new(ClassId(0), 0), PropId(0)), 2);
        assert_eq!(
            ix.properties().collect::<Vec<_>>(),
            vec![PropId(0), PropId(1)]
        );
    }

    #[test]
    fn incident_handles_self_loops_once() {
        let o = Oid::new(ClassId(0), 0);
        let mut ix = EdgeIndex::new();
        ix.insert(Edge::new(o, PropId(0), o));
        ix.insert(e(0, 1, 1));
        ix.insert(e(1, 1, 0));
        let inc: Vec<Edge> = ix.incident(o).collect();
        assert_eq!(inc.len(), 3);
        let flat: BTreeSet<Edge> = ix.iter().collect();
        let scanned: Vec<Edge> = flat
            .into_iter()
            .filter(|ed| ed.src == o || ed.dst == o)
            .collect();
        assert_eq!(inc, scanned);
    }

    /// A list that grew past the bound and shrank back below it stays a
    /// tree until half the bound; it must still equal (and hash like) a
    /// vector list holding the same oids.
    #[test]
    fn adjacency_lists_compare_by_contents() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let n = 2 * ADJ_BOUND as u32;
        let kept = ADJ_BOUND as u32 - 8;
        let mut grown = EdgeIndex::new();
        for d in (0..n).rev() {
            grown.insert(e(0, 0, d));
        }
        for d in kept..n {
            assert!(grown.remove(&e(0, 0, d)));
        }
        grown.check_consistent();
        let src = Oid::new(ClassId(0), 0);
        assert!(matches!(grown.fwd[&(src, PropId(0))], Adj::Tree(_)));
        let direct = EdgeIndex::from_edges((0..kept).map(|d| e(0, 0, d)));
        assert!(matches!(direct.fwd[&(src, PropId(0))], Adj::Vec(_)));
        assert_eq!(grown, direct);
        assert_eq!(grown.cmp(&direct), std::cmp::Ordering::Equal);
        let hash = |ix: &EdgeIndex| {
            let mut h = DefaultHasher::new();
            ix.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&grown), hash(&direct));
        for d in 0..kept {
            assert!(grown.remove(&e(0, 0, d)));
            grown.check_consistent();
        }
        assert!(grown.is_empty());
        assert_eq!(grown.properties().count(), 0);
    }

    /// `replace_row` reports exactly `old∖new` and `new∖old`, leaves
    /// retained edges alone, and keeps both views and the counts in sync
    /// — including rows whose list crosses the bound either way.
    #[test]
    fn replace_row_reports_the_effective_diff() {
        let src = Oid::new(ClassId(0), 0);
        let dst = |d: u32| Oid::new(ClassId(1), d);
        let b = ADJ_BOUND as u32;
        let mut ix = EdgeIndex::from_edges([e(0, 1, 4), e(3, 0, 4)]);
        let rows: [Vec<u32>; 7] = [
            vec![1, 2, 4],
            vec![2, 4, 5],
            vec![],
            (0..2 * b).collect(),
            (b..b + b / 2 + 1).collect(),
            (0..3).collect(),
            vec![],
        ];
        let mut old: Vec<u32> = Vec::new();
        for row in rows {
            let new: Vec<Oid> = row.iter().map(|&d| dst(d)).collect();
            let (removed, added) = ix.replace_row(src, PropId(0), &new);
            let gone: Vec<Oid> = old
                .iter()
                .filter(|d| !row.contains(d))
                .map(|&d| dst(d))
                .collect();
            let came: Vec<Oid> = row
                .iter()
                .filter(|d| !old.contains(d))
                .map(|&d| dst(d))
                .collect();
            assert_eq!((&removed, &added), (&gone, &came), "row {row:?}");
            assert_eq!(ix.successors(src, PropId(0)).collect::<Vec<_>>(), new);
            ix.check_consistent();
            old = row;
        }
        assert_eq!(ix.len(), 2);
        assert!(ix.contains(&e(0, 1, 4)) && ix.contains(&e(3, 0, 4)));
    }

    /// The bulk build equals inserting the same edges one at a time, hub
    /// rows included, and `from_edges` collapses duplicates in any order.
    #[test]
    fn bulk_build_matches_per_edge_inserts() {
        let hub = 2 * ADJ_BOUND as u32;
        let mut edges: Vec<Edge> = (0..hub)
            .flat_map(|k| [e(0, 0, k), e(k, 1, 5), e(k % 7, 2, k % 11)])
            .collect();
        let mut one_by_one = EdgeIndex::new();
        for &ed in &edges {
            one_by_one.insert(ed);
        }
        edges.reverse();
        edges.extend_from_slice(&edges.clone()[..40]);
        let bulk = EdgeIndex::from_edges(edges);
        bulk.check_consistent();
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.len(), one_by_one.len());
        for p in 0..3 {
            assert_eq!(
                bulk.labeled_len(PropId(p)),
                one_by_one.labeled_len(PropId(p))
            );
        }
        let hub_bar = Oid::new(ClassId(2), 5);
        assert!(bulk
            .predecessors(hub_bar, PropId(1))
            .eq(one_by_one.predecessors(hub_bar, PropId(1))));
        assert!(EdgeIndex::from_edges([]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn bulk_build_refuses_unsorted_blocks() {
        let (a, b) = (Oid::new(ClassId(0), 1), Oid::new(ClassId(0), 0));
        EdgeIndex::from_sorted_pairs([(PropId(0), vec![(a, a), (b, b)])]);
    }

    #[test]
    fn eq_ord_hash_agree_with_edge_sets() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = EdgeIndex::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        let b = EdgeIndex::from_edges([e(1, 1, 2), e(0, 0, 1)]);
        assert_eq!(a, b);
        let hash = |ix: &EdgeIndex| {
            let mut h = DefaultHasher::new();
            ix.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let c = EdgeIndex::from_edges([e(0, 0, 1), e(1, 1, 2), e(2, 2, 2)]);
        let sa: BTreeSet<Edge> = a.iter().collect();
        let sc: BTreeSet<Edge> = c.iter().collect();
        assert_eq!(a.cmp(&c), sa.cmp(&sc));
        assert_eq!(c.cmp(&a), sc.cmp(&sa));
    }
}
