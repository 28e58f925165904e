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
//! | `contains`                   | `O(log K + log d)`          |
//! | `successors(o, p)`           | `O(log K + d)`              |
//! | `predecessors(o, p)`         | `O(log K + d)`              |
//! | `labeled(p)`                 | `O(E)` filtered scan        |
//! | `properties()`               | `O(P)` over property counts |
//! | `incident(o)`                | `O(log K + d·log d)`        |
//! | full iteration               | `O(E)`                      |
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

    /// Build an index from any edge iterator (duplicates collapse).
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut ix = Self::new();
        for e in edges {
            ix.insert(e);
        }
        ix
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

    pub(crate) fn check_consistent(&self) {
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
