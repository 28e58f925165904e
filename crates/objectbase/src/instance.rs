//! Object-base instances (Definition 2.2): finite labeled directed graphs
//! whose nodes are objects and whose edges instantiate schema edges, with
//! *no dangling edges*.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::error::{ObjectBaseError, Result};
use crate::item::{Edge, Item};
use crate::oid::Oid;
use crate::partial::PartialInstance;
use crate::schema::{ClassId, PropId, Schema, SchemaItem};

/// A validated instance: a [`PartialInstance`] whose every edge has both
/// endpoints present.
///
/// `Instance` dereferences to [`PartialInstance`] for all read-only item-set
/// operations; mutation goes through the checked methods below, which
/// preserve the invariant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    inner: PartialInstance,
}

impl Instance {
    /// The empty instance over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            inner: PartialInstance::empty(schema),
        }
    }

    /// Validate a partial instance as an instance: one merge of the node
    /// set against each index view's distinct endpoints.
    pub fn from_partial(partial: PartialInstance) -> Result<Self> {
        if let Some(p) = partial.dangling_property() {
            return Err(ObjectBaseError::DanglingEdge {
                property: partial.schema().prop_name(p).to_owned(),
            });
        }
        Ok(Self { inner: partial })
    }

    pub(crate) fn from_partial_unchecked(partial: PartialInstance) -> Self {
        debug_assert!(partial.is_instance());
        Self { inner: partial }
    }

    /// View as a partial instance.
    pub fn as_partial(&self) -> &PartialInstance {
        &self.inner
    }

    /// Raw mutable access for the transaction log's rollback path, which
    /// must bypass the no-dangling-edges checks while replaying inverses.
    pub(crate) fn partial_mut(&mut self) -> &mut PartialInstance {
        &mut self.inner
    }

    /// Convert into the underlying partial instance.
    pub fn into_partial(self) -> PartialInstance {
        self.inner
    }

    /// Add an object node. Returns `true` when newly inserted.
    pub fn add_object(&mut self, o: Oid) -> bool {
        self.inner.insert_node(o)
    }

    /// Allocate a fresh object of class `class`: one past the largest index
    /// used by that class in this instance. `O(log n)`: the class-major
    /// [`Oid`] ordering makes each class a contiguous node range, so the
    /// largest member is one range probe away.
    pub fn fresh_object(&mut self, class: ClassId) -> Oid {
        let next = self
            .inner
            .class_members(class)
            .next_back()
            .map(|o| o.index + 1)
            .unwrap_or(0);
        let o = Oid::new(class, next);
        self.inner.insert_node(o);
        o
    }

    /// Add an edge, checking typing *and* endpoint presence.
    pub fn add_edge(&mut self, e: Edge) -> Result<bool> {
        if !self.inner.contains_node(e.src) || !self.inner.contains_node(e.dst) {
            return Err(ObjectBaseError::DanglingEdge {
                property: self.schema().prop_name(e.prop).to_owned(),
            });
        }
        self.inner.insert_edge(e)
    }

    /// Convenience: add edge by components.
    pub fn link(&mut self, src: Oid, prop: PropId, dst: Oid) -> Result<bool> {
        self.add_edge(Edge::new(src, prop, dst))
    }

    /// Remove an edge.
    pub fn remove_edge(&mut self, e: &Edge) -> bool {
        self.inner.remove_edge(e)
    }

    /// Remove an object together with all its incident edges, preserving
    /// the instance invariant (cf. the "automatic deletions" discussed after
    /// Lemma 4.11).
    pub fn remove_object_cascade(&mut self, o: Oid) -> bool {
        if !self.inner.contains_node(o) {
            return false;
        }
        // The adjacency indices hand us exactly the incident edges instead
        // of a full edge scan.
        let incident: Vec<Edge> = self.inner.edges_incident(o).collect();
        for e in &incident {
            self.inner.remove_edge(e);
        }
        self.inner.remove_node(o)
    }

    /// All objects of class `c` ("the class `C`" of Definition 2.2), via a
    /// contiguous range of the node set.
    pub fn class_members(&self, c: ClassId) -> impl DoubleEndedIterator<Item = Oid> + '_ {
        self.inner.class_members(c)
    }

    /// Objects reachable from `o` via property `p`, via the forward index.
    pub fn successors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.inner.successors(o, p)
    }

    /// Objects with a `p`-edge into `o`, via the reverse index.
    pub fn predecessors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.inner.predecessors(o, p)
    }

    /// Edges labeled `p`, via the per-property index.
    pub fn edges_labeled(&self, p: PropId) -> impl Iterator<Item = Edge> + '_ {
        self.inner.edges_labeled(p)
    }

    /// Edges incident to object `o` (either endpoint), via both adjacency
    /// indices.
    pub fn edges_incident(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        self.inner.edges_incident(o)
    }

    /// Restriction `I|X` (Definition 4.5). The result is a *partial*
    /// instance: removing nodes may leave edges dangling when `X` contains
    /// an edge label but not an incident node label.
    pub fn restrict(&self, allowed: &BTreeSet<SchemaItem>) -> PartialInstance {
        self.inner.restrict(allowed)
    }

    /// Restriction followed by `G`, convenient when `X` is closed under
    /// incident nodes (the condition of Definition 4.7, under which the
    /// restriction is always an instance).
    pub fn restrict_to_instance(&self, allowed: &BTreeSet<SchemaItem>) -> Instance {
        self.inner.restrict(allowed).largest_instance()
    }

    /// Item-wise union with a partial instance, then `G` — the combination
    /// pattern `G(M(I|X, t) ∪ (I − I|X))` of Definition 4.7.
    pub fn union_g(&self, other: &PartialInstance) -> Result<Instance> {
        Ok(self.inner.union(other)?.largest_instance())
    }
}

impl Deref for Instance {
    type Target = PartialInstance;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("nodes", &self.inner.nodes().collect::<Vec<_>>())
            .field("edges", &self.inner.edges().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instance {{")?;
        for o in self.inner.nodes() {
            writeln!(f, "  {}", Item::Node(o).display(self.schema()))?;
        }
        for e in self.inner.edges() {
            writeln!(f, "  {}", Item::Edge(e).display(self.schema()))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beer_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let d = b.class("Drinker").unwrap();
        let bar = b.class("Bar").unwrap();
        let beer = b.class("Beer").unwrap();
        b.property(d, "frequents", bar).unwrap();
        b.property(d, "likes", beer).unwrap();
        b.property(bar, "serves", beer).unwrap();
        b.build()
    }

    #[test]
    fn add_edge_requires_endpoints() {
        let s = beer_schema();
        let d = s.class("Drinker").unwrap();
        let bar = s.class("Bar").unwrap();
        let f = s.prop("frequents").unwrap();
        let mut i = Instance::empty(Arc::clone(&s));
        let drinker = Oid::new(d, 0);
        let b0 = Oid::new(bar, 0);
        i.add_object(drinker);
        assert!(matches!(
            i.link(drinker, f, b0),
            Err(ObjectBaseError::DanglingEdge { .. })
        ));
        i.add_object(b0);
        assert!(i.link(drinker, f, b0).unwrap());
        assert!(!i.link(drinker, f, b0).unwrap()); // set semantics
    }

    #[test]
    fn cascade_removal_keeps_invariant() {
        let s = beer_schema();
        let d = s.class("Drinker").unwrap();
        let bar = s.class("Bar").unwrap();
        let f = s.prop("frequents").unwrap();
        let mut i = Instance::empty(Arc::clone(&s));
        let drinker = Oid::new(d, 0);
        let b0 = Oid::new(bar, 0);
        i.add_object(drinker);
        i.add_object(b0);
        i.link(drinker, f, b0).unwrap();
        assert!(i.remove_object_cascade(b0));
        assert!(i.as_partial().is_instance());
        assert_eq!(i.edge_count(), 0);
    }

    #[test]
    fn fresh_objects_do_not_collide() {
        let s = beer_schema();
        let bar = s.class("Bar").unwrap();
        let mut i = Instance::empty(Arc::clone(&s));
        i.add_object(Oid::new(bar, 5));
        let fresh = i.fresh_object(bar);
        assert_eq!(fresh.index, 6);
        assert!(i.contains_node(fresh));
    }

    #[test]
    fn class_members_and_successors() {
        let s = beer_schema();
        let d = s.class("Drinker").unwrap();
        let bar = s.class("Bar").unwrap();
        let f = s.prop("frequents").unwrap();
        let mut i = Instance::empty(Arc::clone(&s));
        let drinker = Oid::new(d, 0);
        i.add_object(drinker);
        let bars: Vec<Oid> = (0..3).map(|k| Oid::new(bar, k)).collect();
        for &b in &bars {
            i.add_object(b);
        }
        i.link(drinker, f, bars[0]).unwrap();
        i.link(drinker, f, bars[2]).unwrap();
        assert_eq!(i.class_members(bar).count(), 3);
        let succ: Vec<_> = i.successors(drinker, f).collect();
        assert_eq!(succ, vec![bars[0], bars[2]]);
    }

    #[test]
    fn from_partial_validates() {
        let s = beer_schema();
        let d = s.class("Drinker").unwrap();
        let bar = s.class("Bar").unwrap();
        let f = s.prop("frequents").unwrap();
        let mut j = PartialInstance::empty(Arc::clone(&s));
        j.insert_edge(Edge::new(Oid::new(d, 0), f, Oid::new(bar, 0)))
            .unwrap();
        assert!(Instance::from_partial(j.clone()).is_err());
        j.insert_node(Oid::new(d, 0));
        j.insert_node(Oid::new(bar, 0));
        assert!(Instance::from_partial(j).is_ok());
    }
}
