//! Partial instances (Definition 4.3) and the set-theoretic view of graphs.
//!
//! A *partial instance* is a subset of some instance, viewed as the set of
//! its items; it may contain "dangling edges" whose endpoints were removed.
//! The operator `G` (Definition 4.4) eliminates all dangling edges, yielding
//! the largest instance contained in the partial instance.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{ObjectBaseError, Result};
use crate::index::EdgeIndex;
use crate::instance::Instance;
use crate::item::{Edge, Item};
use crate::oid::Oid;
use crate::schema::{ClassId, PropId, Schema, SchemaItem};

/// A possibly-dangling set of instance items over a fixed schema.
///
/// Equality, ordering and hashing are *structural* on the item sets, i.e. a
/// graph is identified with the set of its items (Definition 4.1 and the
/// remark following it). All operations require both operands to share the
/// same schema.
#[derive(Clone)]
pub struct PartialInstance {
    schema: Arc<Schema>,
    nodes: BTreeSet<Oid>,
    edges: EdgeIndex,
}

impl PartialInstance {
    /// The empty partial instance over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            nodes: BTreeSet::new(),
            edges: EdgeIndex::new(),
        }
    }

    /// The schema this partial instance is constrained by.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of items (nodes + edges).
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// True when there are no items at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over the nodes in canonical order.
    pub fn nodes(&self) -> impl Iterator<Item = Oid> + '_ {
        self.nodes.iter().copied()
    }

    /// Iterate over the edges in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter()
    }

    /// The adjacency indices backing the edge set, for direct index reads.
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.edges
    }

    /// Edges labeled `p`, in the canonical order of a label-filtered scan.
    /// `O(E)`: a filtered scan of the forward index. Callers that want one
    /// object's edges should use [`PartialInstance::successors`] or
    /// [`PartialInstance::predecessors`] instead.
    pub fn edges_labeled(&self, p: PropId) -> impl Iterator<Item = Edge> + '_ {
        self.edges.labeled(p)
    }

    /// The `(src, dst)` pairs of edges labeled `p`, ordered by `(src, dst)`.
    /// `O(E)`, like [`PartialInstance::edges_labeled`], with no `Edge`
    /// re-construction.
    pub fn edges_labeled_pairs(&self, p: PropId) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        self.edges.labeled_pairs(p)
    }

    /// Objects reachable from `o` via property `p`, ascending.
    /// `O(log E + result)` via the forward index.
    pub fn successors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.edges.successors(o, p)
    }

    /// Objects with a `p`-edge into `o`, ascending.
    /// `O(log E + result)` via the reverse index.
    pub fn predecessors(&self, o: Oid, p: PropId) -> impl Iterator<Item = Oid> + '_ {
        self.edges.predecessors(o, p)
    }

    /// Edges incident to `o` (either endpoint), in canonical order.
    /// `O(log E + d log d)` for degree `d`, via both adjacency indices.
    pub fn edges_incident(&self, o: Oid) -> impl Iterator<Item = Edge> + '_ {
        self.edges.incident(o)
    }

    /// Nodes of class `c`, ascending by index. `O(log N + result)`:
    /// [`Oid`]'s class-major ordering makes each class a contiguous range
    /// of the node set.
    pub fn class_members(&self, c: ClassId) -> impl DoubleEndedIterator<Item = Oid> + '_ {
        self.nodes
            .range(Oid::new(c, 0)..=Oid::new(c, u32::MAX))
            .copied()
    }

    /// Iterate over all items, nodes first.
    pub fn items(&self) -> impl Iterator<Item = Item> + '_ {
        self.nodes()
            .map(Item::Node)
            .chain(self.edges().map(Item::Edge))
    }

    /// Membership test for a node.
    pub fn contains_node(&self, o: Oid) -> bool {
        self.nodes.contains(&o)
    }

    /// Membership test for an edge.
    pub fn contains_edge(&self, e: &Edge) -> bool {
        self.edges.contains(e)
    }

    /// Membership test for an item.
    pub fn contains(&self, item: &Item) -> bool {
        match item {
            Item::Node(o) => self.contains_node(*o),
            Item::Edge(e) => self.contains_edge(e),
        }
    }

    /// Insert a node. Returns `true` when newly inserted.
    pub fn insert_node(&mut self, o: Oid) -> bool {
        self.nodes.insert(o)
    }

    /// Insert an edge after checking it is well typed against the schema.
    /// Endpoints need *not* be present: partial instances may dangle.
    pub fn insert_edge(&mut self, e: Edge) -> Result<bool> {
        let prop = self.schema.property(e.prop);
        if prop.src != e.src.class || prop.dst != e.dst.class {
            return Err(ObjectBaseError::IllTypedEdge {
                property: prop.name.clone(),
                detail: format!(
                    "expected {} -> {}, got {} -> {}",
                    self.schema.class_name(prop.src),
                    self.schema.class_name(prop.dst),
                    self.schema.class_name(e.src.class),
                    self.schema.class_name(e.dst.class),
                ),
            });
        }
        Ok(self.edges.insert(e))
    }

    /// Insert an arbitrary item (edge typing still checked).
    pub fn insert(&mut self, item: Item) -> Result<bool> {
        match item {
            Item::Node(o) => Ok(self.insert_node(o)),
            Item::Edge(e) => self.insert_edge(e),
        }
    }

    /// Remove a node *without* touching incident edges (they dangle).
    pub fn remove_node(&mut self, o: Oid) -> bool {
        self.nodes.remove(&o)
    }

    /// Remove an edge.
    pub fn remove_edge(&mut self, e: &Edge) -> bool {
        self.edges.remove(e)
    }

    /// Remove an arbitrary item.
    pub fn remove(&mut self, item: &Item) -> bool {
        match item {
            Item::Node(o) => self.remove_node(*o),
            Item::Edge(e) => self.remove_edge(e),
        }
    }

    fn check_same_schema(&self, other: &Self) -> Result<()> {
        if Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema {
            Ok(())
        } else {
            Err(ObjectBaseError::SchemaMismatch)
        }
    }

    /// Item-wise union (Section 4.1).
    pub fn union(&self, other: &Self) -> Result<Self> {
        self.check_same_schema(other)?;
        let (big, small) = if self.edge_count() >= other.edge_count() {
            (&self.edges, &other.edges)
        } else {
            (&other.edges, &self.edges)
        };
        let mut edges = big.clone();
        for e in small.iter() {
            edges.insert(e);
        }
        Ok(Self {
            schema: Arc::clone(&self.schema),
            nodes: self.nodes.union(&other.nodes).copied().collect(),
            edges,
        })
    }

    /// Item-wise difference (Section 4.1).
    pub fn difference(&self, other: &Self) -> Result<Self> {
        self.check_same_schema(other)?;
        Ok(Self {
            schema: Arc::clone(&self.schema),
            nodes: self.nodes.difference(&other.nodes).copied().collect(),
            edges: self
                .edges
                .iter()
                .filter(|e| !other.edges.contains(e))
                .collect(),
        })
    }

    /// Item-wise intersection.
    pub fn intersection(&self, other: &Self) -> Result<Self> {
        self.check_same_schema(other)?;
        let (small, big) = if self.edge_count() <= other.edge_count() {
            (&self.edges, &other.edges)
        } else {
            (&other.edges, &self.edges)
        };
        Ok(Self {
            schema: Arc::clone(&self.schema),
            nodes: self.nodes.intersection(&other.nodes).copied().collect(),
            edges: small.iter().filter(|e| big.contains(e)).collect(),
        })
    }

    /// Item-wise subset test.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.nodes.is_subset(&other.nodes)
            && self.edges.len() <= other.edges.len()
            && self.edges.iter().all(|e| other.edges.contains(&e))
    }

    /// The operator **G** of Definition 4.4: the largest instance contained
    /// in this partial instance, obtained by eliminating all dangling edges.
    pub fn largest_instance(&self) -> Instance {
        let keep = Self {
            schema: Arc::clone(&self.schema),
            nodes: self.nodes.clone(),
            edges: self
                .edges
                .iter()
                .filter(|e| self.nodes.contains(&e.src) && self.nodes.contains(&e.dst))
                .collect(),
        };
        // Edges were type-checked on insertion and all dangling edges are
        // gone, so this cannot fail.
        Instance::from_partial_unchecked(keep)
    }

    /// Restriction `J|X` (Definition 4.5): remove all items whose label is
    /// not in `allowed`.
    pub fn restrict(&self, allowed: &BTreeSet<SchemaItem>) -> Self {
        // Whole properties are kept or dropped: decide each once, then
        // filter one canonical pass (inserts in canonical order are pushes).
        let keep: Vec<bool> = self
            .schema
            .properties()
            .map(|p| allowed.contains(&SchemaItem::Prop(p)))
            .collect();
        Self {
            schema: Arc::clone(&self.schema),
            nodes: self
                .nodes
                .iter()
                .copied()
                .filter(|o| allowed.contains(&SchemaItem::Class(o.class)))
                .collect(),
            edges: self
                .edges
                .iter()
                .filter(|e| keep[e.prop.0 as usize])
                .collect(),
        }
    }

    /// True when every edge has both endpoints present (i.e. this partial
    /// instance is in fact an instance).
    pub fn is_instance(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.nodes.contains(&e.src) && self.nodes.contains(&e.dst))
    }

    /// Invariant check (for tests) that both index views and the
    /// per-property counts agree.
    pub fn check_index_consistent(&self) {
        self.edges.check_consistent();
    }
}

impl PartialEq for PartialInstance {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for PartialInstance {}

impl PartialOrd for PartialInstance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PartialInstance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.nodes
            .cmp(&other.nodes)
            .then_with(|| self.edges.cmp(&other.edges))
    }
}

impl std::hash::Hash for PartialInstance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.nodes.hash(state);
        self.edges.hash(state);
    }
}

impl fmt::Debug for PartialInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartialInstance")
            .field("nodes", &self.nodes)
            .field("edges", &self.edges)
            .finish()
    }
}

impl fmt::Display for PartialInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "partial instance {{")?;
        for o in &self.nodes {
            writeln!(f, "  {}", Item::Node(*o).display(&self.schema))?;
        }
        for e in self.edges.iter() {
            writeln!(f, "  {}", Item::Edge(e).display(&self.schema))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassId;

    fn loop_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let c = b.class("C").unwrap();
        b.property(c, "e", c).unwrap();
        b.build()
    }

    #[test]
    fn dangling_edges_allowed_then_eliminated_by_g() {
        let s = loop_schema();
        let c = s.class("C").unwrap();
        let p = s.prop("e").unwrap();
        let (o1, o2) = (Oid::new(c, 1), Oid::new(c, 2));
        let mut j = PartialInstance::empty(Arc::clone(&s));
        j.insert_node(o1);
        j.insert_edge(Edge::new(o1, p, o2)).unwrap();
        assert!(!j.is_instance());
        let g = j.largest_instance();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn typing_enforced_even_when_dangling() {
        let mut b = Schema::builder();
        let a = b.class("A").unwrap();
        let c = b.class("B").unwrap();
        b.property(a, "e", c).unwrap();
        let s = b.build();
        let p = s.prop("e").unwrap();
        let mut j = PartialInstance::empty(Arc::clone(&s));
        let bad = Edge::new(Oid::new(ClassId(1), 0), p, Oid::new(ClassId(0), 0));
        assert!(j.insert_edge(bad).is_err());
    }

    #[test]
    fn set_operations_are_item_wise() {
        let s = loop_schema();
        let c = s.class("C").unwrap();
        let p = s.prop("e").unwrap();
        let (o1, o2) = (Oid::new(c, 1), Oid::new(c, 2));
        let mut x = PartialInstance::empty(Arc::clone(&s));
        x.insert_node(o1);
        x.insert_edge(Edge::new(o1, p, o2)).unwrap();
        let mut y = PartialInstance::empty(Arc::clone(&s));
        y.insert_node(o1);
        y.insert_node(o2);

        let u = x.union(&y).unwrap();
        assert_eq!(u.node_count(), 2);
        assert_eq!(u.edge_count(), 1);

        let d = x.difference(&y).unwrap();
        assert_eq!(d.node_count(), 0);
        assert_eq!(d.edge_count(), 1); // the edge dangles in the difference

        let i = x.intersection(&y).unwrap();
        assert_eq!(i.node_count(), 1);
        assert_eq!(i.edge_count(), 0);
    }

    #[test]
    fn restriction_filters_by_label() {
        let s = loop_schema();
        let c = s.class("C").unwrap();
        let p = s.prop("e").unwrap();
        let o = Oid::new(c, 0);
        let mut j = PartialInstance::empty(Arc::clone(&s));
        j.insert_node(o);
        j.insert_edge(Edge::new(o, p, o)).unwrap();

        let only_nodes: BTreeSet<_> = [SchemaItem::Class(c)].into();
        let r = j.restrict(&only_nodes);
        assert_eq!(r.node_count(), 1);
        assert_eq!(r.edge_count(), 0);

        let nothing: BTreeSet<SchemaItem> = BTreeSet::new();
        assert!(j.restrict(&nothing).is_empty());
    }

    #[test]
    fn structural_equality_ignores_schema_pointer() {
        let s1 = loop_schema();
        let s2 = loop_schema();
        let c = s1.class("C").unwrap();
        let mut x = PartialInstance::empty(s1);
        let mut y = PartialInstance::empty(s2);
        x.insert_node(Oid::new(c, 0));
        y.insert_node(Oid::new(c, 0));
        assert_eq!(x, y);
    }
}
