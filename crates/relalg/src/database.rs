//! The relational representation of object-base instances
//! (Proposition 5.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use receivers_objectbase::{ClassId, Edge, Instance, Oid, PropId, Schema};

use crate::error::{RelAlgError, Result};
use crate::expr::RelName;
use crate::relation::Relation;
use crate::schema::RelSchema;

/// The relational database corresponding to an object-base instance:
/// one unary relation per class, one binary relation per property.
///
/// Conversion is lossless in both directions (Proposition 5.1): see
/// [`Database::from_instance`] and [`Database::to_instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    schema: Arc<Schema>,
    classes: BTreeMap<ClassId, Relation>,
    props: BTreeMap<PropId, Relation>,
}

/// Hashes the relation contents only. `Schema` has no `Hash` impl, and
/// equal databases (which share equal relation maps) still hash equal, so
/// consistency with `Eq` holds.
impl std::hash::Hash for Database {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.classes.hash(state);
        self.props.hash(state);
    }
}

/// The relation scheme of a base relation.
///
/// * `Class(C)` — unary scheme with one attribute named after the class,
///   of domain `C`;
/// * `Prop(p)` for a schema edge `(C, a, B)` — binary scheme `Ca` with
///   attributes named after `C` (domain `C`) and after `a` (domain `B`),
///   exactly as in Section 5.1.
pub fn base_schema(schema: &Schema, rel: RelName) -> RelSchema {
    match rel {
        RelName::Class(c) => RelSchema::unary(schema.class_name(c), c),
        RelName::Prop(p) => {
            let prop = schema.property(p);
            RelSchema::new(vec![
                (schema.class_name(prop.src).to_owned(), prop.src),
                (prop.name.clone(), prop.dst),
            ])
            .expect("class and property namespaces are disjoint")
        }
    }
}

impl Database {
    /// Build the relational representation of `instance`.
    ///
    /// Each class relation adopts one contiguous node range. The property
    /// relations come from one canonical pass over the edges, bucketed by
    /// property: the canonical `(src, prop, dst)` order leaves every
    /// bucket's `(src, dst)` rows strictly sorted, so each relation adopts
    /// its bucket without a per-row insert. `O(N + E)` overall.
    pub fn from_instance(instance: &Instance) -> Self {
        let schema = Arc::clone(instance.schema());
        let classes = schema
            .classes()
            .map(|c| {
                let rows = instance.class_members(c).collect();
                let r =
                    Relation::from_typed_sorted_rows(base_schema(&schema, RelName::Class(c)), rows);
                (c, r)
            })
            .collect();
        let index = instance.as_partial().edge_index();
        let mut buckets: Vec<Vec<Oid>> = schema
            .properties()
            .map(|p| Vec::with_capacity(2 * index.labeled_len(p)))
            .collect();
        for e in index.iter() {
            let rows = &mut buckets[e.prop.0 as usize];
            rows.push(e.src);
            rows.push(e.dst);
        }
        let props = schema
            .properties()
            .zip(buckets)
            .map(|(p, rows)| {
                let r =
                    Relation::from_typed_sorted_rows(base_schema(&schema, RelName::Prop(p)), rows);
                (p, r)
            })
            .collect();
        Self {
            schema,
            classes,
            props,
        }
    }

    /// The object-base schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Look up a base relation.
    pub fn relation(&self, rel: RelName) -> Result<&Relation> {
        match rel {
            RelName::Class(c) => self
                .classes
                .get(&c)
                .ok_or_else(|| RelAlgError::UnknownRelation(format!("C{}", c.0))),
            RelName::Prop(p) => self
                .props
                .get(&p)
                .ok_or_else(|| RelAlgError::UnknownRelation(format!("P{}", p.0))),
        }
    }

    /// Replace the contents of a property relation (used by algebraic
    /// method application when rebuilding instances).
    pub fn set_prop(&mut self, p: PropId, r: Relation) -> Result<()> {
        let expected = base_schema(&self.schema, RelName::Prop(p));
        if !expected.union_compatible(r.schema()) {
            return Err(RelAlgError::SchemaMismatch {
                op: "set_prop",
                left: expected.to_string(),
                right: r.schema().to_string(),
            });
        }
        self.props.insert(p, r);
        Ok(())
    }

    /// Insert the class tuple `{o}` for a newly added object. `O(log N)` —
    /// the touched-tuple primitive behind incremental maintenance
    /// ([`DatabaseView`](crate::view::DatabaseView)). Returns `true` when
    /// the tuple was new.
    pub fn insert_node_tuple(&mut self, o: Oid) -> Result<bool> {
        self.classes
            .get_mut(&o.class)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("C{}", o.class.0)))?
            .insert(&[o])
    }

    /// Remove the class tuple `{o}`. `O(log N)`. Returns `true` when the
    /// tuple was present.
    pub fn remove_node_tuple(&mut self, o: Oid) -> Result<bool> {
        Ok(self
            .classes
            .get_mut(&o.class)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("C{}", o.class.0)))?
            .remove(&[o]))
    }

    /// Insert the property tuple `(src, dst)` for a newly added edge.
    /// `O(log E)`. Returns `true` when the tuple was new.
    pub fn insert_edge_tuple(&mut self, e: &Edge) -> Result<bool> {
        self.props
            .get_mut(&e.prop)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("P{}", e.prop.0)))?
            .insert(&[e.src, e.dst])
    }

    /// Remove the property tuple `(src, dst)`. `O(log E)`. Returns `true`
    /// when the tuple was present.
    pub fn remove_edge_tuple(&mut self, e: &Edge) -> Result<bool> {
        Ok(self
            .props
            .get_mut(&e.prop)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("P{}", e.prop.0)))?
            .remove(&[e.src, e.dst]))
    }

    /// Apply a netted batch of class-tuple edits to `class`'s relation:
    /// insert every oid of `adds`, remove every oid of `dels` (both
    /// sorted and mutually disjoint). One consolidation per relation per
    /// transaction — see [`Relation::apply_row_edits`].
    pub fn apply_node_edits(&mut self, class: ClassId, adds: &[Oid], dels: &[Oid]) -> Result<()> {
        self.classes
            .get_mut(&class)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("C{}", class.0)))?
            .apply_row_edits(adds, dels)
    }

    /// Apply a netted batch of property-tuple edits to `prop`'s relation:
    /// `adds` and `dels` are flat `(src, dst)`-chunked row buffers, each
    /// sorted, mutually disjoint. See [`Relation::apply_row_edits`].
    pub fn apply_edge_edits(&mut self, prop: PropId, adds: &[Oid], dels: &[Oid]) -> Result<()> {
        self.props
            .get_mut(&prop)
            .ok_or_else(|| RelAlgError::UnknownRelation(format!("P{}", prop.0)))?
            .apply_row_edits(adds, dels)
    }

    /// The `src`'s `prop`-successors in ascending oid order — the
    /// relational analogue of `Instance::successors`, answered by the flat
    /// kernel's prefix probe in `O(log E + d)`. Yields nothing for an
    /// unknown property, matching the empty successor set.
    pub fn prop_successors(&self, prop: PropId, src: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.props.get(&prop).into_iter().flat_map(move |r| {
            let ts = r.tuple_set();
            ts.range_iter(ts.prefix_bounds(&[src])).map(|t| t[1])
        })
    }

    /// Recover the object-base instance (the inverse direction of
    /// Proposition 5.1). Fails when an edge tuple references an object that
    /// is not in its class relation, i.e. when the inclusion dependencies
    /// `Ca[C] ⊆ C[C]` and `Ca[a] ⊆ B[B]` are violated.
    pub fn to_instance(&self) -> Result<Instance> {
        let mut i = Instance::empty(Arc::clone(&self.schema));
        for r in self.classes.values() {
            for t in r.tuples() {
                i.add_object(t[0]);
            }
        }
        for (&p, r) in &self.props {
            for t in r.tuples() {
                i.add_edge(Edge::new(t[0], p, t[1])).map_err(|_| {
                    RelAlgError::IllTypedTuple(format!(
                        "edge tuple of relation P{} violates an inclusion dependency",
                        p.0
                    ))
                })?;
            }
        }
        Ok(i)
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.classes
            .values()
            .chain(self.props.values())
            .map(Relation::len)
            .sum()
    }
}

/// Objects appearing anywhere in a unary/binary relation column of the
/// database-derived kind. Convenience used in tests.
pub fn column_objects(r: &Relation) -> impl Iterator<Item = Oid> + '_ {
    r.tuples().flat_map(|t| t.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::{beer_schema, figure1};

    #[test]
    fn round_trip_preserves_instances() {
        let s = beer_schema();
        let i = figure1(&s);
        let db = Database::from_instance(&i);
        let back = db.to_instance().unwrap();
        assert_eq!(i, back);
    }

    /// The prefix probe agrees with the instance's successor sets, in the
    /// same ascending order.
    #[test]
    fn prop_successors_matches_instance_successors() {
        let s = beer_schema();
        let i = figure1(&s);
        let db = Database::from_instance(&i);
        for o in i.nodes() {
            for p in s.schema.properties() {
                assert_eq!(
                    db.prop_successors(p, o).collect::<Vec<_>>(),
                    i.successors(o, p).collect::<Vec<_>>(),
                    "successors of {o:?} over P{}",
                    p.0
                );
            }
        }
    }

    #[test]
    fn relation_shapes_match_section_5_1() {
        let s = beer_schema();
        let i = figure1(&s);
        let db = Database::from_instance(&i);
        let drinkers = db.relation(RelName::Class(s.drinker)).unwrap();
        assert_eq!(drinkers.schema().arity(), 1);
        assert_eq!(drinkers.len(), 2);
        let serves = db.relation(RelName::Prop(s.serves)).unwrap();
        assert_eq!(serves.schema().arity(), 2);
        assert_eq!(
            serves.schema().attrs().collect::<Vec<_>>(),
            ["Bar", "serves"]
        );
    }

    #[test]
    fn to_instance_rejects_ind_violations() {
        let s = beer_schema();
        let i = figure1(&s);
        let mut db = Database::from_instance(&i);
        // Point a serves-edge at a bar object that is not in class Bar.
        let ghost_bar = Oid::new(s.bar, 99);
        let beer = i.class_members(s.beer).next().unwrap();
        let mut serves = db.relation(RelName::Prop(s.serves)).unwrap().clone();
        serves.insert(&[ghost_bar, beer]).unwrap();
        db.set_prop(s.serves, serves).unwrap();
        assert!(db.to_instance().is_err());
    }
}
