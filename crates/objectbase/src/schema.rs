//! Object-base schemas (Definition 2.1): finite, edge-labeled, directed
//! graphs whose nodes are class names and whose edges carry pairwise
//! distinct property names.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{ObjectBaseError, Result};

/// Interned identifier of a class name within one [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClassId(pub u32);

/// Interned identifier of a property name within one [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PropId(pub u32);

/// A schema edge `(B, e, C)`: property `e` of class `B` with type `C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Property {
    /// The property name `e`.
    pub name: String,
    /// The source class `B` ("`e` is a property *of* `B`").
    pub src: ClassId,
    /// The target class `C` ("… *of type* `C`").
    pub dst: ClassId,
}

/// An *item* of the schema graph: a class node or a property edge
/// (Definition 4.1 applied to schemas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SchemaItem {
    /// A class node.
    Class(ClassId),
    /// A property edge.
    Prop(PropId),
}

/// An object-base schema: class names plus uniquely labeled property edges.
///
/// Schemas are immutable once built; share them via [`Arc`] (instances hold
/// an `Arc<Schema>`). Build with [`SchemaBuilder`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schema {
    classes: Vec<String>,
    properties: Vec<Property>,
    class_index: BTreeMap<String, ClassId>,
    prop_index: BTreeMap<String, PropId>,
}

impl Schema {
    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Number of class names.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of property edges.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// All class ids, in declaration order.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// All property ids, in declaration order.
    pub fn properties(&self) -> impl Iterator<Item = PropId> + '_ {
        (0..self.properties.len() as u32).map(PropId)
    }

    /// All schema items: every class node followed by every property edge.
    pub fn items(&self) -> impl Iterator<Item = SchemaItem> + '_ {
        self.classes()
            .map(SchemaItem::Class)
            .chain(self.properties().map(SchemaItem::Prop))
    }

    /// The name of class `c`.
    pub fn class_name(&self, c: ClassId) -> &str {
        &self.classes[c.0 as usize]
    }

    /// The name of property `p`.
    pub fn prop_name(&self, p: PropId) -> &str {
        &self.properties[p.0 as usize].name
    }

    /// Full definition of property `p`.
    pub fn property(&self, p: PropId) -> &Property {
        &self.properties[p.0 as usize]
    }

    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.class_index.get(name).copied()
    }

    /// Look up a class by name, erroring when absent.
    pub fn class_checked(&self, name: &str) -> Result<ClassId> {
        self.class(name)
            .ok_or_else(|| ObjectBaseError::UnknownClass(name.to_owned()))
    }

    /// Look up a property by name.
    pub fn prop(&self, name: &str) -> Option<PropId> {
        self.prop_index.get(name).copied()
    }

    /// Look up a property by name, erroring when absent.
    pub fn prop_checked(&self, name: &str) -> Result<PropId> {
        self.prop(name)
            .ok_or_else(|| ObjectBaseError::UnknownProperty(name.to_owned()))
    }

    /// Properties of class `c` (edges leaving `c` in the schema graph).
    pub fn properties_of(&self, c: ClassId) -> impl Iterator<Item = PropId> + '_ {
        self.properties()
            .filter(move |&p| self.property(p).src == c)
    }

    /// Properties *into* class `c` (edges entering `c`).
    pub fn properties_into(&self, c: ClassId) -> impl Iterator<Item = PropId> + '_ {
        self.properties()
            .filter(move |&p| self.property(p).dst == c)
    }

    /// Properties incident to class `c` on either end. A self-loop
    /// `(C, e, C)` is yielded once.
    pub fn properties_incident(&self, c: ClassId) -> impl Iterator<Item = PropId> + '_ {
        self.properties()
            .filter(move |&p| self.property(p).src == c || self.property(p).dst == c)
    }

    /// Human-readable label of a schema item.
    pub fn item_name(&self, item: SchemaItem) -> &str {
        match item {
            SchemaItem::Class(c) => self.class_name(c),
            SchemaItem::Prop(p) => self.prop_name(p),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schema {{")?;
        for c in self.classes() {
            writeln!(f, "  class {}", self.class_name(c))?;
        }
        for p in self.properties() {
            let prop = self.property(p);
            writeln!(
                f,
                "  property {}: {} -> {}",
                prop.name,
                self.class_name(prop.src),
                self.class_name(prop.dst),
            )?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    classes: Vec<String>,
    properties: Vec<Property>,
    class_index: BTreeMap<String, ClassId>,
    prop_index: BTreeMap<String, PropId>,
}

impl SchemaBuilder {
    /// Declare a class name; errors on duplicates.
    pub fn class(&mut self, name: impl Into<String>) -> Result<ClassId> {
        let name = name.into();
        if self.class_index.contains_key(&name) {
            return Err(ObjectBaseError::DuplicateClass(name));
        }
        let id = ClassId(self.classes.len() as u32);
        self.class_index.insert(name.clone(), id);
        self.classes.push(name);
        Ok(id)
    }

    /// Declare a property edge `(src, name, dst)`; errors when the label is
    /// already in use (Definition 2.1 requires globally unique labels).
    pub fn property(
        &mut self,
        src: ClassId,
        name: impl Into<String>,
        dst: ClassId,
    ) -> Result<PropId> {
        let name = name.into();
        if self.prop_index.contains_key(&name) {
            return Err(ObjectBaseError::DuplicateProperty(name));
        }
        if src.0 as usize >= self.classes.len() {
            return Err(ObjectBaseError::UnknownClass(format!("#{}", src.0)));
        }
        if dst.0 as usize >= self.classes.len() {
            return Err(ObjectBaseError::UnknownClass(format!("#{}", dst.0)));
        }
        let id = PropId(self.properties.len() as u32);
        self.prop_index.insert(name.clone(), id);
        self.properties.push(Property { name, src, dst });
        Ok(id)
    }

    /// Look up a class already declared on this builder. Ids are assigned
    /// in declaration order, so they remain valid after [`Self::build`].
    pub fn declared_class(&self, name: &str) -> Option<ClassId> {
        self.class_index.get(name).copied()
    }

    /// Finish building, wrapping the schema in an [`Arc`] for sharing.
    pub fn build(self) -> Arc<Schema> {
        Arc::new(Schema {
            classes: self.classes,
            properties: self.properties,
            class_index: self.class_index,
            prop_index: self.prop_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beer_schema() -> Arc<Schema> {
        let mut b = Schema::builder();
        let drinker = b.class("Drinker").unwrap();
        let bar = b.class("Bar").unwrap();
        let beer = b.class("Beer").unwrap();
        b.property(drinker, "frequents", bar).unwrap();
        b.property(drinker, "likes", beer).unwrap();
        b.property(bar, "serves", beer).unwrap();
        b.build()
    }

    #[test]
    fn builds_the_running_example() {
        let s = beer_schema();
        assert_eq!(s.class_count(), 3);
        assert_eq!(s.property_count(), 3);
        let drinker = s.class("Drinker").unwrap();
        let frequents = s.prop("frequents").unwrap();
        assert_eq!(s.property(frequents).src, drinker);
        assert_eq!(s.class_name(s.property(frequents).dst), "Bar");
    }

    #[test]
    fn rejects_duplicate_class() {
        let mut b = Schema::builder();
        b.class("C").unwrap();
        assert_eq!(
            b.class("C").unwrap_err(),
            ObjectBaseError::DuplicateClass("C".into())
        );
    }

    #[test]
    fn rejects_duplicate_property_label() {
        let mut b = Schema::builder();
        let a = b.class("A").unwrap();
        let c = b.class("B").unwrap();
        b.property(a, "e", c).unwrap();
        // Even between *different* class pairs, labels must be unique.
        assert_eq!(
            b.property(c, "e", a).unwrap_err(),
            ObjectBaseError::DuplicateProperty("e".into())
        );
    }

    #[test]
    fn items_enumerates_classes_then_properties() {
        let s = beer_schema();
        let items: Vec<_> = s.items().collect();
        assert_eq!(items.len(), 6);
        assert!(matches!(items[0], SchemaItem::Class(_)));
        assert!(matches!(items[5], SchemaItem::Prop(_)));
    }

    #[test]
    fn incident_iterators() {
        let s = beer_schema();
        let bar = s.class("Bar").unwrap();
        let of: Vec<_> = s
            .properties_of(bar)
            .map(|p| s.prop_name(p).to_owned())
            .collect();
        assert_eq!(of, ["serves"]);
        let into: Vec<_> = s
            .properties_into(bar)
            .map(|p| s.prop_name(p).to_owned())
            .collect();
        assert_eq!(into, ["frequents"]);
        let incident: Vec<_> = s
            .properties_incident(bar)
            .map(|p| s.prop_name(p).to_owned())
            .collect();
        assert_eq!(incident, ["frequents", "serves"]);
    }

    #[test]
    fn self_loop_incident_once() {
        let mut b = Schema::builder();
        let c = b.class("C").unwrap();
        b.property(c, "e", c).unwrap();
        let s = b.build();
        assert_eq!(s.properties_incident(c).count(), 1);
    }

    #[test]
    fn display_is_stable() {
        let s = beer_schema();
        let text = s.to_string();
        assert!(text.contains("property serves: Bar -> Beer"));
    }
}
