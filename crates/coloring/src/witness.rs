//! The constructive witness of Proposition 4.13: for every sound coloring
//! (under the inflationary axiomatization of use), an update method whose
//! behaviour exhibits exactly the colored capabilities.
//!
//! Construction, following the proof verbatim: distinct *fixed objects*
//! `o_c^X, o_u^X, o_d^X` are reserved in every class `X`, and
//! `o_1^e, o_2^e` (source class) and `o_3^e, o_4^e` (target class) for
//! every schema edge `e`. The method, regardless of the receiver,
//! performs per-item actions determined by the item's colors — add,
//! conditional add, *provisional delete*, *provisional create*, edge
//! removal — plus, for items colored exactly `{u}` that no other action
//! tests, a divergence guard ("go into an infinite loop" in the paper; a
//! reified [`MethodOutcome::Diverges`] here).
//!
//! All presence tests are evaluated against the *input* instance and all
//! effects applied to a working copy: the fixed objects of distinct items
//! are distinct, so the only possible interferences are class-presence
//! tests, and evaluating them on the input matches the proof's intent and
//! keeps the method deterministic.

use std::collections::BTreeMap;
use std::sync::Arc;

use receivers_objectbase::{
    ClassId, Edge, Instance, MethodOutcome, Oid, PropId, Receiver, Schema, SchemaItem, Signature,
    UpdateMethod,
};

use crate::coloring::{Color, ColorSet, Coloring};
use crate::soundness::sound_inflationary;

/// Index base for the reserved fixed objects, chosen high so that test
/// instances (which number objects from 0) never collide with them.
const FIXED_BASE: u32 = 1_000_000;

/// The reserved fixed objects of the construction.
#[derive(Debug, Clone)]
pub struct FixedObjects {
    /// Per class: `(o_c, o_u, o_d)`.
    pub node: BTreeMap<ClassId, (Oid, Oid, Oid)>,
    /// Per edge: `(o_1, o_2, o_3, o_4)` with `o_1, o_2` in the source
    /// class and `o_3, o_4` in the target class.
    pub edge: BTreeMap<PropId, (Oid, Oid, Oid, Oid)>,
}

impl FixedObjects {
    /// Allocate the reserved objects for a schema (shared by both witness
    /// constructions).
    pub fn allocate_public(schema: &Schema) -> Self {
        Self::allocate(schema)
    }

    /// The `(o_c, o_u, o_d)` triple of a class.
    pub fn node_objects(&self, c: ClassId) -> (Oid, Oid, Oid) {
        self.node[&c]
    }

    /// The `(o_1, o_2, o_3, o_4)` tuple of an edge.
    pub fn edge_objects(&self, p: PropId) -> (Oid, Oid, Oid, Oid) {
        self.edge[&p]
    }

    fn allocate(schema: &Schema) -> Self {
        let mut counters: BTreeMap<ClassId, u32> = BTreeMap::new();
        let mut fresh = |c: ClassId| {
            let n = counters.entry(c).or_insert(FIXED_BASE);
            let o = Oid::new(c, *n);
            *n += 1;
            o
        };
        let node = schema
            .classes()
            .map(|c| (c, (fresh(c), fresh(c), fresh(c))))
            .collect();
        let edge = schema
            .properties()
            .map(|p| {
                let prop = schema.property(p);
                (
                    p,
                    (
                        fresh(prop.src),
                        fresh(prop.src),
                        fresh(prop.dst),
                        fresh(prop.dst),
                    ),
                )
            })
            .collect();
        Self { node, edge }
    }
}

/// One primitive action of the witness method.
#[derive(Debug, Clone)]
enum Action {
    /// `{c}` node: add `o_c^X` unconditionally.
    AddNode(Oid),
    /// `{c,u}` node: if `o_u^X` is present, add `o_c^X`.
    AddNodeIfPresent { test: Oid, add: Oid },
    /// Provisional deletion of a fixed object (node `{d,u}` case and edge
    /// `{d}` case); the tests are derived from the coloring at apply time.
    ProvisionalDeleteNode(Oid),
    /// Provisional creation of the edge `(o_1, e, o_3)` (edge `{c}`
    /// case).
    ProvisionalCreateEdge(Edge),
    /// `{c,u}` edge: if the test edge `(o_2, e, o_4)` is present,
    /// provisionally create `(o_1, e, o_3)`.
    CreateEdgeIfPresent { test: Edge, create: Edge },
    /// `{d,u}` edge: remove `(o_1, e, o_3)`.
    RemoveEdge(Edge),
    /// `{u}`-only node guard: diverge unless `o_u^X` is present.
    DivergeUnlessNode(Oid),
    /// `{u}`-only edge guard: diverge unless `(o_2, e, o_4)` is present.
    DivergeUnlessEdge(Edge),
}

/// The witness update method of a sound coloring.
pub struct WitnessMethod {
    schema: Arc<Schema>,
    coloring: Coloring,
    signature: Signature,
    fixed: FixedObjects,
    actions: Vec<Action>,
    name: String,
}

impl WitnessMethod {
    /// Build the witness for a coloring that is sound under
    /// Proposition 4.13. Returns `None` when the coloring is unsound (the
    /// construction is only defined for sound colorings).
    pub fn new(coloring: Coloring) -> Option<Self> {
        if !sound_inflationary(&coloring).is_empty() {
            return None;
        }
        let schema = Arc::clone(coloring.schema());
        let fixed = FixedObjects::allocate(&schema);
        // Signature: any tuple of u-colored classes; we use the first
        // u-colored class as receiving class (property 4 guarantees one).
        let receiving = schema
            .classes()
            .find(|&c| coloring.get(SchemaItem::Class(c)).contains(Color::U))?;
        let signature = Signature::new(vec![receiving]).expect("non-empty");

        let mut actions = Vec::new();
        let mut tested: std::collections::BTreeSet<SchemaItem> = Default::default();

        // Per-node actions.
        for x in schema.classes() {
            let k = coloring.get(SchemaItem::Class(x));
            let (oc, ou, od) = fixed.node[&x];
            let has = |c: Color| k.contains(c);
            match (has(Color::C), has(Color::D), has(Color::U)) {
                (true, false, false) => actions.push(Action::AddNode(oc)),
                (true, false, true) => {
                    actions.push(Action::AddNodeIfPresent { test: ou, add: oc });
                    tested.insert(SchemaItem::Class(x));
                }
                (false, true, true) => {
                    actions.push(Action::ProvisionalDeleteNode(od));
                    note_provisional_delete_tests(&coloring, &schema, x, &mut tested);
                }
                (true, true, true) => {
                    actions.push(Action::AddNodeIfPresent { test: ou, add: oc });
                    tested.insert(SchemaItem::Class(x));
                    actions.push(Action::ProvisionalDeleteNode(od));
                    note_provisional_delete_tests(&coloring, &schema, x, &mut tested);
                }
                // {d} and {c,d} on nodes are excluded by soundness;
                // ∅ and {u} need no action here.
                _ => {}
            }
        }

        // Per-edge actions.
        for e in schema.properties() {
            let k = coloring.get(SchemaItem::Prop(e));
            let prop = schema.property(e).clone();
            let (o1, o2, o3, o4) = fixed.edge[&e];
            let create = Edge::new(o1, e, o3);
            let test_edge = Edge::new(o2, e, o4);
            let has = |c: Color| k.contains(c);
            let note_create_tests = |tested: &mut std::collections::BTreeSet<SchemaItem>| {
                // The provisional create tests o1 (when A is not c) and o3
                // (when B is not c); by property 2 those classes are u.
                if !coloring.get(SchemaItem::Class(prop.src)).contains(Color::C) {
                    tested.insert(SchemaItem::Class(prop.src));
                }
                if !coloring.get(SchemaItem::Class(prop.dst)).contains(Color::C) {
                    tested.insert(SchemaItem::Class(prop.dst));
                }
            };
            match (has(Color::C), has(Color::D), has(Color::U)) {
                (true, false, false) => {
                    actions.push(Action::ProvisionalCreateEdge(create));
                    note_create_tests(&mut tested);
                }
                (false, true, false) => {
                    // Soundness property 1: some incident node is d.
                    let victim = if coloring.get(SchemaItem::Class(prop.src)).contains(Color::D) {
                        o1
                    } else {
                        o3
                    };
                    actions.push(Action::ProvisionalDeleteNode(victim));
                    note_provisional_delete_tests(&coloring, &schema, victim.class, &mut tested);
                }
                (true, true, false) => {
                    actions.push(Action::ProvisionalCreateEdge(create));
                    note_create_tests(&mut tested);
                    let victim = if coloring.get(SchemaItem::Class(prop.src)).contains(Color::D) {
                        o1
                    } else {
                        o3
                    };
                    actions.push(Action::ProvisionalDeleteNode(victim));
                    note_provisional_delete_tests(&coloring, &schema, victim.class, &mut tested);
                }
                (true, false, true) => {
                    actions.push(Action::CreateEdgeIfPresent {
                        test: test_edge,
                        create,
                    });
                    tested.insert(SchemaItem::Prop(e));
                    note_create_tests(&mut tested);
                }
                (false, true, true) => actions.push(Action::RemoveEdge(create)),
                (true, true, true) => {
                    actions.push(Action::ProvisionalCreateEdge(create));
                    note_create_tests(&mut tested);
                    actions.push(Action::RemoveEdge(Edge::new(o2, e, o4)));
                }
                _ => {}
            }
        }

        // {u}-only guards for untested items.
        for x in schema.classes() {
            let item = SchemaItem::Class(x);
            if coloring.get(item) == ColorSet::ONLY_U && !tested.contains(&item) {
                actions.push(Action::DivergeUnlessNode(fixed.node[&x].1));
            }
        }
        for e in schema.properties() {
            let item = SchemaItem::Prop(e);
            if coloring.get(item) == ColorSet::ONLY_U && !tested.contains(&item) {
                let (_, o2, _, o4) = fixed.edge[&e];
                actions.push(Action::DivergeUnlessEdge(Edge::new(o2, e, o4)));
            }
        }

        Some(Self {
            schema,
            coloring,
            signature,
            fixed,
            actions,
            name: "witness(Prop. 4.13)".to_owned(),
        })
    }

    /// The coloring this method realizes.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The reserved fixed objects (so tests can seed instances).
    pub fn fixed_objects(&self) -> &FixedObjects {
        &self.fixed
    }

    /// Should the provisional deletion of `victim` (class `x`) proceed on
    /// input `i`? Per the proof's `{d,u}` node case: every incident
    /// schema edge contributes a veto test.
    fn provisional_delete_allowed(&self, i: &Instance, victim: Oid) -> bool {
        let x = victim.class;
        for p in self.schema.properties_incident(x) {
            let ek = self.coloring.get(SchemaItem::Prop(p));
            let prop = self.schema.property(p);
            if !ek.contains(Color::D) && ek.contains(Color::U) {
                // Test for e-labeled edges incident to the victim.
                let incident = (prop.src == x && i.successors(victim, p).next().is_some())
                    || (prop.dst == x && i.predecessors(victim, p).next().is_some());
                if incident {
                    return false;
                }
            } else if !ek.contains(Color::D) && !ek.contains(Color::U) {
                // Test for any node of the other endpoint class.
                let other = if prop.src == x { prop.dst } else { prop.src };
                if i.class_members(other).next().is_some() {
                    return false;
                }
            }
        }
        true
    }

    /// Should the provisional creation of `edge` proceed? Per the `{c}`
    /// edge case: fail when an endpoint is absent and its class is not
    /// colored `c`.
    fn provisional_create_allowed(&self, i: &Instance, edge: &Edge) -> bool {
        let src_ok = i.contains_node(edge.src)
            || self
                .coloring
                .get(SchemaItem::Class(edge.src.class))
                .contains(Color::C);
        let dst_ok = i.contains_node(edge.dst)
            || self
                .coloring
                .get(SchemaItem::Class(edge.dst.class))
                .contains(Color::C);
        src_ok && dst_ok
    }
}

fn note_provisional_delete_tests(
    coloring: &Coloring,
    schema: &Schema,
    x: ClassId,
    tested: &mut std::collections::BTreeSet<SchemaItem>,
) {
    for p in schema.properties_incident(x) {
        let ek = coloring.get(SchemaItem::Prop(p));
        let prop = schema.property(p);
        if !ek.contains(Color::D) && ek.contains(Color::U) {
            tested.insert(SchemaItem::Prop(p));
        } else if !ek.contains(Color::D) && !ek.contains(Color::U) {
            let other = if prop.src == x { prop.dst } else { prop.src };
            tested.insert(SchemaItem::Class(other));
        }
    }
}

impl UpdateMethod for WitnessMethod {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        if let Err(e) = receiver.validate(&self.signature, instance) {
            return MethodOutcome::Undefined(e.to_string());
        }
        let mut out = instance.clone();
        for action in &self.actions {
            match action {
                Action::AddNode(o) => {
                    out.add_object(*o);
                }
                Action::AddNodeIfPresent { test, add } => {
                    if instance.contains_node(*test) {
                        out.add_object(*add);
                    }
                }
                Action::ProvisionalDeleteNode(victim) => {
                    if self.provisional_delete_allowed(instance, *victim) {
                        out.remove_object_cascade(*victim);
                    }
                }
                Action::ProvisionalCreateEdge(edge) => {
                    if self.provisional_create_allowed(instance, edge) {
                        out.add_object(edge.src);
                        out.add_object(edge.dst);
                        out.add_edge(*edge).expect("typed by construction");
                    }
                }
                Action::CreateEdgeIfPresent { test, create } => {
                    if instance.contains_edge(test)
                        && self.provisional_create_allowed(instance, create)
                    {
                        out.add_object(create.src);
                        out.add_object(create.dst);
                        out.add_edge(*create).expect("typed by construction");
                    }
                }
                Action::RemoveEdge(edge) => {
                    out.remove_edge(edge);
                }
                Action::DivergeUnlessNode(o) => {
                    if !instance.contains_node(*o) {
                        return MethodOutcome::Diverges;
                    }
                }
                Action::DivergeUnlessEdge(e) => {
                    if !instance.contains_edge(e) {
                        return MethodOutcome::Diverges;
                    }
                }
            }
        }
        MethodOutcome::Done(out)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use receivers_objectbase::examples::beer_schema;

    /// A simple sound coloring: u on everything except frequents, c on
    /// frequents (Example 4.15). The witness must be inflationary.
    fn simple_coloring() -> Coloring {
        let s = beer_schema();
        let mut k = Coloring::empty(Arc::clone(&s.schema));
        for item in [
            SchemaItem::Class(s.drinker),
            SchemaItem::Class(s.bar),
            SchemaItem::Class(s.beer),
            SchemaItem::Prop(s.likes),
            SchemaItem::Prop(s.serves),
        ] {
            k.add(item, Color::U);
        }
        k.add(SchemaItem::Prop(s.frequents), Color::C);
        k
    }

    fn seeded_instance(m: &WitnessMethod) -> (Instance, Receiver) {
        let s = m.coloring.schema();
        let mut i = Instance::empty(Arc::clone(s));
        // Seed all u-test objects and edges so guards pass.
        for (&_c, &(_, ou, od)) in &m.fixed.node {
            i.add_object(ou);
            i.add_object(od);
        }
        for (&p, &(o1, o2, o3, o4)) in &m.fixed.edge {
            for o in [o1, o2, o3, o4] {
                i.add_object(o);
            }
            i.add_edge(Edge::new(o2, p, o4)).unwrap();
        }
        let receiving = m.signature.receiving_class();
        let r = i.class_members(receiving).next().unwrap();
        (i, Receiver::new(vec![r]))
    }

    #[test]
    fn unsound_colorings_are_rejected() {
        let s = beer_schema();
        let k = Coloring::empty(Arc::clone(&s.schema));
        assert!(WitnessMethod::new(k).is_none());
    }

    #[test]
    fn simple_witness_is_inflationary() {
        let m = WitnessMethod::new(simple_coloring()).unwrap();
        let (i, r) = seeded_instance(&m);
        let out = m.apply(&i, &r).expect_done("witness");
        assert!(
            i.as_partial().is_subset(out.as_partial()),
            "Proposition 4.10: a simple minimal coloring implies I ⊆ M(I,t)"
        );
    }

    #[test]
    fn witness_creates_only_c_colored_types() {
        let s = beer_schema();
        let m = WitnessMethod::new(simple_coloring()).unwrap();
        let (i, r) = seeded_instance(&m);
        let out = m.apply(&i, &r).expect_done("witness");
        let created = out.as_partial().difference(i.as_partial()).unwrap();
        for item in created.items() {
            assert_eq!(
                item.label(),
                SchemaItem::Prop(s.frequents),
                "only the c-colored type may be created"
            );
        }
        assert!(created.edge_count() > 0, "the c action must fire");
    }

    #[test]
    fn u_only_guard_diverges_when_item_absent() {
        let m = WitnessMethod::new(simple_coloring()).unwrap();
        let (mut i, r) = seeded_instance(&m);
        // Remove the u-test edge for `serves` — a {u}-only item.
        let s = beer_schema();
        let (_, o2, _, o4) = m.fixed.edge[&s.serves];
        i.remove_edge(&Edge::new(o2, s.serves, o4));
        assert_eq!(m.apply(&i, &r), MethodOutcome::Diverges);
    }

    #[test]
    fn d_colored_witness_deletes() {
        let s = beer_schema();
        let mut k = Coloring::empty(Arc::clone(&s.schema));
        // Delete beers: Beer {d,u}; every incident edge must allow the
        // deletion tests — color likes and serves {d} is not allowed on
        // edges without an incident d node… color them {d,u}? Simplest
        // sound choice: Beer {d,u}, likes/serves {d,u}, Drinker/Bar u.
        k.add(SchemaItem::Class(s.beer), Color::D);
        k.add(SchemaItem::Class(s.beer), Color::U);
        for e in [s.likes, s.serves] {
            k.add(SchemaItem::Prop(e), Color::D);
            k.add(SchemaItem::Prop(e), Color::U);
        }
        k.add(SchemaItem::Class(s.drinker), Color::U);
        k.add(SchemaItem::Class(s.bar), Color::U);
        assert!(sound_inflationary(&k).is_empty());
        let m = WitnessMethod::new(k).unwrap();
        let (i, r) = seeded_instance(&m);
        let out = m.apply(&i, &r).expect_done("witness");
        let deleted = i.as_partial().difference(out.as_partial()).unwrap();
        assert!(!deleted.is_empty(), "the d actions must delete something");
        for item in deleted.items() {
            let label = item.label();
            assert!(
                matches!(label, SchemaItem::Class(c) if c == s.beer)
                    || matches!(label, SchemaItem::Prop(p) if p == s.likes || p == s.serves),
                "only d-colored types may be deleted, got {label:?}"
            );
        }
    }
}
