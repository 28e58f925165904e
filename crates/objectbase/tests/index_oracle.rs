//! Differential test of the indexed edge storage: drive a
//! [`PartialInstance`] and a naive flat-set oracle through identical
//! random insert/remove sequences and require every public view — nodes,
//! edges, labeled scans, the property set, successor/predecessor/incidence
//! lookups, equality, ordering, hashing — to agree at every step. A
//! high-degree arm pushes one forward and one reverse adjacency list
//! across the small-vector bound in both directions.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers_objectbase::examples::beer_schema;
use receivers_objectbase::index::ADJ_BOUND;
use receivers_objectbase::{Edge, Oid, PartialInstance, PropId};

/// The reference model: the flat item sets the pre-index implementation
/// stored directly.
#[derive(Default, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Oracle {
    nodes: BTreeSet<Oid>,
    edges: BTreeSet<Edge>,
}

impl Oracle {
    fn successors(&self, o: Oid, p: PropId) -> Vec<Oid> {
        self.edges
            .iter()
            .filter(|e| e.src == o && e.prop == p)
            .map(|e| e.dst)
            .collect()
    }

    fn predecessors(&self, o: Oid, p: PropId) -> Vec<Oid> {
        self.edges
            .iter()
            .filter(|e| e.dst == o && e.prop == p)
            .map(|e| e.src)
            .collect()
    }
}

struct Universe {
    props: Vec<(
        PropId,
        receivers_objectbase::ClassId,
        receivers_objectbase::ClassId,
    )>,
    classes: Vec<receivers_objectbase::ClassId>,
    objects_per_class: u32,
}

impl Universe {
    fn random_node(&self, rng: &mut StdRng) -> Oid {
        let c = self.classes[rng.random_range(0..self.classes.len())];
        Oid::new(c, rng.random_range(0..self.objects_per_class))
    }

    /// A well-typed (possibly dangling) edge.
    fn random_edge(&self, rng: &mut StdRng) -> Edge {
        let (p, src, dst) = self.props[rng.random_range(0..self.props.len())];
        Edge::new(
            Oid::new(src, rng.random_range(0..self.objects_per_class)),
            p,
            Oid::new(dst, rng.random_range(0..self.objects_per_class)),
        )
    }
}

fn check_agreement(subject: &PartialInstance, oracle: &Oracle, u: &Universe) {
    subject.check_index_consistent();

    assert_eq!(
        subject.nodes().collect::<Vec<_>>(),
        oracle.nodes.iter().copied().collect::<Vec<_>>(),
        "node views diverged"
    );
    assert_eq!(
        subject.edges().collect::<Vec<_>>(),
        oracle.edges.iter().copied().collect::<Vec<_>>(),
        "edge views diverged (canonical order)"
    );
    assert_eq!(subject.node_count(), oracle.nodes.len());
    assert_eq!(subject.edge_count(), oracle.edges.len());
    assert_eq!(
        subject.edge_index().properties().collect::<Vec<_>>(),
        oracle
            .edges
            .iter()
            .map(|e| e.prop)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>(),
        "property sets diverged"
    );

    for &(p, _, _) in &u.props {
        assert_eq!(
            subject.edges_labeled(p).collect::<Vec<_>>(),
            oracle
                .edges
                .iter()
                .filter(|e| e.prop == p)
                .copied()
                .collect::<Vec<_>>(),
            "labeled scan diverged"
        );
    }
    for &c in &u.classes {
        assert_eq!(
            subject.class_members(c).collect::<Vec<_>>(),
            oracle
                .nodes
                .iter()
                .filter(|o| o.class == c)
                .copied()
                .collect::<Vec<_>>(),
            "class members diverged"
        );
    }
    // Point lookups on every node that occurs in some edge, plus a few
    // absent ones.
    let touched: BTreeSet<Oid> = oracle
        .edges
        .iter()
        .flat_map(|e| [e.src, e.dst])
        .chain(oracle.nodes.iter().copied())
        .collect();
    for &o in &touched {
        for &(p, _, _) in &u.props {
            assert_eq!(
                subject.successors(o, p).collect::<Vec<_>>(),
                oracle.successors(o, p),
                "successors diverged"
            );
            assert_eq!(
                subject.predecessors(o, p).collect::<Vec<_>>(),
                oracle.predecessors(o, p),
                "predecessors diverged"
            );
        }
        assert_eq!(
            subject.edges_incident(o).collect::<Vec<_>>(),
            oracle
                .edges
                .iter()
                .filter(|e| e.src == o || e.dst == o)
                .copied()
                .collect::<Vec<_>>(),
            "incident edges diverged"
        );
    }
}

fn hash_of(p: &PartialInstance) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// Rebuild a partial instance from an oracle state by inserting items in
/// a shuffled order, so equality/ordering/hashing are exercised across
/// different construction histories.
fn rebuild_shuffled(
    oracle: &Oracle,
    schema: &Arc<receivers_objectbase::Schema>,
    rng: &mut StdRng,
) -> PartialInstance {
    let mut p = PartialInstance::empty(Arc::clone(schema));
    let mut edges: Vec<Edge> = oracle.edges.iter().copied().collect();
    // Fisher–Yates on the insertion order.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..i + 1));
    }
    for e in edges {
        p.insert_edge(e).expect("oracle edges are well typed");
    }
    for &o in &oracle.nodes {
        p.insert_node(o);
    }
    p
}

#[test]
fn random_sequences_agree_with_flat_set_oracle() {
    let s = beer_schema();
    let u = Universe {
        props: [s.frequents, s.likes, s.serves]
            .iter()
            .map(|&p| {
                let prop = s.schema.property(p);
                (p, prop.src, prop.dst)
            })
            .collect(),
        classes: vec![s.drinker, s.bar, s.beer],
        objects_per_class: 12,
    };

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xED6E ^ seed);
        let mut subject = PartialInstance::empty(Arc::clone(&s.schema));
        let mut oracle = Oracle::default();

        for step in 0..400 {
            match rng.random_range(0..10u32) {
                // Inserts dominate so the structures actually grow.
                0..=2 => {
                    let o = u.random_node(&mut rng);
                    assert_eq!(subject.insert_node(o), oracle.nodes.insert(o));
                }
                3..=6 => {
                    let e = u.random_edge(&mut rng);
                    assert_eq!(
                        subject.insert_edge(e).expect("well typed"),
                        oracle.edges.insert(e)
                    );
                }
                7 => {
                    let o = u.random_node(&mut rng);
                    assert_eq!(subject.remove_node(o), oracle.nodes.remove(&o));
                }
                8 => {
                    let e = u.random_edge(&mut rng);
                    assert_eq!(subject.remove_edge(&e), oracle.edges.remove(&e));
                }
                // Remove an *existing* edge, so removals hit often enough
                // to exercise index pruning.
                _ => {
                    if !oracle.edges.is_empty() {
                        let k = rng.random_range(0..oracle.edges.len());
                        let e = *oracle.edges.iter().nth(k).expect("index in range");
                        assert!(subject.remove_edge(&e));
                        assert!(oracle.edges.remove(&e));
                    }
                }
            }
            if step % 40 == 0 {
                check_agreement(&subject, &oracle, &u);
            }
        }
        check_agreement(&subject, &oracle, &u);

        // Equality, ordering, and hashing must be insertion-order
        // independent and match the oracle's set semantics.
        let rebuilt = rebuild_shuffled(&oracle, &s.schema, &mut rng);
        assert_eq!(subject, rebuilt);
        assert_eq!(subject.cmp(&rebuilt), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&subject), hash_of(&rebuilt));

        // Mutating one edge must be visible to Eq/Ord exactly as it is on
        // the flat sets.
        let mut other = rebuilt.clone();
        let mut other_oracle = oracle.clone();
        let e = u.random_edge(&mut rng);
        if other.insert_edge(e).expect("well typed") {
            other_oracle.edges.insert(e);
            assert_ne!(subject, other);
            assert_eq!(
                subject.cmp(&other),
                (oracle.nodes.clone(), oracle.edges.clone())
                    .cmp(&(other_oracle.nodes.clone(), other_oracle.edges.clone())),
                "ordering diverged from flat-set lexicographic order"
            );
        }
    }
}

/// Eq/Ord/Hash of `subject` against a rebuild of the same edge set from a
/// shuffled insertion order — which leaves every adjacency list of the
/// rebuild in whichever representation its final size picks, while the
/// subject's lists may hold the same contents in the other one.
fn assert_same_as_rebuild(
    subject: &PartialInstance,
    oracle: &Oracle,
    schema: &Arc<receivers_objectbase::Schema>,
    rng: &mut StdRng,
) {
    let rebuilt = rebuild_shuffled(oracle, schema, rng);
    assert_eq!(*subject, rebuilt);
    assert_eq!(subject.cmp(&rebuilt), std::cmp::Ordering::Equal);
    assert_eq!(hash_of(subject), hash_of(&rebuilt));
}

/// One `(src, prop)` key and one `(dst, prop)` key grow past the
/// small-vector bound and shrink back to empty, with inserts and removals
/// in ascending, descending and random order. The views, the property set
/// and Eq/Ord/Hash against a rebuild are checked on both sides of every
/// representation change.
#[test]
fn high_degree_lists_cross_the_bound_both_ways() {
    let s = beer_schema();
    let u = Universe {
        props: [s.frequents, s.likes, s.serves]
            .iter()
            .map(|&p| {
                let prop = s.schema.property(p);
                (p, prop.src, prop.dst)
            })
            .collect(),
        classes: vec![s.drinker, s.bar, s.beer],
        objects_per_class: 0,
    };
    let degree = 3 * ADJ_BOUND as u32;
    let hub_drinker = Oid::new(s.drinker, degree);
    let hub_bar = Oid::new(s.bar, degree);
    // Out of the hub drinker, and into the hub bar; the two edge families
    // are disjoint, so each list sees exactly `degree` edits each way.
    let out_edge = |k: u32| Edge::new(hub_drinker, s.frequents, Oid::new(s.bar, k));
    let in_edge = |k: u32| Edge::new(Oid::new(s.drinker, k), s.frequents, hub_bar);
    // Sizes at which to compare: both sides of the bound on the way up,
    // both sides of half the bound (where a tree turns back into a
    // vector) on the way down.
    let b = ADJ_BOUND;
    let checkpoints = [1, b / 2 - 1, b / 2, b / 2 + 1, b - 1, b, b + 1, 2 * b];

    for (name, seed) in [("ascending", 0u64), ("descending", 1), ("random", 2)] {
        let mut rng = StdRng::seed_from_u64(0x41D6_0000 ^ seed);
        let mut order: Vec<u32> = (0..degree).collect();
        match name {
            "descending" => order.reverse(),
            "random" => {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..i + 1));
                }
            }
            _ => {}
        }
        let mut subject = PartialInstance::empty(Arc::clone(&s.schema));
        let mut oracle = Oracle::default();
        // A `likes` edge that outlives the hub, so the property set is
        // never trivially empty.
        let keep = Edge::new(hub_drinker, s.likes, Oid::new(s.beer, 0));
        subject.insert_edge(keep).expect("well typed");
        oracle.edges.insert(keep);

        for (n, &k) in order.iter().enumerate() {
            for e in [out_edge(k), in_edge(k)] {
                assert!(subject.insert_edge(e).expect("well typed"));
                assert!(oracle.edges.insert(e));
            }
            if checkpoints.contains(&(n + 1)) {
                check_agreement(&subject, &oracle, &u);
                assert_same_as_rebuild(&subject, &oracle, &s.schema, &mut rng);
            }
        }
        check_agreement(&subject, &oracle, &u);
        assert_eq!(
            subject.edge_index().out_degree(hub_drinker, s.frequents),
            degree as usize
        );
        assert_eq!(
            subject.predecessors(hub_bar, s.frequents).count(),
            degree as usize
        );

        // Empty both lists again, in the same order.
        for (n, &k) in order.iter().enumerate() {
            for e in [out_edge(k), in_edge(k)] {
                assert!(subject.remove_edge(&e), "{name}: remove {e:?}");
                assert!(oracle.edges.remove(&e));
            }
            let left = degree as usize - (n + 1);
            if checkpoints.contains(&left) {
                check_agreement(&subject, &oracle, &u);
                assert_same_as_rebuild(&subject, &oracle, &s.schema, &mut rng);
            }
        }
        check_agreement(&subject, &oracle, &u);
        assert_eq!(
            subject.edge_index().properties().collect::<Vec<_>>(),
            vec![s.likes],
            "{name}: a property whose last edge is gone leaves the property set"
        );
        assert!(subject.remove_edge(&keep));
        assert_eq!(subject.edge_index().properties().count(), 0, "{name}");
        assert!(subject.edge_index().is_empty());
    }
}
