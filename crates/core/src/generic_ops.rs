//! Generic update sequences à la Laasch–Scholl, as discussed in the
//! paper's introduction: updates expressed as sequences of generic
//! operations (insert / delete / clear) whose order independence is
//! guaranteed by *disallowing potentially conflicting operations within
//! an update sequence*.
//!
//! An operation template addresses receiver positions (`0` = the
//! receiving object); applying the update to a receiver instantiates the
//! templates. The static **conflict criterion**: for every property, the
//! update may use *either* insert operations *or* delete/clear
//! operations, never both. Conflict-free updates are order independent on
//! every receiver set (`tests::conflict_freedom_implies_independence`
//! verifies this empirically across randomized workloads); the criterion
//! is sufficient but not necessary, exactly as the paper observes when
//! comparing the approach with its own finer-grained analyses
//! (`tests::criterion_is_only_sufficient`).

use receivers_objectbase::{
    Edge, Instance, MethodOutcome, Oid, PropId, Receiver, Signature, UpdateMethod,
};

use crate::error::{CoreError, Result};

/// A generic operation template over receiver positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenericOp {
    /// Insert the edge `(recv[src], prop, recv[dst])`.
    InsertEdge {
        /// The property.
        prop: PropId,
        /// Receiver position of the source.
        src: usize,
        /// Receiver position of the target.
        dst: usize,
    },
    /// Delete the edge `(recv[src], prop, recv[dst])`.
    DeleteEdge {
        /// The property.
        prop: PropId,
        /// Receiver position of the source.
        src: usize,
        /// Receiver position of the target.
        dst: usize,
    },
    /// Delete all `prop`-edges leaving `recv[src]`.
    ClearEdges {
        /// The property.
        prop: PropId,
        /// Receiver position of the source.
        src: usize,
    },
}

impl GenericOp {
    fn prop(&self) -> PropId {
        match *self {
            GenericOp::InsertEdge { prop, .. }
            | GenericOp::DeleteEdge { prop, .. }
            | GenericOp::ClearEdges { prop, .. } => prop,
        }
    }

    fn is_insert(&self) -> bool {
        matches!(self, GenericOp::InsertEdge { .. })
    }
}

/// A generic update: a sequence of operation templates executed in order
/// for each receiver.
pub struct GenericUpdate {
    name: String,
    signature: Signature,
    ops: Vec<GenericOp>,
}

impl GenericUpdate {
    /// Build, validating that every referenced position exists and every
    /// edge template is well typed.
    pub fn new(
        name: impl Into<String>,
        schema: std::sync::Arc<receivers_objectbase::Schema>,
        signature: Signature,
        ops: Vec<GenericOp>,
    ) -> Result<Self> {
        let classes = signature.classes();
        for op in &ops {
            let check_pos = |pos: usize, expected: receivers_objectbase::ClassId| {
                if pos >= classes.len() {
                    return Err(CoreError::IllTypedStatement {
                        property: schema.prop_name(op.prop()).to_owned(),
                        detail: format!("receiver position {pos} out of range"),
                    });
                }
                if classes[pos] != expected {
                    return Err(CoreError::IllTypedStatement {
                        property: schema.prop_name(op.prop()).to_owned(),
                        detail: format!(
                            "position {pos} has class `{}`, template expects `{}`",
                            schema.class_name(classes[pos]),
                            schema.class_name(expected)
                        ),
                    });
                }
                Ok(())
            };
            let def = schema.property(op.prop()).clone();
            match *op {
                GenericOp::InsertEdge { src, dst, .. } | GenericOp::DeleteEdge { src, dst, .. } => {
                    check_pos(src, def.src)?;
                    check_pos(dst, def.dst)?;
                }
                GenericOp::ClearEdges { src, .. } => check_pos(src, def.src)?,
            }
        }
        let _ = schema;
        Ok(Self {
            name: name.into(),
            signature,
            ops,
        })
    }

    /// The operation sequence.
    pub fn ops(&self) -> &[GenericOp] {
        &self.ops
    }

    /// The Laasch–Scholl conflict criterion: no property is targeted by
    /// both insert and delete/clear operations.
    pub fn is_conflict_free(&self) -> bool {
        for (i, a) in self.ops.iter().enumerate() {
            for b in &self.ops[i + 1..] {
                if a.prop() == b.prop() && a.is_insert() != b.is_insert() {
                    return false;
                }
            }
        }
        true
    }
}

impl UpdateMethod for GenericUpdate {
    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn apply(&self, instance: &Instance, receiver: &Receiver) -> MethodOutcome {
        if let Err(e) = receiver.validate(&self.signature, instance) {
            return MethodOutcome::Undefined(e.to_string());
        }
        let objs = receiver.objects();
        let mut out = instance.clone();
        for op in &self.ops {
            match *op {
                GenericOp::InsertEdge { prop, src, dst } => {
                    out.add_edge(Edge::new(objs[src], prop, objs[dst]))
                        .expect("validated template");
                }
                GenericOp::DeleteEdge { prop, src, dst } => {
                    out.remove_edge(&Edge::new(objs[src], prop, objs[dst]));
                }
                GenericOp::ClearEdges { prop, src } => {
                    let victims: Vec<Oid> = out.successors(objs[src], prop).collect();
                    for v in victims {
                        out.remove_edge(&Edge::new(objs[src], prop, v));
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
pub(crate) mod tests {
    use super::*;
    use crate::sequential::order_independent_on;
    use receivers_objectbase::examples::beer_schema;
    use receivers_objectbase::gen::{random_instance, random_receivers, InstanceParams};
    use std::sync::Arc;

    fn sig(s: &receivers_objectbase::examples::BeerSchema) -> Signature {
        Signature::new(vec![s.drinker, s.bar]).unwrap()
    }

    /// Insert-only and delete-only updates are conflict free; mixtures on
    /// the same property are not; mixtures on different properties are.
    #[test]
    fn conflict_detection() {
        let s = beer_schema();
        let insert = GenericOp::InsertEdge {
            prop: s.frequents,
            src: 0,
            dst: 1,
        };
        let delete = GenericOp::DeleteEdge {
            prop: s.frequents,
            src: 0,
            dst: 1,
        };
        let clear = GenericOp::ClearEdges {
            prop: s.frequents,
            src: 0,
        };
        let mk = |ops: Vec<GenericOp>| {
            GenericUpdate::new("u", Arc::clone(&s.schema), sig(&s), ops).unwrap()
        };
        assert!(mk(vec![insert, insert]).is_conflict_free());
        assert!(mk(vec![delete, clear]).is_conflict_free());
        assert!(!mk(vec![insert, delete]).is_conflict_free());
        assert!(!mk(vec![clear, insert]).is_conflict_free());
        // Different properties never conflict.
        let other_insert = GenericOp::InsertEdge {
            prop: s.likes,
            src: 0,
            dst: 1,
        };
        let s2 = beer_schema();
        let sig3 = Signature::new(vec![s2.drinker, s2.bar, s2.beer]).unwrap();
        let u = GenericUpdate::new(
            "mixed-props",
            Arc::clone(&s2.schema),
            sig3,
            vec![
                GenericOp::DeleteEdge {
                    prop: s2.frequents,
                    src: 0,
                    dst: 1,
                },
                GenericOp::InsertEdge {
                    prop: s2.likes,
                    src: 0,
                    dst: 2,
                },
            ],
        )
        .unwrap();
        let _ = other_insert;
        assert!(u.is_conflict_free());
    }

    /// The Laasch–Scholl guarantee, empirically: every conflict-free
    /// update sampled is order independent on every sampled receiver set.
    #[test]
    fn conflict_freedom_implies_independence() {
        let s = beer_schema();
        let candidates: Vec<Vec<GenericOp>> = vec![
            vec![GenericOp::InsertEdge {
                prop: s.frequents,
                src: 0,
                dst: 1,
            }],
            vec![
                GenericOp::InsertEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
                GenericOp::InsertEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
            ],
            vec![GenericOp::DeleteEdge {
                prop: s.frequents,
                src: 0,
                dst: 1,
            }],
            vec![
                GenericOp::ClearEdges {
                    prop: s.frequents,
                    src: 0,
                },
                GenericOp::DeleteEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
            ],
        ];
        for ops in candidates {
            let u = GenericUpdate::new("u", Arc::clone(&s.schema), sig(&s), ops).unwrap();
            assert!(u.is_conflict_free());
            for seed in 0..8u64 {
                let i = random_instance(
                    &s.schema,
                    InstanceParams {
                        objects_per_class: 3,
                        edge_density: 0.5,
                    },
                    seed,
                );
                let t = random_receivers(&i, &sig(&s), 3, false, seed ^ 0x6E);
                assert!(
                    order_independent_on(&u, &i, &t).is_independent(),
                    "conflict-free update order dependent (seed {seed})"
                );
            }
        }
    }

    /// A conflicting update that really is order dependent: clear +
    /// insert is favorite_bar in generic-operation clothing.
    #[test]
    fn conflicting_update_is_order_dependent() {
        let s = beer_schema();
        let u = GenericUpdate::new(
            "favorite_bar_generic",
            Arc::clone(&s.schema),
            sig(&s),
            vec![
                GenericOp::ClearEdges {
                    prop: s.frequents,
                    src: 0,
                },
                GenericOp::InsertEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
            ],
        )
        .unwrap();
        assert!(!u.is_conflict_free());
        let (i, o) = receivers_objectbase::examples::figure2(&s);
        let t: receivers_objectbase::ReceiverSet = [
            Receiver::new(vec![o.d1, o.bar1]),
            Receiver::new(vec![o.d1, o.bar3]),
        ]
        .into_iter()
        .collect();
        assert!(!order_independent_on(&u, &i, &t).is_independent());
    }

    /// The criterion is only sufficient: delete-then-insert of the *same*
    /// template ("ensure the edge exists") is flagged conflicting, yet
    /// order independent — ensuring commutes.
    #[test]
    fn criterion_is_only_sufficient() {
        let s = beer_schema();
        let u = GenericUpdate::new(
            "ensure_edge",
            Arc::clone(&s.schema),
            sig(&s),
            vec![
                GenericOp::DeleteEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
                GenericOp::InsertEdge {
                    prop: s.frequents,
                    src: 0,
                    dst: 1,
                },
            ],
        )
        .unwrap();
        assert!(!u.is_conflict_free());
        for seed in 0..10u64 {
            let i = random_instance(
                &s.schema,
                InstanceParams {
                    objects_per_class: 3,
                    edge_density: 0.5,
                },
                seed,
            );
            let t = random_receivers(&i, &sig(&s), 3, false, seed ^ 0xE5);
            assert!(order_independent_on(&u, &i, &t).is_independent());
        }
    }

    /// Template validation: out-of-range positions and class mismatches
    /// are rejected.
    #[test]
    fn templates_validated() {
        let s = beer_schema();
        let bad_pos = GenericUpdate::new(
            "bad",
            Arc::clone(&s.schema),
            sig(&s),
            vec![GenericOp::InsertEdge {
                prop: s.frequents,
                src: 0,
                dst: 5,
            }],
        );
        assert!(bad_pos.is_err());
        let bad_class = GenericUpdate::new(
            "bad",
            Arc::clone(&s.schema),
            sig(&s),
            vec![GenericOp::InsertEdge {
                prop: s.likes, // expects Beer at dst, signature has Bar
                src: 0,
                dst: 1,
            }],
        );
        assert!(bad_class.is_err());
    }
}
