//! Error type shared by the object-base model.

use std::fmt;

/// Errors raised while building schemas or manipulating instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectBaseError {
    /// A class name was declared twice in one schema.
    DuplicateClass(String),
    /// A property name was declared twice in one schema. The paper requires
    /// that "different edges must have different labels" (Definition 2.1).
    DuplicateProperty(String),
    /// A property referred to a class that is not part of the schema.
    UnknownClass(String),
    /// A property name that is not part of the schema.
    UnknownProperty(String),
    /// An edge `(o, e, p)` whose endpoint types do not match the schema edge
    /// `(λ(o), e, λ(p))`.
    IllTypedEdge {
        /// The offending property name.
        property: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An edge was inserted whose endpoints are not nodes of the instance.
    DanglingEdge {
        /// The offending property name.
        property: String,
    },
    /// A batch of whole-row replacements named the same source twice.
    DuplicateRow {
        /// The replaced property name.
        property: String,
        /// The repeated source object.
        row: String,
    },
    /// A receiver whose component types do not match the method signature.
    SignatureMismatch {
        /// Position in the receiver tuple (0 = receiving object).
        position: usize,
        /// What the signature expects.
        expected: String,
        /// What the receiver supplied.
        found: String,
    },
    /// A receiver mentions an object that is not present in the instance.
    ReceiverNotInInstance {
        /// Position in the receiver tuple.
        position: usize,
    },
    /// Two instances over different schemas were combined.
    SchemaMismatch,
    /// An empty signature; signatures are non-empty tuples (Definition 2.4).
    EmptySignature,
}

impl fmt::Display for ObjectBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateClass(c) => write!(f, "duplicate class name `{c}`"),
            Self::DuplicateProperty(p) => write!(f, "duplicate property name `{p}`"),
            Self::UnknownClass(c) => write!(f, "unknown class name `{c}`"),
            Self::UnknownProperty(p) => write!(f, "unknown property name `{p}`"),
            Self::IllTypedEdge { property, detail } => {
                write!(f, "ill-typed edge on property `{property}`: {detail}")
            }
            Self::DanglingEdge { property } => {
                write!(f, "dangling edge on property `{property}`")
            }
            Self::DuplicateRow { property, row } => {
                write!(
                    f,
                    "row `{row}` of property `{property}` replaced twice in one batch"
                )
            }
            Self::SignatureMismatch {
                position,
                expected,
                found,
            } => write!(
                f,
                "receiver component {position} has type `{found}`, signature expects `{expected}`"
            ),
            Self::ReceiverNotInInstance { position } => {
                write!(
                    f,
                    "receiver component {position} is not an object of the instance"
                )
            }
            Self::SchemaMismatch => write!(f, "operands belong to different schemas"),
            Self::EmptySignature => write!(f, "method signatures must be non-empty"),
        }
    }
}

impl std::error::Error for ObjectBaseError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ObjectBaseError>;
