//! Errors for the update-method layer.

use std::fmt;

/// Errors raised while constructing or deciding properties of methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A statement updates a property that does not leave the receiving
    /// class (the algebraic model only updates properties of the
    /// receiving object, Section 5.2).
    NotReceiverProperty {
        /// The property's name.
        property: String,
        /// The receiving class's name.
        receiving: String,
    },
    /// Two statements update the same property ("at most one update on
    /// each property", Definition 5.4(4)).
    DuplicateStatement(String),
    /// An update expression's result scheme is not unary of the updated
    /// property's type.
    IllTypedStatement {
        /// The property's name.
        property: String,
        /// Description of the mismatch.
        detail: String,
    },
    /// The decision procedure was invoked on a non-positive method
    /// (Corollary 5.7: undecidable in general).
    NotPositive,
    /// A per-receiver branch of a combination semantics diverged or was
    /// undefined.
    BranchFailed(String),
    /// A sharded executor was asked to run a method whose certificate is
    /// not shard-safe; carries the names of the undischarged read/write
    /// conflicts.
    NotShardSafe(Vec<String>),
    /// An error from the algebra layer.
    Algebra(receivers_relalg::RelAlgError),
    /// An error from the conjunctive-query layer.
    Cq(receivers_cq::CqError),
    /// An error from the object-base layer.
    ObjectBase(receivers_objectbase::ObjectBaseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotReceiverProperty {
                property,
                receiving,
            } => write!(
                f,
                "statement updates property `{property}` which is not a property of the \
                 receiving class `{receiving}`"
            ),
            Self::DuplicateStatement(p) => {
                write!(f, "more than one statement updates property `{p}`")
            }
            Self::IllTypedStatement { property, detail } => {
                write!(f, "statement on `{property}` is ill-typed: {detail}")
            }
            Self::NotPositive => write!(
                f,
                "method is not positive; order independence of full-algebra methods is \
                 undecidable (Corollary 5.7)"
            ),
            Self::BranchFailed(msg) => write!(f, "combination branch failed: {msg}"),
            Self::NotShardSafe(props) => write!(
                f,
                "certificate not shard-safe: undischarged read/write conflict on {}",
                props
                    .iter()
                    .map(|p| format!("`{p}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Self::Algebra(e) => write!(f, "algebra error: {e}"),
            Self::Cq(e) => write!(f, "containment error: {e}"),
            Self::ObjectBase(e) => write!(f, "object-base error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<receivers_relalg::RelAlgError> for CoreError {
    fn from(e: receivers_relalg::RelAlgError) -> Self {
        Self::Algebra(e)
    }
}

impl From<receivers_cq::CqError> for CoreError {
    fn from(e: receivers_cq::CqError) -> Self {
        Self::Cq(e)
    }
}

impl From<receivers_objectbase::ObjectBaseError> for CoreError {
    fn from(e: receivers_objectbase::ObjectBaseError) -> Self {
        Self::ObjectBase(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
