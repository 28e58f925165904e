#![warn(missing_docs)]

//! # receivers-relalg
//!
//! The typed relational algebra substrate of Section 5.1 of *Applying an
//! Update Method to a Set of Receivers*.
//!
//! Object-base schemas and instances are viewed relationally (Proposition
//! 5.1): each class name `C` becomes a unary relation scheme `C` whose
//! domain is the universe of `C`-objects, and each schema edge `(C, a, B)`
//! becomes a binary relation scheme `Ca` with attributes `C` (domain `C`)
//! and `a` (domain `B`), subject to the full inclusion dependencies
//! `Ca[C] ⊆ C[C]` and `Ca[a] ⊆ B[B]`. Disjointness of class universes is
//! enforced *by construction* here: attribute domains are class ids and
//! every value is a typed [`receivers_objectbase::Oid`].
//!
//! The algebra is the standard named relational algebra of the paper:
//! union, difference, Cartesian product, equality selection `σ_{A=B}`,
//! projection, renaming, plus the non-equality selection `σ_{A≠B}` of the
//! *positive* algebra (Definition 5.2), and the derived natural and theta
//! joins. Expressions may refer to named *parameter relations* (`self`,
//! `arg1`, …, `rec`, and the primed copies used by the Theorem 5.6
//! reduction) through [`expr::Expr::Param`].
//!
//! Well-definedness of update expressions (the `E(I,t) ⊆ B(I)` requirement
//! discussed after Example 5.5) holds automatically in this typed setting:
//! every value flowing through an expression originates from the instance's
//! relations or from the receiver, so the "many-sorted expressions"
//! solution the paper cites (Van den Bussche & Cabibbo 1998) is what this
//! crate implements.

pub mod database;
pub mod deps;
pub mod error;
pub mod eval;
pub mod expr;
pub mod gen;
#[cfg(feature = "legacy-oracle")]
pub mod legacy;
pub mod par;
pub mod positive;
pub mod relation;
pub mod rewrite;
pub mod schema;
pub mod tuples;
pub mod typecheck;
pub mod view;

pub use database::Database;
pub use deps::{Dependency, FunctionalDep, InclusionDep};
pub use error::{RelAlgError, Result};
pub use eval::{eval, Bindings};
pub use expr::{Expr, RelName};
pub use positive::is_positive;
pub use relation::Relation;
pub use schema::{Attr, RelSchema};
pub use tuples::{TupleSet, Tuples};
pub use typecheck::{collect_errors, infer_schema, ParamSchemas};
pub use view::DatabaseView;
