#![warn(missing_docs)]

//! # receivers-sql
//!
//! The practical layer of Section 7: a small SQL-flavoured update language
//! whose statements compile onto the paper's framework, demonstrating that
//! the theory "can be applied in a practical SQL context and … explain a
//! variety of update phenomena".
//!
//! Supported statements (the paper's abstract cursor syntax):
//!
//! ```sql
//! DELETE FROM Employee WHERE Salary IN TABLE Fire
//! FOR EACH t IN Employee DO IF Salary IN TABLE Fire DELETE t FROM Employee
//! UPDATE Employee SET Salary = (SELECT New FROM NewSal WHERE Old = Salary)
//! FOR EACH t IN Employee DO UPDATE t SET Salary = (SELECT … )
//! ```
//!
//! The compilation targets:
//!
//! * cursor-based **updates** become [`receivers_core::AlgebraicMethod`]s
//!   applied to the receiver set "one receiver per tuple", so Theorem 5.12
//!   mechanically discriminates the order-independent update (B) from the
//!   order-dependent update (C);
//! * cursor-based **deletes** become interpreted methods analysed through
//!   schema colorings (Theorem 4.23's simple-coloring criterion);
//! * set-oriented statements become two-phase programs (identify, then
//!   apply a trivial update to the precomputed receiver set), which the
//!   paper shows is always order independent;
//! * the **code improvement tool** of Section 7's conclusion rewrites a
//!   key-order-independent cursor update into the equivalent set-oriented
//!   statement via the parallel semantics (Theorem 6.5).

pub mod analyze;
pub mod ast;
pub mod catalog;
pub mod compile;
pub mod error;
pub mod eval;
pub mod explain;
pub mod footprint;
pub mod improve;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod sat;
pub mod scenarios;
pub mod scope;
pub mod span;
mod waves;

pub use analyze::{analyze_cursor_delete, analyze_statement, DeleteAnalysis, EffectAnalysis};
pub use ast::{ColumnRef, Condition, CursorBody, Select, SpannedStatement, SqlStatement};
pub use catalog::{Catalog, TableInfo};
pub use compile::{compile, CompiledStatement, CursorUpdate};
pub use error::{Result, SqlError};
pub use footprint::{footprint, Footprint, Write};
pub use improve::improve_cursor_update;
pub use parser::{parse, parse_program};
pub use plan::{compile_program, ProgramPlan, Stage, StageKind};
pub use sat::{
    Commutativity, Disjointness, GuardRef, Implication, Proof, Satisfiability,
    ShardedCertification, Solver, StableGuard,
};
pub use span::{line_col, LineCol, Span};
