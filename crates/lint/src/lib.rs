#![warn(missing_docs)]

//! # receivers-lint
//!
//! A coloring-based static analysis and diagnostics subsystem for update
//! programs: Section 7 of *Applying an Update Method to a Set of
//! Receivers*, packaged as a lint suite.
//!
//! The paper's workflow — derive a schema coloring for a cursor
//! statement, certify order independence when it is simple (Theorem
//! 4.23), fall back to the exact Theorem 5.12 decision procedure for
//! algebraic cursor updates, and offer the equivalent set-oriented
//! rewrite when the update is key-order independent (Theorem 6.5) —
//! becomes a [`PassManager`] producing structured [`Diagnostic`]s with
//! stable codes, source spans, notes, and machine-applicable
//! suggestions, rendered human-readable or as stable JSON for CI.
//!
//! ```
//! use receivers_lint::PassManager;
//! use receivers_sql::catalog::employee_catalog;
//! use receivers_sql::scenarios::CURSOR_UPDATE_B;
//!
//! let (_es, catalog) = employee_catalog();
//! let report = PassManager::with_default_passes().lint_source(CURSOR_UPDATE_B, &catalog);
//! // Scenario (B): certified key-order independent, rewrite suggested.
//! assert!(!report.with_code("R0103").is_empty());
//! assert!(!report.with_code("R0301").is_empty());
//! assert!(!report.has_errors());
//! ```
//!
//! Lint codes are stable: `R00xx` well-formedness (`R0001` non-positive,
//! `R0002` ill-typed, `R0003`–`R0005` unresolved names, `R0010` syntax),
//! `R01xx` order-independence verdicts (`R0101` Theorem 4.23 certificate,
//! `R0102` possibly order dependent, `R0103` Theorem 5.12 certificate,
//! `R0104` order dependent, `R0105` two-phase), `R02xx` dead code,
//! `R03xx` rewrites, `R04xx` catalog coverage, `R05xx` condition
//! satisfiability (`R0501` unsatisfiable condition, `R0502` subsumed
//! conjunct, both proved by the `receivers_sql::sat` solver). See
//! [`diag::codes`]; `--explain R0xxx` on the lint CLI prints the
//! extended documentation from [`mod@explain`].

pub mod diag;
pub mod explain;
pub mod pass;
pub mod passes;
pub mod render;

pub use diag::{codes, Diagnostic, LintCode, Note, Severity, Suggestion};
pub use explain::{explain, Explanation};
pub use pass::{LintContext, LintReport, MethodPass, PassManager, ProgramPass};
pub use passes::lint_statements;
