#![warn(missing_docs)]

//! # receivers-cq
//!
//! The conjunctive-query machinery of Appendix A of *Applying an Update
//! Method to a Set of Receivers*: the decidability engine behind
//! Theorem 5.12 (order independence of positive algebraic update methods).
//!
//! Contents:
//!
//! * [`query`] — typed conjunctive queries with non-equalities and positive
//!   queries (finite unions of CQs), following the appendix's `s,d,u,v,c,n`
//!   presentation;
//! * [`hom`] — the Chandra–Merlin homomorphism test for equality CQs;
//! * [`mod@chase`] — the typed chase with functional and *full* inclusion
//!   dependencies (fd rule and ind rule of the appendix), including the
//!   `⊥` unsatisfiability outcome;
//! * [`partition`] — typed partition enumeration (restricted-growth
//!   strings, factored per domain) used to build Klug's representative
//!   sets;
//! * [`eval`] — evaluation of CQs over canonical instances ("does the
//!   magic tuple `s` belong to `q'(I)`?");
//! * [`contain`] — containment and equivalence of positive queries under
//!   functional and full inclusion dependencies (Lemma 5.13, via
//!   Theorem A.1 and Lemmas A.2/A.3);
//! * [`compile`] — compilation of *positive* relational algebra
//!   expressions into positive queries, making Lemma 5.13 executable on
//!   the expressions produced by the Theorem 5.6 reduction.
//!
//! ## Two deliberate deviations from the appendix's presentation
//!
//! 1. **Summaries may repeat variables.** The appendix requires the
//!    summary to list *distinct* distinguished variables; compiled algebra
//!    expressions (e.g. `π_{C,a}(σ_{C=a}(Ca))`) can produce repeated
//!    columns, so our summaries are arbitrary variable tuples. Every
//!    algorithm below is insensitive to this relaxation.
//! 2. **Representative instances are filtered by the dependencies.** After
//!    chasing `q`, a partition of its variables may still violate a
//!    functional dependency (the chase only removes *syntactic*
//!    violations). Such partitions cannot be the kernel of a valuation
//!    into a Σ-satisfying instance, so they are skipped; the surviving
//!    representative instances all satisfy Σ, which is what the proof of
//!    Lemma A.3 requires. (Full inclusion dependencies survive every
//!    valuation because they introduce no fresh variables.)

pub mod chase;
pub mod compile;
pub mod contain;
pub mod error;
pub mod eval;
pub mod hom;
pub mod minimize;
pub mod partition;
pub mod query;
pub mod schema_ctx;

pub use chase::{chase, ChaseOutcome};
pub use compile::compile_positive;
pub use contain::{contained_under, equivalent_under, ContainmentReport};
pub use error::{CqError, Result};
pub use hom::exists_homomorphism;
pub use minimize::minimize;
pub use query::{Atom, ConjunctiveQuery, PositiveQuery, Var};
pub use schema_ctx::SchemaCtx;
