#![warn(missing_docs)]

//! # receivers-core
//!
//! Update methods and set-oriented application — the primary contribution
//! of *Applying an Update Method to a Set of Receivers* (Sections 3, 5
//! and 6).
//!
//! * [`sequential`] — sequential application `M(I, t₁…tₙ)` and
//!   `M_seq(I, T)` with the three order-independence notions of Section 3
//!   (absolute, key-order, query-order) as executable checks;
//! * [`algebraic`] — algebraic update methods (Definition 5.4): sets of
//!   statements `a := E` over the relational algebra, applied by replacing
//!   the receiving object's `a`-edges with the value of `E(I, t)`;
//! * [`methods`] — the paper's example methods ready-made: `add_bar`,
//!   `favorite_bar` (Examples 2.7/5.5), `delete_bar` (Example 5.11), the
//!   likes/serves method of Example 4.15, and the transitive-closure
//!   method of Example 6.4;
//! * [`reduction`] — the Theorem 5.6 reduction from method order
//!   independence to relational-algebra expression equivalence under
//!   dependencies, including the receiver-wellformedness guards;
//! * [`decide`] — Theorem 5.12: the decision procedures for order
//!   independence and key-order independence of *positive* methods, built
//!   on the reduction plus `receivers-cq`'s containment engine;
//! * [`syntactic`] — Proposition 5.8's sufficient syntactic condition for
//!   key-order independence;
//! * [`parallel`] — parallel application `M_par(I, T)` (Definitions
//!   6.1–6.2) and the Theorem 6.5 coincidence on key sets;
//! * [`power`] — the expressive-power separations: transitive closure and
//!   parity via sequential application (Example 6.4 and footnote 8), and
//!   the two Proposition 5.14 counterexamples for query-order
//!   independence.

pub mod algebraic;
pub mod coloring_bridge;
pub mod combination;
pub mod decide;
pub mod error;
pub mod falsify;
pub mod generic_ops;
pub mod methods;
pub mod parallel;
pub mod power;
pub mod query_order;
pub mod reduction;
pub mod sequential;
pub mod shard;
pub mod syntactic;

pub use algebraic::{AlgebraicMethod, Statement};
pub use coloring_bridge::{
    analyze_method_coloring, current_value_expr, derive_coloring, derive_refined_coloring,
    method_footprint, MethodColoringAnalysis, MethodFootprint,
};
pub use combination::{apply_combined, Combinator};
pub use decide::{decide_key_order_independence, decide_order_independence, Decision};
pub use error::{CoreError, Result};
pub use falsify::{falsify_order_independence, FalsifyConfig, Witness};
pub use parallel::apply_par;
pub use query_order::{q_order_independent_sampled, ReceiverQuery};
pub use sequential::{
    apply_seq, apply_sequence, order_independent_on, order_independent_sampled, IndependenceVerdict,
};
pub use shard::{certify, shard_of, ShardCertificate, ShardConfig, ShardedExecutor};
pub use syntactic::satisfies_prop_5_8;
