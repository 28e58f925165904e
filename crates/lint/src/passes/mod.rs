//! The built-in passes.
//!
//! Program passes (over parsed SQL programs): name resolution, the
//! coloring/effect analysis, the Theorem 5.12 decision + improvement
//! pass, condition satisfiability, advisory shardability certification,
//! dead assignments, unused tables, catalog coverage.

pub mod catalog;
pub mod deadcode;
pub mod decide;
pub mod effects;
pub mod resolve;
pub mod sat;
pub mod shard;

pub use catalog::CatalogCoveragePass;
pub use deadcode::{DeadAssignmentPass, UnusedTablePass};
pub use decide::DecidePass;
pub use effects::ColoringPass;
pub use resolve::NameResolutionPass;
pub use sat::SatPass;
pub use shard::ShardabilityPass;
