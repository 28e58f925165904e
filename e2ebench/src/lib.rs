//! The end-to-end benchmark of the receivers engine.
//!
//! One seeded workload per process runs the engine's public API the way
//! a user does — `parse` → `compile_program` → `execute_viewed` /
//! `execute_sharded` / `execute_durable` → crash → `DurableStore::open`
//! — checks every result against an oracle independent of the drivers,
//! and reports the end-to-end metrics as medians. The traced variant
//! reports per-layer numbers instead. `README.md` lists the metrics,
//! the workloads and why each exists.

mod clock;
pub mod engine;
mod heap;
pub mod stats;
pub mod trace;
pub mod workloads;

use engine::Report;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric by name with its unit.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    // A run that failed before its first timed execution counts as one
    // failed attempt.
    let (attempted, failed) = match report.attempted {
        0 => (1, 1),
        n => (n, report.failed),
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.correct(),
        metrics.join(", ")
    )
}
