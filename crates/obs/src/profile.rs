//! The profile tree: causally-nested per-operator attribution.
//!
//! One [`ProfileNode`] type serves both halves of the profiler story:
//!
//! * **EXPLAIN** — a static plan description (`ProgramPlan::explain` in
//!   `receivers-sql`): stages, planner decisions, footprints, and the recorded
//!   rewrite/netting proofs, with every timing field zero.
//! * **EXPLAIN ANALYZE** — the same tree measured: per-node wall time,
//!   rows in/out, selector-cache hits, WAL bytes and fsync latency.
//!
//! Three renderers share the tree: an indented human form
//! ([`render_profile_human`]), the stable `receivers-obs/profile/v1`
//! JSON document ([`render_profile_json`], validated by `obs_check
//! --profile` in CI), and the Chrome `trace_event` form
//! ([`render_profile_chrome`]) so a profiled run opens in Perfetto next
//! to its span trace.
//!
//! # Profile JSON schema (`receivers-obs/profile/v1`)
//!
//! ```json
//! {
//!   "schema": "receivers-obs/profile/v1",
//!   "nodes": [
//!     {
//!       "id": 1, "parent": 0,            // pre-order ids; parent 0 = root
//!       "name": "stage 0", "kind": "SetUpdate",
//!       "start_ns": 0, "wall_ns": 12345,
//!       "rows_in": 64, "rows_out": 8,
//!       "metrics": { "selector_cache_hits": 1 },
//!       "notes": ["improved: par(E) vectorized"]
//!     }, ...
//!   ]
//! }
//! ```
//!
//! Every non-zero `parent` references an `id` earlier in the array (the
//! tree is closed and topologically ordered).

use std::fmt::Write as _;

use crate::export::json_str;

/// One node of a profile or explain tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Display name ("stage 2", "#4 Guard(…)", "shard 1", "wal").
    pub name: String,
    /// Operator kind ("explain", "SetUpdate", "shard", "wal", …).
    pub kind: String,
    /// Start, nanoseconds since the process trace epoch (0 = unmeasured).
    pub start_ns: u64,
    /// Wall time in nanoseconds (0 = unmeasured / static explain).
    pub wall_ns: u64,
    /// Rows/receivers flowing in (selector rows for a stage).
    pub rows_in: u64,
    /// Rows/receivers flowing out (rows actually written).
    pub rows_out: u64,
    /// Named scalar attributions, in insertion order.
    pub metrics: Vec<(String, u64)>,
    /// Free-form annotations (proof notes, rewrite decisions).
    pub notes: Vec<String>,
    /// Child operators, causally nested.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A new node with every measurement zeroed.
    pub fn new(name: impl Into<String>, kind: impl Into<String>) -> Self {
        ProfileNode {
            name: name.into(),
            kind: kind.into(),
            ..ProfileNode::default()
        }
    }

    /// Builder form: append a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Append a note in place.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Set (or overwrite) a named metric.
    pub fn set_metric(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of metric `name` on this node, if set.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Number of nodes in this subtree (including `self`).
    pub fn total_nodes(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ProfileNode::total_nodes)
            .sum::<usize>()
    }

    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Pre-order walk over `(node, depth)`.
    fn walk<'a>(&'a self, depth: usize, f: &mut impl FnMut(&'a ProfileNode, usize)) {
        f(self, depth);
        for c in &self.children {
            c.walk(depth + 1, f);
        }
    }
}

/// Render the tree in the indented human form (EXPLAIN / EXPLAIN
/// ANALYZE output). Zero measurements render as plan-only lines, so the
/// same function serves both.
pub fn render_profile_human(root: &ProfileNode) -> String {
    let mut out = String::new();
    root.walk(0, &mut |n, depth| {
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{pad}{} [{}]", n.name, n.kind);
        if n.wall_ns > 0 {
            let _ = write!(out, "  {:.3} ms", n.wall_ns as f64 / 1e6);
        }
        if n.rows_in > 0 || n.rows_out > 0 {
            let _ = write!(out, "  rows {} -> {}", n.rows_in, n.rows_out);
        }
        out.push('\n');
        for (name, value) in &n.metrics {
            let _ = writeln!(out, "{pad}  · {name} = {value}");
        }
        for note in &n.notes {
            let _ = writeln!(out, "{pad}  - {note}");
        }
    });
    out
}

/// Render the tree as the stable `receivers-obs/profile/v1` JSON
/// document (no trailing newline): a flat pre-order `nodes` array with
/// synthetic `id`/`parent` links, validated by `obs_check --profile`.
pub fn render_profile_json(root: &ProfileNode) -> String {
    let mut out = String::from("{\n  \"schema\": \"receivers-obs/profile/v1\",\n  \"nodes\": [");
    let mut next_id = 0u64;
    let mut parents: Vec<u64> = Vec::new();
    root.walk(0, &mut |n, depth| {
        next_id += 1;
        let id = next_id;
        parents.truncate(depth);
        let parent = parents.last().copied().unwrap_or(0);
        parents.push(id);
        if id > 1 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"kind\": {}, \
             \"start_ns\": {}, \"wall_ns\": {}, \"rows_in\": {}, \"rows_out\": {}, \
             \"metrics\": {{",
            json_str(&n.name),
            json_str(&n.kind),
            n.start_ns,
            n.wall_ns,
            n.rows_in,
            n.rows_out,
        );
        for (i, (name, value)) in n.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {value}", json_str(name));
        }
        out.push_str("}, \"notes\": [");
        for (i, note) in n.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(note));
        }
        out.push_str("]}");
    });
    out.push_str("\n  ]\n}");
    out
}

/// Render the tree in the Chrome `trace_event` format (same shape the
/// span exporter emits, so `obs_check --chrome` validates it and
/// Perfetto opens it). Unmeasured nodes inherit their parent's start so
/// the nesting survives visually.
pub fn render_profile_chrome(root: &ProfileNode) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    let mut next_id = 0u64;
    let mut parents: Vec<u64> = Vec::new();
    let mut starts: Vec<u64> = Vec::new();
    root.walk(0, &mut |n, depth| {
        next_id += 1;
        let id = next_id;
        parents.truncate(depth);
        starts.truncate(depth);
        let parent = parents.last().copied().unwrap_or(0);
        let start_ns = if n.start_ns > 0 {
            n.start_ns
        } else {
            starts.last().copied().unwrap_or(0)
        };
        parents.push(id);
        starts.push(start_ns);
        if id > 1 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\": {}, \"cat\": \"receivers-profile\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": 1, \"ts\": {}.{:03}, \"dur\": {}.{:03}, \
             \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
            json_str(&n.name),
            start_ns / 1000,
            start_ns % 1000,
            n.wall_ns / 1000,
            n.wall_ns % 1000,
        );
    });
    out.push_str("\n]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample() -> ProfileNode {
        let mut root = ProfileNode::new("program", "profile");
        root.start_ns = 1_000;
        root.wall_ns = 9_000;
        let mut stage = ProfileNode::new("stage 0", "SetUpdate").note("improved: par(E)");
        stage.start_ns = 2_000;
        stage.wall_ns = 3_500;
        stage.rows_in = 64;
        stage.rows_out = 8;
        stage.set_metric("selector_cache_hits", 2);
        stage
            .children
            .push(ProfileNode::new("#1 Scan(emp)", "Scan"));
        root.children.push(stage);
        root.children
            .push(ProfileNode::new("stage 1", "SetDelete").note("netted by stage 3"));
        root
    }

    #[test]
    fn builders_and_queries() {
        let root = sample();
        assert_eq!(root.total_nodes(), 4);
        let stage = root.find("stage 0").expect("present");
        assert_eq!(stage.metric("selector_cache_hits"), Some(2));
        assert_eq!(stage.metric("absent"), None);
        assert!(root.find("#1 Scan(emp)").is_some());
        assert!(root.find("nope").is_none());
    }

    #[test]
    fn human_rendering_shows_measurements_and_notes() {
        let s = render_profile_human(&sample());
        assert!(s.contains("program [profile]"));
        assert!(s.contains("stage 0 [SetUpdate]"));
        assert!(s.contains("rows 64 -> 8"));
        assert!(s.contains("· selector_cache_hits = 2"));
        assert!(s.contains("- improved: par(E)"));
        // Unmeasured leaf renders without a time.
        assert!(s.contains("#1 Scan(emp) [Scan]\n"));
    }

    #[test]
    fn json_rendering_parses_with_closed_preorder_tree() {
        let j = render_profile_json(&sample());
        let v = Value::parse(&j).expect("self-emitted JSON parses");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("receivers-obs/profile/v1")
        );
        let nodes = v.get("nodes").and_then(Value::as_array).unwrap();
        assert_eq!(nodes.len(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for n in nodes {
            let id = n.get("id").and_then(Value::as_u64).unwrap();
            let parent = n.get("parent").and_then(Value::as_u64).unwrap();
            assert!(id != 0 && seen.insert(id), "ids unique and non-zero");
            assert!(parent == 0 || seen.contains(&parent), "pre-order closure");
        }
        // The stage's metrics and notes round-trip.
        let stage = nodes
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some("stage 0"))
            .unwrap();
        assert_eq!(
            stage
                .get("metrics")
                .and_then(|m| m.get("selector_cache_hits"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            stage.get("notes").and_then(Value::as_array).unwrap()[0].as_str(),
            Some("improved: par(E)")
        );
    }

    #[test]
    fn chrome_rendering_matches_the_span_trace_shape() {
        let j = render_profile_chrome(&sample());
        let v = Value::parse(&j).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("args").and_then(|a| a.get("id")).is_some());
        }
        // Child events point at their parent's synthetic id.
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
