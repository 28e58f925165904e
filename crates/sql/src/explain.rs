//! **EXPLAIN** — the static half of the plan profiler.
//!
//! [`ProgramPlan::explain`] renders a compiled program as a
//! [`obs::ProfileNode`] tree *without executing anything*: one child per
//! stage carrying the planner's decisions (netting with its
//! [`Proof`](crate::sat::Proof) notes, selector sharing from the cse
//! pass, the improve rewrite), the stage's footprint summary, its
//! predicted shard placement, and the expression-DAG nodes it
//! evaluates. The same tree type backs **EXPLAIN ANALYZE**
//! ([`ProgramPlan::execute_viewed_profiled`] and friends), so every
//! renderer — [`obs::render_profile_human`], [`obs::render_profile_json`]
//! (`receivers-obs/profile/v1`), [`obs::render_profile_chrome`] — works
//! on both.

use std::collections::BTreeSet;

use receivers_obs as obs;

use crate::footprint::Write;
use crate::plan::{refusal_note, NodeId, PlanGraph, PlanNode, ProgramPlan, Stage};

impl ProgramPlan {
    /// The compiled program's **EXPLAIN** tree: stages, planner
    /// decisions, footprints, and predicted shard placement, with the
    /// expression DAG nested under each stage. Purely static — nothing
    /// is executed and no instance is needed.
    pub fn explain(&self) -> obs::ProfileNode {
        let mut root = obs::ProfileNode::new("program", "explain");
        root.set_metric("stages", self.stages().len() as u64);
        root.set_metric("dag_nodes", self.graph().len() as u64);
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for (idx, stage) in self.stages().iter().enumerate() {
            let mut node = crate::plan::stage_node(idx, stage);
            node.add_note(footprint_note(stage));
            for p in stage.proofs() {
                for n in &p.notes {
                    node.add_note(format!("proof: {n}"));
                }
            }
            node.add_note(self.shard_prediction(idx));
            node.children
                .push(dag_node(self.graph(), stage.root(), &mut seen));
            root.children.push(node);
        }
        root
    }

    /// Where the sharded driver will place stage `idx`, read off its
    /// certificate without running anything; a refusal names the
    /// undischarged conflicts.
    fn shard_prediction(&self, idx: usize) -> String {
        match self.shard_certificate(idx) {
            Some((cert, _)) if cert.shard_safe() => {
                "shard: certified shard-safe — runs on per-shard worker loops".to_owned()
            }
            Some((cert, _)) => format!("shard: {}", refusal_note(self.catalog(), &cert)),
            None => "shard: no algebraic form — coordinator/vectorized path".to_owned(),
        }
    }
}

/// One line summarising a stage's footprint: reads, tables, write.
fn footprint_note(stage: &Stage) -> String {
    let fp = stage.footprint();
    let write = match &fp.write {
        Some(Write::Update { table, column, .. }) => format!("update {table}.{column}"),
        Some(Write::Delete { table }) => format!("delete {table}"),
        None => "none".to_owned(),
    };
    format!(
        "footprint: {} read(s), {} table(s), write {}{}",
        fp.reads.len(),
        fp.tables.len(),
        write,
        if fp.guard.is_some() { ", guarded" } else { "" },
    )
}

/// The expression-DAG subtree rooted at `id`, rendered as profile
/// nodes. Hash-consed nodes shared with an earlier stage (or an earlier
/// sibling) are noted but not re-expanded, so the tree mirrors the
/// evaluation the drivers actually share.
fn dag_node(graph: &PlanGraph, id: NodeId, seen: &mut BTreeSet<NodeId>) -> obs::ProfileNode {
    let plan_node = graph.node(id);
    let (kind, desc) = describe(plan_node);
    let mut node = obs::ProfileNode::new(format!("node {}", id.index()), kind);
    node.add_note(desc);
    if !seen.insert(id) {
        node.add_note("shared — evaluated once, reused here (cse)");
        return node;
    }
    for input in plan_node.inputs() {
        node.children.push(dag_node(graph, input, seen));
    }
    node
}

/// A DAG node's kind label and one-line description.
fn describe(node: &PlanNode) -> (&'static str, String) {
    match node {
        PlanNode::Scan { table, .. } => ("scan", format!("scan {table}")),
        PlanNode::Guard { var, cond, .. } => ("guard", format!("guard {var}: {cond}")),
        PlanNode::Values { var, select, .. } => ("values", format!("values {var}: {select}")),
        PlanNode::AssignQuery { .. } => (
            "assign-query",
            "vectorized par(E) join against the receiver relation".to_owned(),
        ),
        PlanNode::Assign { table, column, .. } => ("assign", format!("assign {table}.{column}")),
        PlanNode::Delete { table, .. } => ("delete", format!("delete {table}")),
    }
}

#[cfg(test)]
mod tests {
    use receivers_obs as obs;

    use crate::catalog::employee_catalog;
    use crate::parser::parse;
    use crate::plan::compile_program;
    use crate::scenarios::{CURSOR_UPDATE_B, UPDATE_A};

    /// EXPLAIN is purely static and carries the planner's decisions: one
    /// child per stage, netting with its proof notes, the footprint
    /// summary, the predicted shard placement, and the nested DAG — all
    /// rendering through the shared profile renderers.
    #[test]
    fn explain_reports_stages_decisions_and_dag() {
        const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
        let (_, catalog) = employee_catalog();
        let stmts = [
            parse(UPDATE_A).unwrap(),
            parse(OVERWRITE).unwrap(),
            parse(CURSOR_UPDATE_B).unwrap(),
        ];
        let plan = compile_program(&stmts, &catalog).unwrap();
        let tree = plan.explain();
        assert_eq!(tree.kind, "explain");
        assert_eq!(tree.children.len(), 3, "one child per stage");
        assert_eq!(tree.metric("stages"), Some(3));
        assert!(tree.metric("dag_nodes").unwrap_or(0) > 0);

        let netted = &tree.children[0];
        assert!(
            netted.notes.iter().any(|n| n.contains("netted by stage 2")),
            "the netted stage must say who killed it: {:?}",
            netted.notes
        );
        for (k, stage) in tree.children.iter().enumerate() {
            assert!(
                stage.notes.iter().any(|n| n.starts_with("footprint:")),
                "stage {k} must summarise its footprint"
            );
            assert!(
                stage.notes.iter().any(|n| n.starts_with("shard:")),
                "stage {k} must predict its shard placement"
            );
            assert!(
                !stage.children.is_empty(),
                "stage {k} must nest its expression DAG"
            );
        }
        assert!(
            tree.children[2].notes.iter().any(|n| n.contains("improve")
                || n.contains("par(E)")
                || n.contains("key-order independent")),
            "the improved stage must carry the rewrite's proof notes: {:?}",
            tree.children[2].notes
        );

        let json = obs::render_profile_json(&tree);
        assert!(json.contains("receivers-obs/profile/v1"));
        assert!(obs::render_profile_human(&tree).contains("stage 1"));
        assert!(obs::render_profile_chrome(&tree).contains("traceEvents"));
    }

    /// Each set-update stage names how its values are computed: one
    /// `par(E)` evaluation, or row by row with the reason the subquery has
    /// no algebraic form. Other stages name no values path.
    #[test]
    fn explain_names_the_values_path() {
        const NEGATIVE: &str = "update Employee set Salary = \
             (select New from NewSal where Old = Salary and Old not in table Fire)";
        let (_, catalog) = employee_catalog();
        let stmts = [UPDATE_A, NEGATIVE, CURSOR_UPDATE_B].map(|t| parse(t).unwrap());
        let tree = compile_program(&stmts, &catalog).unwrap().explain();
        let values = |k: usize| -> Vec<&String> {
            tree.children[k]
                .notes
                .iter()
                .filter(|n| n.starts_with("values:"))
                .collect()
        };
        assert_eq!(values(0), ["values: one par(E) evaluation"]);
        assert!(
            matches!(values(1).as_slice(), [n] if n.starts_with("values: row by row — ")
                && n.contains("negative atom")),
            "{:?}",
            values(1)
        );
        assert!(values(2).is_empty());
    }
}
