//! **EXPLAIN** — the static half of the plan profiler.
//!
//! [`ProgramPlan::explain`] renders a compiled program as a
//! [`obs::ProfileNode`] tree *without executing anything*: one child per
//! stage carrying the planner's decisions (netting with its
//! [`Proof`](crate::sat::Proof) notes, selector sharing from the cse
//! pass, the improve rewrite) and the stage's footprint summary. The
//! same tree type backs **EXPLAIN ANALYZE**
//! ([`ProgramPlan::execute_viewed_profiled`] and friends), so every
//! renderer — [`obs::render_profile_human`], [`obs::render_profile_json`]
//! (`receivers-obs/profile/v1`), [`obs::render_profile_chrome`] — works
//! on both.

use receivers_obs as obs;

use crate::footprint::Write;
use crate::plan::{ProgramPlan, Stage};

impl ProgramPlan {
    /// The compiled program's **EXPLAIN** tree: stages, planner
    /// decisions and footprints. Purely static — nothing is executed and
    /// no instance is needed.
    pub fn explain(&self) -> obs::ProfileNode {
        let mut root = obs::ProfileNode::new("program", "explain");
        root.set_metric("stages", self.stages().len() as u64);
        for (idx, stage) in self.stages().iter().enumerate() {
            let mut node = crate::plan::stage_node(idx, stage);
            node.add_note(footprint_note(stage));
            for p in stage.proofs() {
                for n in &p.notes {
                    node.add_note(format!("proof: {n}"));
                }
            }
            root.children.push(node);
        }
        root
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

#[cfg(test)]
mod tests {
    use receivers_obs as obs;

    use crate::catalog::employee_catalog;
    use crate::parser::parse;
    use crate::plan::compile_program;
    use crate::scenarios::{CURSOR_UPDATE_B, CURSOR_UPDATE_C, DELETE_MANAGER, UPDATE_A};

    /// EXPLAIN is purely static and carries the planner's decisions: one
    /// child per stage, netting with its proof notes, selector sharing
    /// naming the stage shared with, and the footprint summary — all
    /// rendering through the shared profile renderers.
    #[test]
    fn explain_reports_stages_and_decisions() {
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
        }
        // (B)'s subquery is (A)'s, over the same unguarded selector.
        assert!(
            tree.children[2]
                .notes
                .iter()
                .any(|n| n == "selector shared with stage 1 (cse)"),
            "{:?}",
            tree.children[2].notes
        );
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
    /// `par(E)` evaluation — a negative atom included, as a difference —
    /// or one evaluation shared by every row when the subquery reads no
    /// column of the row. An improved stage runs as its set statement and
    /// names its path too; cursor stages name none.
    #[test]
    fn explain_names_the_values_path() {
        const NEGATIVE: &str = "update Employee set Salary = \
             (select New from NewSal where Old = Salary and Old not in table Fire)";
        const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
        let (_, catalog) = employee_catalog();
        let stmts = [
            UPDATE_A,
            NEGATIVE,
            OVERWRITE,
            CURSOR_UPDATE_B,
            CURSOR_UPDATE_C,
        ]
        .map(|t| parse(t).unwrap());
        let tree = compile_program(&stmts, &catalog).unwrap().explain();
        let values = |k: usize| -> Vec<&String> {
            tree.children[k]
                .notes
                .iter()
                .filter(|n| n.starts_with("values:"))
                .collect()
        };
        assert_eq!(values(0), ["values: one par(E) evaluation"]);
        assert_eq!(values(1), ["values: one par(E) evaluation"]);
        assert_eq!(
            values(2),
            ["values: one evaluation shared by every row (the subquery reads no column of the row)"]
        );
        assert_eq!(values(3), ["values: one par(E) evaluation"]);
        assert!(values(4).is_empty());
    }

    /// A cursor update the improve pass leaves alone says why: (C) names
    /// the Theorem 5.12 refusal and its offending property, a guarded
    /// update that it has no algebraic form. Improved and set stages
    /// carry no such note.
    #[test]
    fn explain_names_the_improve_refusal() {
        const GUARDED: &str = "for each t in Employee do if Salary in table Fire \
             update t set Salary = (select New from NewSal where Old = Salary)";
        let (_, catalog) = employee_catalog();
        let stmts =
            [CURSOR_UPDATE_C, GUARDED, CURSOR_UPDATE_B, UPDATE_A].map(|t| parse(t).unwrap());
        let tree = compile_program(&stmts, &catalog).unwrap().explain();
        let improve = |k: usize| -> Vec<&String> {
            tree.children[k]
                .notes
                .iter()
                .filter(|n| n.starts_with("improve:"))
                .collect()
        };
        assert_eq!(
            improve(0),
            [
                "improve: refused — order dependent (Theorem 5.12): the before/after \
              update expressions differ on `Employee.Salary`"
            ]
        );
        assert!(
            matches!(improve(1).as_slice(), [n] if n.starts_with("improve: not attempted — ")
                && n.contains("guarded")),
            "{:?}",
            improve(1)
        );
        assert!(improve(2).is_empty() && improve(3).is_empty());
    }

    /// Every cursor stage run by its algebraic sequence driver names how
    /// the sequence runs: (C) in waves, its reads of the written column
    /// anchored through `Manager`; a read of the written column at a row
    /// reached only through that column receiver at a time. Improved and
    /// set stages carry no such note.
    #[test]
    fn explain_names_the_sequence_path() {
        const THROUGH_ITSELF: &str = "for each t in Employee do update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = Manager)";
        let (_, catalog) = employee_catalog();
        let stmts =
            [CURSOR_UPDATE_C, THROUGH_ITSELF, CURSOR_UPDATE_B, UPDATE_A].map(|t| parse(t).unwrap());
        let tree = compile_program(&stmts, &catalog).unwrap().explain();
        let sequence = |k: usize| -> Vec<&String> {
            tree.children[k]
                .notes
                .iter()
                .filter(|n| n.starts_with("sequence:"))
                .collect()
        };
        assert_eq!(
            sequence(0),
            [
                "sequence: in waves — reads of Employee.Salary are anchored through Manager, \
                 which the stage does not write"
            ]
        );
        assert_eq!(
            sequence(1),
            [
                "sequence: receiver at a time — the read of Employee.Manager at `E1` is bound \
                 only through Manager itself"
            ]
        );
        assert!(sequence(2).is_empty() && sequence(3).is_empty());
    }

    /// Each set stage with a guard names how it runs: every conjunct one
    /// probe per row after its subquery is evaluated once, or, for an
    /// `EXISTS` correlated with the row beyond one equality, its position
    /// and why it is one `par(E)` evaluation over the rows. Unguarded and
    /// cursor stages carry no guard note.
    #[test]
    fn explain_names_the_guard_path() {
        const TWICE: &str = "update Employee set Salary = (select Amount from Fire) \
             where Salary in table Fire and exists (select * from Employee E1 \
             where E1.EmpId = Manager and E1.Salary = Salary)";
        const CURSOR: &str = "for each t in Employee do if Salary in table Fire \
             delete t from Employee";
        let (_, catalog) = employee_catalog();
        let stmts = [DELETE_MANAGER, TWICE, UPDATE_A, CURSOR].map(|t| parse(t).unwrap());
        let tree = compile_program(&stmts, &catalog).unwrap().explain();
        let guard = |k: usize| -> Vec<&String> {
            tree.children[k]
                .notes
                .iter()
                .filter(|n| n.starts_with("guard:"))
                .collect()
        };
        assert_eq!(
            guard(0),
            ["guard: each subquery evaluated once, then one probe per row (1 conjunct)"]
        );
        assert_eq!(
            guard(1),
            [
                "guard: the other 1 conjunct evaluated once, then probed per row",
                "guard: conjunct 2 as one par(E) evaluation over the rows — the EXISTS reads \
                 the row twice (Manager, Salary)",
            ]
        );
        assert!(guard(2).is_empty() && guard(3).is_empty());
    }
}
