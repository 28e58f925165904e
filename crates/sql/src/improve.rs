//! The "code improvement tool" of Section 7's conclusion: given a
//! cursor-based update that is key-order independent, Theorem 6.5 licenses
//! replacing it by the (much cheaper) parallel semantics — which, as the
//! paper shows on update (B), is exactly the equivalent set-oriented
//! statement.
//!
//! The pipeline:
//!
//! 1. compile the cursor update to an algebraic method (`col := E`);
//! 2. check positivity and decide key-order independence (Theorem 5.12);
//! 3. on success, return the improved program: the single parallel
//!    expression `par(E)` whose one evaluation computes the precomputed
//!    key set of assignments `(tuple, new value)` for all tuples at once.
//!
//! The verdict of step 2 is a pure function of the method's schema,
//! signature and statements, so it is memoized in the planner's
//! process-wide proof cache (the same store as the netting pass's
//! implications): a statement recompiled in any later program skips the
//! decision. Theorem 5.12 stays the only oracle — a miss runs
//! [`decide_key_order_independence`] unchanged.

use std::sync::Arc;

use receivers_core::parallel::apply_par;
use receivers_core::{decide_key_order_independence, AlgebraicMethod};
use receivers_objectbase::{Instance, PropId};
use receivers_obs as obs;
use receivers_relalg::par::par;
use receivers_relalg::Expr;

use crate::ast::{ColumnRef, Condition, Projection, Select};
use crate::catalog::Catalog;
use crate::compile::CursorUpdate;
use crate::error::{Result, SqlError};
use crate::plan::{memoized, CachedProof, ProofKey};
use crate::waves::{WavePlan, Waves};

obs::counter!(C_IMPROVE_ATTEMPTS, "sql.improve.attempts");
obs::counter!(C_IMPROVE_REWRITES, "sql.improve.rewrites");
obs::counter!(C_CACHE_HIT, "sql.improve.cache.hit");
obs::counter!(C_CACHE_MISS, "sql.improve.cache.miss");

/// The improved, set-oriented form of a cursor update.
pub struct ImprovedUpdate {
    /// The verified algebraic method.
    pub method: AlgebraicMethod,
    /// The parallel expression `par(E)` computing all `(tuple, value)`
    /// assignment pairs in one evaluation — the paper's
    /// `select EmpId, New from Employee, NewSal where Salary = Old`.
    pub assignment_query: Expr,
}

impl ImprovedUpdate {
    /// Execute the improved program: one parallel application.
    pub fn apply(&self, instance: &Instance) -> Result<Instance> {
        let receivers = instance
            .class_members(self.method.signature_ref().receiving_class())
            .map(|t| receivers_objectbase::Receiver::new(vec![t]))
            .collect();
        apply_par(&self.method, instance, &receivers).map_err(SqlError::from)
    }
}

/// Why an improvement was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImproveRefusal {
    /// The subquery uses difference; Theorem 5.12 does not apply.
    NotPositive,
    /// The decision procedure proved the cursor update order *dependent*
    /// — rewriting it would change its (order-dependent, presumably
    /// unintended) semantics.
    OrderDependent {
        /// The first property whose before/after update expressions
        /// differ ([`receivers_core::Decision::offending_property`]; the
        /// procedure names one on every dependent verdict).
        property: Option<PropId>,
    },
}

impl ImproveRefusal {
    /// One line naming the refusal and, for an order-dependent update,
    /// the offending property by its SQL column.
    pub fn describe(&self, catalog: &Catalog) -> String {
        match self {
            Self::NotPositive => {
                "the value subquery is not positive; Theorem 5.12 does not apply".to_owned()
            }
            Self::OrderDependent { property: Some(p) } => format!(
                "order dependent (Theorem 5.12): the before/after update expressions \
                 differ on `{}`",
                catalog.column_name(*p)
            ),
            Self::OrderDependent { property: None } => "order dependent (Theorem 5.12)".to_owned(),
        }
    }
}

/// What the improve pass made of one lowered cursor update.
pub enum Improvement {
    /// The rewrite fired.
    Improved(ImprovedUpdate),
    /// The pass left the loop alone.
    Kept {
        /// The lowered method, handed back for the cursor stage to run.
        method: AlgebraicMethod,
        /// The refusal, or the error the decision stopped on.
        reason: Result<ImproveRefusal>,
    },
}

/// Attempt the rewrite. `Ok(Err(refusal))` is a *negative verdict* (the
/// tool worked, the statement is not improvable); `Err(_)` is a
/// compilation failure.
pub fn improve_cursor_update(
    update: &CursorUpdate,
) -> Result<std::result::Result<ImprovedUpdate, ImproveRefusal>> {
    match improve_method(update.to_algebraic()?) {
        Improvement::Improved(improved) => Ok(Ok(improved)),
        Improvement::Kept { reason, .. } => reason.map(Err),
    }
}

/// The improve pass on a cursor update already lowered by
/// [`CursorUpdate::to_algebraic`]: the planner lowers each statement
/// once and hands the method here. The key-order verdict comes from the
/// proof cache; a miss decides it with Theorem 5.12 and stores it.
pub fn improve_method(method: AlgebraicMethod) -> Improvement {
    improve_planned(method).0
}

/// [`improve_method`] and, for an order-dependent method, its wave plan
/// ([`crate::waves`]), kept in the proof cache with its verdict.
pub(crate) fn improve_planned(method: AlgebraicMethod) -> (Improvement, Option<Arc<WavePlan>>) {
    C_IMPROVE_ATTEMPTS.incr();
    let _span = obs::span("sql.improve");
    let (reason, waves) = match key_order_verdict(&method) {
        Ok((None, _)) => match par(&method.statements()[0].expr) {
            Ok(assignment_query) => {
                C_IMPROVE_REWRITES.incr();
                let improved = ImprovedUpdate {
                    method,
                    assignment_query,
                };
                return (Improvement::Improved(improved), None);
            }
            Err(e) => (Err(e.into()), None),
        },
        Ok((Some(refusal), waves)) => (Ok(refusal), waves),
        Err(e) => (Err(e), None),
    };
    (Improvement::Kept { method, reason }, waves)
}

/// `None` when `method` is key-order independent, else the refusal and,
/// for an order-dependent method, its wave plan. Positivity is checked
/// first (it is syntactic and cheap); the Theorem 5.12 decision, with
/// the wave plan, is memoized under the method's schema, signature and
/// statements, stored whole — two methods share an entry only when they
/// are equal, whatever their hashes.
fn key_order_verdict(
    method: &AlgebraicMethod,
) -> Result<(Option<ImproveRefusal>, Option<Arc<WavePlan>>)> {
    if !method.is_positive() {
        return Ok((Some(ImproveRefusal::NotPositive), None));
    }
    let key = ProofKey::KeyOrder(
        Arc::clone(method.schema()),
        method.signature_ref().clone(),
        method.statements().to_vec(),
    );
    let verdict = memoized(key, &C_CACHE_HIT, &C_CACHE_MISS, || {
        let decision = decide_key_order_independence(method).map_err(SqlError::from)?;
        let waves = (!decision.independent).then(|| Arc::new(Waves::plan(method)));
        Ok::<_, SqlError>(CachedProof::KeyOrder(decision, waves))
    })?;
    let CachedProof::KeyOrder(decision, waves) = verdict else {
        unreachable!("a key-order key maps to a key-order verdict")
    };
    let refusal = (!decision.independent).then_some(ImproveRefusal::OrderDependent {
        property: decision.offending_property,
    });
    Ok((refusal, waves))
}

/// Rewrite `var.Col` to plain `Col` so the suggestion is valid outside
/// the loop: in the set-oriented statement the target table is the
/// implicit outer scope, and unqualified resolution prefers it exactly
/// as cursor resolution preferred `var`. (An improvable update has no
/// `FROM` alias shadowing `var`: [`CursorUpdate::to_algebraic`] refuses
/// one.)
///
/// The one cursor→set rewrite: the planner runs an improved stage as the
/// set update over this subquery (`CursorUpdate::into_set_form`), and the
/// lint offers the same statement as its `R0301` suggestion.
pub fn strip_cursor_var(select: &Select, var: &str) -> Select {
    Select {
        projection: match &select.projection {
            Projection::Star => Projection::Star,
            Projection::Column(c) => Projection::Column(strip_ref(c, var)),
        },
        from: select.from.clone(),
        where_clause: (select.where_clause.as_ref()).map(|c| strip_cursor_var_in(c, var)),
    }
}

/// [`strip_cursor_var`] for a guard.
pub(crate) fn strip_cursor_var_in(cond: &Condition, var: &str) -> Condition {
    match cond {
        Condition::Eq(a, b) => Condition::Eq(strip_ref(a, var), strip_ref(b, var)),
        Condition::NotEq(a, b) => Condition::NotEq(strip_ref(a, var), strip_ref(b, var)),
        Condition::InTable(c, t) => Condition::InTable(strip_ref(c, var), t.clone()),
        Condition::NotInTable(c, t) => Condition::NotInTable(strip_ref(c, var), t.clone()),
        Condition::Exists(s) => Condition::Exists(Box::new(strip_cursor_var(s, var))),
        Condition::And(a, b) => Condition::And(
            Box::new(strip_cursor_var_in(a, var)),
            Box::new(strip_cursor_var_in(b, var)),
        ),
    }
}

fn strip_ref(r: &ColumnRef, var: &str) -> ColumnRef {
    let mut r = r.clone();
    if r.qualifier.as_deref() == Some(var) {
        r.qualifier = None;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::employee_catalog;
    use crate::compile::{compile, CompiledStatement};
    use crate::parser::parse;
    use crate::scenarios::{section7_instance, CURSOR_UPDATE_B, CURSOR_UPDATE_C, UPDATE_A};
    use receivers_core::sequential::apply_seq_unchecked;
    use receivers_objectbase::UpdateMethod as _;

    fn cursor_update(text: &str) -> CursorUpdate {
        let (_es, catalog) = employee_catalog();
        let stmt = parse(text).unwrap();
        match compile(&stmt, &catalog).unwrap() {
            CompiledStatement::CursorUpdate(cu) => cu,
            _ => panic!("expected cursor update"),
        }
    }

    /// Update (B) is improvable, and the improved program computes
    /// exactly what statement (A) computes — the paper's closing
    /// observation.
    #[test]
    fn update_b_improves_to_update_a() {
        let (es, catalog) = employee_catalog();
        let cu = cursor_update(CURSOR_UPDATE_B);
        let improved = improve_cursor_update(&cu)
            .unwrap()
            .expect("update (B) is key-order independent");
        let (i, _data) = section7_instance(&es);

        let improved_result = improved.apply(&i).unwrap();

        // Reference 1: the cursor program run sequentially.
        let seq_result = apply_seq_unchecked(&cu.interpreted_method(), &i, &cu.receivers(&i))
            .expect_done("cursor");
        assert_eq!(improved_result, seq_result);

        // Reference 2: statement (A).
        let stmt_a = parse(UPDATE_A).unwrap();
        let CompiledStatement::SetUpdate(su) = compile(&stmt_a, &catalog).unwrap() else {
            panic!()
        };
        assert_eq!(improved_result, su.apply(&i).unwrap());
    }

    /// A `FROM` alias that shadows the cursor variable keeps the update
    /// out of the improve pass (the relational compiler refuses the
    /// alias), so [`strip_cursor_var`] never meets a `var.` qualifier
    /// that names anything but the row: the stage stays a loop, and runs
    /// as one.
    #[test]
    fn a_shadowed_cursor_variable_is_never_rewritten() {
        const SAME_PAY: &str = "for each t in Employee do update t set Manager = \
             (select t.EmpId from Employee t where t.Salary = Salary)";
        let (es, catalog) = employee_catalog();
        let cu = cursor_update(SAME_PAY);
        assert!(improve_cursor_update(&cu).is_err(), "no algebraic form");
        let plan = crate::plan::compile_program(&[parse(SAME_PAY).unwrap()], &catalog).unwrap();
        assert!(plan.stages()[0].improved().is_none());
        let (i0, data) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = receivers_relalg::view::DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        let looped = apply_seq_unchecked(&cu.interpreted_method(), &i0, &cu.receivers(&i0))
            .expect_done("cursor");
        assert_eq!(i, looped);
        let e2 = data.employees[1];
        assert_eq!(
            i.successors(e2, es.manager).count(),
            2,
            "e2 and e3 earn 200"
        );
    }

    /// Update (C) is refused: the decision procedure proves it order
    /// dependent even on key sets.
    #[test]
    fn update_c_is_refused() {
        let cu = cursor_update(CURSOR_UPDATE_C);
        match improve_cursor_update(&cu).unwrap() {
            Err(refusal) => assert!(matches!(refusal, ImproveRefusal::OrderDependent { .. })),
            Ok(_) => panic!("update (C) must be refused"),
        }
    }

    /// The assignment query of the improved (B) evaluates to the key set
    /// `{(employee, new salary)}` in a single evaluation.
    #[test]
    fn assignment_query_computes_the_key_set() {
        let (es, _catalog) = employee_catalog();
        let cu = cursor_update(CURSOR_UPDATE_B);
        let improved = improve_cursor_update(&cu).unwrap().unwrap();
        let (i, data) = section7_instance(&es);

        let db = receivers_relalg::database::Database::from_instance(&i);
        let receivers: receivers_objectbase::ReceiverSet = i
            .class_members(es.employee)
            .map(|t| receivers_objectbase::Receiver::new(vec![t]))
            .collect();
        let bindings = receivers_relalg::eval::Bindings::for_receiver_set(
            improved.method.signature(),
            &receivers,
        )
        .unwrap();
        let rel = receivers_relalg::eval::eval(&improved.assignment_query, &db, &bindings).unwrap();
        let pairs: std::collections::BTreeSet<_> = rel.tuples().map(|t| t.to_vec()).collect();
        let expected: std::collections::BTreeSet<_> = [
            vec![data.employees[0], data.amounts[2]], // e1: a100 → a150
            vec![data.employees[1], data.amounts[3]], // e2: a200 → a250
            vec![data.employees[2], data.amounts[3]], // e3: a200 → a250
        ]
        .into();
        assert_eq!(pairs, expected);
    }
}
