//! Program-level planner: one compiled pipeline behind every execution
//! path.
//!
//! [`mod@crate::compile`] compiles one statement at a time; this module
//! compiles a **whole update program** into [`Stage`]s — each statement
//! as the paper's Section 7 models it, one update method applied to a key
//! set of receivers, plus the per-kind data the planner passes computed
//! for it — and executes them through every driver the repository has:
//!
//! * [`ProgramPlan::execute_viewed`] — the sequential in-place driver over
//!   a maintained [`DatabaseView`], batching set-oriented stages through
//!   the vectorized appliers of [`receivers_core::algebraic`];
//! * [`ProgramPlan::execute_sharded`] — the same stage loop on a fresh
//!   view, the entry point the end-to-end benchmark prices as its
//!   sharded arm (the library's sharded engine is
//!   [`receivers_core::shard`], which no stage reaches; see DESIGN.md);
//! * [`ProgramPlan::execute_durable`] — the same pipeline, logging the
//!   whole program as one record of a [`DurableStore`] write-ahead log.
//!
//! A program is one transaction on every driver: the stage loop keeps one
//! program-level delta log, and a program that is not applied — an
//! `Undefined` stage, an error, a failed WAL write — is undone whole.
//!
//! Three planner passes run at compile time:
//!
//! 1. **improve** — the Section 7 "code improvement tool"
//!    ([`crate::improve`]): a key-order-independent cursor update runs as
//!    the set statement it rewrites to, its loop collapsed into one
//!    evaluation of `par(E)` (Theorem 6.5) against the flat `TupleSet`
//!    kernel;
//! 2. **cse** — common-subexpression sharing: each stage gets a
//!    hash-consed selector slot (its table plus its guard up to cursor
//!    variable renaming) and, for updates, a values slot (the selector
//!    plus the value subquery), so one evaluation serves every stage
//!    sharing the slot until a write invalidates it;
//! 3. **net** — successive assignments to the same `(table, property)`
//!    are netted by [`net_stores`]: a store provably overwritten before
//!    any read is marked [`Stage::netted`] and skipped by every executor,
//!    with a [`Proof`] recording why the skip is sound (backed by
//!    [`Solver::implies`] when the guards need a semantic argument). The
//!    lint's dead-assignment check is the same rule.
//!
//! Every stage is wrapped in `sql.plan.*` counters and spans; its
//! footprint is [`crate::footprint::footprint`] of its statement.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use receivers_core::algebraic::{
    apply_delete_batch_logged, try_apply_assignment_batch, Statement as AlgStatement,
};
use receivers_core::shard::ShardConfig;
use receivers_core::{AlgebraicMethod, Decision};
use receivers_objectbase::{
    undo_ops, ClassId, DeltaOp, InPlaceOutcome, Instance, InstanceTxn, Oid, PropId, Schema,
    Signature,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval as eval_expr, Bindings};
use receivers_relalg::view::DatabaseView;
use receivers_relalg::{Expr, RelName, RelSchema, Relation};
use receivers_wal::{DurableStore, WalResult, WalStorage};

use crate::ast::{ColumnRef, Condition, Projection, Select, SqlStatement};
use crate::catalog::{Catalog, TableInfo};
use crate::compile::{
    compile, lower_guard, lower_values, CompiledStatement, CursorDelete, CursorUpdate,
    GuardConjunct, LoweredValues, SetDelete, SetUpdate, ValuesQuery,
};
use crate::error::{Result, SqlError};
use crate::footprint::{footprint, guard_reads, Footprint, Write};
use crate::improve::{improve_planned, ImproveRefusal, ImprovedUpdate, Improvement};
use crate::sat::{GuardRef, Implication, Proof, Solver};
use crate::scope::Column;
use crate::waves::{WavePlan, Waves};

obs::counter!(C_PROGRAMS, "sql.plan.programs_compiled");
obs::counter!(C_STAGES, "sql.plan.stages_compiled");
obs::counter!(C_CSE_SHARED, "sql.plan.cse_shared");
obs::counter!(C_NETTED, "sql.plan.netted");
obs::counter!(C_IMPROVED, "sql.plan.improved");
obs::counter!(C_EXECUTIONS, "sql.plan.executions");
obs::counter!(C_STAGES_EXECUTED, "sql.plan.stages_executed");
obs::counter!(C_STAGES_SKIPPED, "sql.plan.stages_skipped");
obs::counter!(C_SELECTOR_EVALS, "sql.plan.selector_evals");
obs::counter!(C_SELECTOR_REUSES, "sql.plan.selector_reuses");
obs::counter!(C_VECTORIZED_ROWS, "sql.plan.vectorized_rows");
obs::counter!(C_PROOF_HIT, "sql.plan.proof_cache.hit");
obs::counter!(C_PROOF_MISS, "sql.plan.proof_cache.miss");
obs::counter!(C_LOWERING_HIT, "sql.plan.lowering_cache.hit");
obs::counter!(C_LOWERING_MISS, "sql.plan.lowering_cache.miss");

// ---------------------------------------------------------------------
// Condition/select canonicalization (the cse pass's slot keys).
// ---------------------------------------------------------------------

/// Rewrite `var`-qualified column references to the canonical row marker
/// `#r`, so selectors differing only in cursor-variable naming hash-cons
/// onto one slot. Returns `None` (no sharing) when a `FROM` alias shadows
/// `var` anywhere in the tree — rewriting under a shadow would change
/// which binding a qualifier resolves to.
fn canon_condition(cond: &Condition, var: &str) -> Option<String> {
    if shadows_cond(cond, var) {
        return None;
    }
    Some(format!("{}", RewriteCond(cond, var)))
}

/// [`canon_condition`] for a value subquery.
fn canon_select(select: &Select, var: &str) -> Option<String> {
    if shadows_select(select, var) {
        return None;
    }
    Some(format!("{}", RewriteSelect(select, var)))
}

fn shadows_cond(cond: &Condition, var: &str) -> bool {
    match cond {
        Condition::Eq(..) | Condition::NotEq(..) => false,
        Condition::InTable(..) | Condition::NotInTable(..) => false,
        Condition::Exists(s) => shadows_select(s, var),
        Condition::And(a, b) => shadows_cond(a, var) || shadows_cond(b, var),
    }
}

/// `true` when a `FROM` alias anywhere in `select` is named `var` (or
/// the canonical row marker `#r`).
pub(crate) fn shadows_select(select: &Select, var: &str) -> bool {
    select
        .from
        .iter()
        .any(|f| f.name() == var || f.name() == "#r")
        || select
            .where_clause
            .as_ref()
            .is_some_and(|c| shadows_cond(c, var))
}

/// Display adapter rendering a condition with `var`-qualifiers rewritten
/// to `#r` (no shadowing below us — checked by the callers above).
struct RewriteCond<'a>(&'a Condition, &'a str);
struct RewriteSelect<'a>(&'a Select, &'a str);
struct RewriteCol<'a>(&'a ColumnRef, &'a str);

impl std::fmt::Display for RewriteCol<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0.qualifier {
            Some(q) if q == self.1 => write!(f, "#r.{}", self.0.column),
            Some(q) => write!(f, "{q}.{}", self.0.column),
            None => write!(f, "{}", self.0.column),
        }
    }
}

impl std::fmt::Display for RewriteCond<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.1;
        match self.0 {
            Condition::Eq(a, b) => write!(f, "{} = {}", RewriteCol(a, v), RewriteCol(b, v)),
            Condition::NotEq(a, b) => {
                write!(f, "{} <> {}", RewriteCol(a, v), RewriteCol(b, v))
            }
            Condition::InTable(c, t) => write!(f, "{} in table {t}", RewriteCol(c, v)),
            Condition::NotInTable(c, t) => {
                write!(f, "{} not in table {t}", RewriteCol(c, v))
            }
            Condition::Exists(s) => write!(f, "exists ({})", RewriteSelect(s, v)),
            Condition::And(a, b) => {
                write!(f, "{} and {}", RewriteCond(a, v), RewriteCond(b, v))
            }
        }
    }
}

impl std::fmt::Display for RewriteSelect<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.1;
        let s = self.0;
        write!(f, "select ")?;
        match &s.projection {
            Projection::Star => write!(f, "*")?,
            Projection::Column(c) => write!(f, "{}", RewriteCol(c, v))?,
        }
        write!(f, " from ")?;
        for (i, item) in s.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &item.alias {
                Some(a) => write!(f, "{} {a}", item.table)?,
                None => write!(f, "{}", item.table)?,
            }
        }
        if let Some(w) = &s.where_clause {
            write!(f, " where {}", RewriteCond(w, v))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Stages and the compiled program.
// ---------------------------------------------------------------------

/// The execution discipline of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Set-oriented delete: one batch filter evaluation, one batch
    /// cascade removal.
    SetDelete,
    /// Cursor delete: the receiver loop, guard re-evaluated against the
    /// mutating instance.
    CursorDelete,
    /// Set-oriented update: one batch values evaluation, one batch edge
    /// replacement.
    SetUpdate,
    /// Cursor update: the algebraic sequence driver when the statement
    /// has an algebraic form, the receiver loop otherwise.
    CursorUpdate,
    /// A cursor update the improve pass rewrote: it runs as its set
    /// statement, one values evaluation replacing the whole loop
    /// (Theorem 6.5).
    ImprovedUpdate,
}

/// What a stage executes: its compiled statement and the per-kind data
/// the planner passes computed for it.
enum Exec {
    /// A set delete and its guard, lowered once to anchored conjuncts
    /// ([`crate::compile::lower_guard`]).
    SetDelete {
        delete: SetDelete,
        guard: Arc<[GuardConjunct]>,
    },
    /// A set update and its planner data.
    SetUpdate(SetUpdateExec),
    /// A cursor update (B) the improve pass rewrote (Theorem 6.5): it runs
    /// as the set statement (A) the rewrite produces
    /// ([`crate::improve::strip_cursor_var`]), compiled once like any set
    /// update.
    Improved {
        set: SetUpdateExec,
        improved: ImprovedUpdate,
    },
    /// A cursor statement the receiver loop runs ([`run_receivers`]).
    Receivers(Cursor),
    /// A cursor update the improve pass left alone that has an algebraic
    /// form, with the improve pass's refusal or the error its decision
    /// stopped on (EXPLAIN's `improve:` note). It runs in waves
    /// ([`crate::waves`]) or, when waves are refused, with why, by its
    /// sequence driver (EXPLAIN's `sequence:` note).
    Algebraic {
        update: CursorUpdate,
        method: AlgebraicMethod,
        refusal: Result<ImproveRefusal>,
        waves: Arc<WavePlan>,
    },
}

/// A cursor statement the receiver loop runs, with its guard's conjuncts
/// when it has one: a cursor delete, or a cursor update with no algebraic
/// form, why it has none, and its value subquery lowered once.
enum Cursor {
    Delete {
        delete: CursorDelete,
        guard: Option<Arc<[GuardConjunct]>>,
    },
    Update {
        update: Box<CursorUpdate>,
        why: SqlError,
        guard: Option<Arc<[GuardConjunct]>>,
        values: Arc<LoweredValues>,
    },
}

/// A set update, its guard's conjuncts when it has one, its values slot,
/// and its value subquery lowered once: the query it evaluates is
/// `par(E)` or the closed `E₀` every row shares
/// ([`crate::compile::lower_values`]).
struct SetUpdateExec {
    update: SetUpdate,
    guard: Option<Arc<[GuardConjunct]>>,
    values: usize,
    lowered: Arc<LoweredValues>,
}

/// One statement of a compiled program: what it executes, its footprint,
/// its selector slot, and the planner-pass verdicts that apply to it.
pub struct Stage {
    exec: Exec,
    statement: SqlStatement,
    footprint: Footprint,
    /// The hash-consed selector slot: the table plus the canonical guard.
    selector: usize,
    /// The earlier stage whose selector or values slot this one shares
    /// (cse pass).
    shared_with: Option<usize>,
    netted_by: Option<usize>,
    proofs: Vec<Proof>,
}

impl Stage {
    /// The execution discipline.
    pub fn kind(&self) -> StageKind {
        match &self.exec {
            Exec::SetDelete { .. } => StageKind::SetDelete,
            Exec::SetUpdate(_) => StageKind::SetUpdate,
            Exec::Improved { .. } => StageKind::ImprovedUpdate,
            Exec::Receivers(Cursor::Delete { .. }) => StageKind::CursorDelete,
            Exec::Receivers(Cursor::Update { .. }) | Exec::Algebraic { .. } => {
                StageKind::CursorUpdate
            }
        }
    }

    /// The source statement.
    pub fn statement(&self) -> &SqlStatement {
        &self.statement
    }

    /// The stage's hash-consed selector slot: its table plus its guard
    /// up to cursor-variable renaming. Stages with equal slots select
    /// the same rows wherever no write in between touches what the guard
    /// reads, and the executor evaluates the selector once for them.
    pub fn selector(&self) -> usize {
        self.selector
    }

    /// The statement's footprint — what the netting pass and the
    /// selector cache's invalidation consume.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// `true` when the netting pass proved this stage's store dead and
    /// every executor skips it.
    pub fn netted(&self) -> bool {
        self.netted_by.is_some()
    }

    /// The (0-based) later stage whose store netted this one away.
    pub fn netted_by(&self) -> Option<usize> {
        self.netted_by
    }

    /// `true` when the stage's selector or values slot is shared with an
    /// earlier stage (cse pass).
    pub fn shared_selector(&self) -> bool {
        self.shared_with.is_some()
    }

    /// The compiled algebraic form, for unguarded cursor updates that
    /// have one.
    pub fn algebraic(&self) -> Option<&AlgebraicMethod> {
        match &self.exec {
            Exec::Algebraic { method, .. } => Some(method),
            _ => None,
        }
    }

    /// The improve-pass rewrite, when it fired.
    pub fn improved(&self) -> Option<&ImprovedUpdate> {
        match &self.exec {
            Exec::Improved { improved, .. } => Some(improved),
            _ => None,
        }
    }

    /// Proofs attached by the planner passes (netting justification,
    /// guard-equivalence implications).
    pub fn proofs(&self) -> &[Proof] {
        &self.proofs
    }

    /// The set update a set or improved update stage runs.
    fn set_update(&self) -> Option<&SetUpdateExec> {
        match &self.exec {
            Exec::SetUpdate(set) | Exec::Improved { set, .. } => Some(set),
            _ => None,
        }
    }

    /// A set statement's guard, lowered to conjuncts.
    fn guard_query(&self) -> Option<&[GuardConjunct]> {
        match &self.exec {
            Exec::SetDelete { guard, .. } => Some(guard),
            _ => self.set_update()?.guard.as_deref(),
        }
    }

    /// A receiver-loop stage's guard, lowered to conjuncts.
    fn cursor_guard(&self) -> Option<&[GuardConjunct]> {
        match &self.exec {
            Exec::Receivers(Cursor::Delete { guard, .. } | Cursor::Update { guard, .. }) => {
                guard.as_deref()
            }
            _ => None,
        }
    }

    /// A set or improved update's value subquery lowered to one
    /// relational query: `par(E)` over the rows, or the closed `E₀` every
    /// row shares. `None` for the other stage kinds.
    pub fn values_query(&self) -> Option<&ValuesQuery> {
        self.set_update().map(|set| &set.lowered.query)
    }
}

/// A whole update program compiled into its stages — the single
/// execution path behind the sequential, sharded, and durable drivers.
pub struct ProgramPlan {
    catalog: Arc<Catalog>,
    stages: Vec<Stage>,
    /// The properties each selector and values slot reads, for executor
    /// cache invalidation.
    slot_reads: Vec<BTreeSet<PropId>>,
}

impl ProgramPlan {
    /// The catalog the program compiled against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The program's stages, in statement order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

/// The cse pass's hash-consing: a slot per distinct canonical key, with
/// the stage that claimed it first and the properties its evaluation
/// reads.
#[derive(Default)]
struct Slots {
    ids: HashMap<String, usize>,
    owners: Vec<usize>,
    reads: Vec<BTreeSet<PropId>>,
}

impl Slots {
    /// The slot under `key` and, when an earlier stage claimed it, that
    /// stage; a new slot reading `reads` for `stage` otherwise. A `None`
    /// key (a cursor variable shadowed inside the tree) is never shared.
    fn claim(
        &mut self,
        key: Option<String>,
        stage: usize,
        reads: impl FnOnce() -> BTreeSet<PropId>,
    ) -> (usize, Option<usize>) {
        if let Some(&id) = key.as_ref().and_then(|k| self.ids.get(k)) {
            return (id, Some(self.owners[id]));
        }
        let id = self.owners.len();
        self.owners.push(stage);
        self.reads.push(reads());
        if let Some(k) = key {
            self.ids.insert(k, id);
        }
        (id, None)
    }

    /// The values slot of an update at `stage` whose value subquery has
    /// the canonical text `select` ([`canon_select`]): the selector plus
    /// that text, reading everything the statement reads.
    fn values(
        &mut self,
        selector: usize,
        select: Option<&str>,
        stage: usize,
        footprint: &Footprint,
    ) -> (usize, Option<usize>) {
        let key = select.map(|s| format!("val:{selector}:{s}"));
        let (id, owner) = self.claim(key, stage, || footprint.reads.clone());
        if owner.is_some() {
            C_CSE_SHARED.incr();
        }
        (id, owner)
    }
}

/// Compile a whole update program into a [`ProgramPlan`]: per-statement
/// compilation through [`compile`], then the improve, cse, and netting
/// passes. This subsumes per-statement compilation — a one-statement
/// program is exactly the old pipeline.
pub fn compile_program(program: &[SqlStatement], catalog: &Catalog) -> Result<ProgramPlan> {
    let _span = obs::span("sql.plan.compile");
    C_PROGRAMS.incr();
    let key = CatalogKey::new(catalog);
    let mut slots = Slots::default();
    let mut stages: Vec<Stage> = Vec::with_capacity(program.len());
    for (idx, stmt) in program.iter().enumerate() {
        let compiled = compile(stmt, catalog)?;
        C_STAGES.incr();
        let footprint = footprint(stmt, catalog);
        let (table, var, guard, _) = stmt.parts();
        let canon_guard = guard.and_then(|cond| canon_condition(cond, var));
        // Cse pass: the selector slot is the table plus the canonical
        // guard; an unguarded statement selects every row of its table.
        let (selector, mut shared_with) = match guard {
            None => (
                slots
                    .claim(Some(format!("scan:{table}")), idx, BTreeSet::new)
                    .0,
                None,
            ),
            Some(_) => {
                let key = canon_guard.as_ref().map(|c| format!("sel:{table}:{c}"));
                let claimed = slots.claim(key, idx, || guard_reads(stmt, catalog));
                if claimed.1.is_some() {
                    C_CSE_SHARED.incr();
                }
                claimed
            }
        };
        // Each guard and value subquery is lowered once per process, in
        // the proof cache: stages and programs that share one share its
        // lowering.
        let lowered_guard = |cond: &Condition, info: &TableInfo| {
            lowering(ProofKey::Guard, canon_guard.as_deref(), table, &key, || {
                Ok(CachedProof::Guard(
                    lower_guard(cond, catalog, info, var)?.into(),
                ))
            })
            .map(|lowered| match lowered {
                CachedProof::Guard(conjuncts) => conjuncts,
                _ => unreachable!("a guard's key holds its conjuncts"),
            })
        };
        let lowered_values = |select: &Select, canon: Option<&str>, info: &TableInfo| {
            lowering(ProofKey::Values, canon, table, &key, || {
                let values = lower_values(select, catalog, info, var)?;
                Ok(CachedProof::Values(Arc::new(values)))
            })
            .map(|lowered| match lowered {
                CachedProof::Values(values) => values,
                _ => unreachable!("a value subquery's key holds its lowering"),
            })
        };
        let mut proofs = Vec::new();
        let exec = match compiled {
            CompiledStatement::SetDelete(delete) => Exec::SetDelete {
                guard: lowered_guard(&delete.condition, delete.table())?,
                delete,
            },
            CompiledStatement::SetUpdate(update) => {
                let canon = canon_select(update.select(), var);
                let (values, owner) = slots.values(selector, canon.as_deref(), idx, &footprint);
                shared_with = owner.or(shared_with);
                let lowered = lowered_values(update.select(), canon.as_deref(), update.table())?;
                Exec::SetUpdate(SetUpdateExec {
                    guard: (update.condition.as_ref())
                        .map(|c| lowered_guard(c, update.table()))
                        .transpose()?,
                    values,
                    lowered,
                    update,
                })
            }
            CompiledStatement::CursorDelete(delete) => Exec::Receivers(Cursor::Delete {
                guard: (delete.condition.as_ref())
                    .map(|c| lowered_guard(c, delete.table()))
                    .transpose()?,
                delete,
            }),
            CompiledStatement::CursorUpdate(update) => {
                // A cursor update claims its values slot too, so a later
                // set update with the same subquery reports the share.
                let canon = canon_select(update.select(), var);
                let (values, owner) = slots.values(selector, canon.as_deref(), idx, &footprint);
                shared_with = owner.or(shared_with);
                let lowered = lowered_values(update.select(), canon.as_deref(), update.table())?;
                // Improve pass: an unguarded, key-order-independent cursor
                // update (B) runs as its set statement (A). The subquery
                // is lowered once: the method assigns its `E`, the set
                // statement evaluates `par(E)` (or the closed `E₀`), and
                // the improve pass hands the method back when it leaves
                // the loop alone.
                match update.algebraic(&lowered.expr).map(improve_planned) {
                    Ok((Improvement::Improved(improved), _)) => {
                        C_IMPROVED.incr();
                        proofs.push(Proof::default().note(
                            "improve pass: the cursor update is key-order independent \
                             (Theorem 5.12), so the loop is replaced by one par(E) \
                             evaluation with identical semantics (Theorem 6.5)",
                        ));
                        Exec::Improved {
                            set: SetUpdateExec {
                                guard: None,
                                values,
                                lowered,
                                update: update.into_set_form(),
                            },
                            improved,
                        }
                    }
                    Ok((Improvement::Kept { method, reason }, waves)) => Exec::Algebraic {
                        waves: waves.unwrap_or_else(|| Arc::new(Waves::plan(&method))),
                        update,
                        method,
                        refusal: reason,
                    },
                    Err(why) => Exec::Receivers(Cursor::Update {
                        values: lowered,
                        guard: (update.condition.as_ref())
                            .map(|c| lowered_guard(c, update.table()))
                            .transpose()?,
                        update: Box::new(update),
                        why,
                    }),
                }
            }
        };
        stages.push(Stage {
            exec,
            statement: stmt.clone(),
            footprint,
            selector,
            shared_with,
            netted_by: None,
            proofs,
        });
    }

    // Netting pass.
    let program: Vec<(&SqlStatement, &Footprint)> = stages
        .iter()
        .map(|s| (&s.statement, &s.footprint))
        .collect();
    let netted = net_stores(&program, catalog);
    for (i, (stage, netting)) in stages.iter_mut().zip(netted).enumerate() {
        let Some(Netting { by, mut proof }) = netting else {
            continue;
        };
        if let Some(Write::Update { table, column, .. }) = &stage.footprint.write {
            proof.notes.insert(
                0,
                format!(
                    "store to {table}.{column} in statement {} is overwritten by \
                     statement {} before any statement reads {column}",
                    i + 1,
                    by + 1
                ),
            );
        }
        C_NETTED.incr();
        stage.netted_by = Some(by);
        stage.proofs.push(proof);
    }
    Ok(ProgramPlan {
        catalog: key.catalog,
        stages,
        slot_reads: slots.reads,
    })
}

// ---------------------------------------------------------------------
// The netting pass.
// ---------------------------------------------------------------------

/// The key of one memoized planner verdict in the proof cache.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum ProofKey {
    /// A netting guard implication: the catalog, stored whole and
    /// compared by full equality, the target table, and the *canonical*
    /// premise and conclusion guards (`canon_condition`, cursor
    /// variables rewritten to `#r`).
    Implication(Catalog, String, String, String),
    /// The improve pass's Theorem 5.12 key-order verdict: the method's
    /// schema, signature and statements, stored whole and compared by
    /// full equality.
    KeyOrder(Arc<Schema>, Signature, Vec<AlgStatement>),
    /// A guard's lowering ([`lower_guard`]): the catalog, and the row's
    /// table with the canonical guard.
    Guard(CatalogKey, String),
    /// A value subquery's lowering ([`lower_values`]): the catalog, and
    /// the row's table with the canonical subquery.
    Values(CatalogKey, String),
}

/// A catalog in a proof-cache key, hashed once per compiled program:
/// a lookup hashes one word for it instead of every table and the
/// schema, and compares it by full equality.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct CatalogKey {
    hash: u64,
    catalog: Arc<Catalog>,
}

impl CatalogKey {
    fn new(catalog: &Catalog) -> Self {
        let mut h = DefaultHasher::new();
        catalog.hash(&mut h);
        Self {
            hash: h.finish(),
            catalog: Arc::new(catalog.clone()),
        }
    }
}

impl Hash for CatalogKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One memoized planner verdict or lowering.
#[derive(Clone)]
pub(crate) enum CachedProof {
    /// The solver proved the netting implication; its proof notes.
    Implies(Vec<String>),
    /// The solver could not prove it.
    Inconclusive,
    /// The key-order decision ([`crate::improve`]) and, for an order
    /// dependent method, its wave plan ([`crate::waves`]).
    KeyOrder(Decision, Option<Arc<WavePlan>>),
    /// A guard's conjuncts.
    Guard(Arc<[GuardConjunct]>),
    /// A value subquery's lowering.
    Values(Arc<LoweredValues>),
}

/// Process-wide memo of the planner's verdicts: the netting rule's
/// [`Solver::implies`] queries and the improve pass's key-order
/// decisions, each order-dependent one with its wave plan; and of the
/// guards and value subqueries lowered to relational algebra. All are
/// pure functions of their keys, so recompiling a program — or compiling
/// any program sharing a guard, a subquery, a guard pair or a cursor
/// update — skips the lowering, the solver, the decision procedure and
/// the wave planner. Entries are bounded by the distinct guards,
/// subqueries, guard pairs and cursor updates the process compiles;
/// there is no eviction.
type ProofCache = Mutex<HashMap<ProofKey, CachedProof>>;

fn proof_cache() -> &'static ProofCache {
    static CACHE: OnceLock<ProofCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The verdict under `key`: from the proof cache (counting `hit`), or
/// computed and stored (counting `miss`). Errors are returned, not
/// stored.
pub(crate) fn memoized<E>(
    key: ProofKey,
    hit: &'static obs::Counter,
    miss: &'static obs::Counter,
    compute: impl FnOnce() -> std::result::Result<CachedProof, E>,
) -> std::result::Result<CachedProof, E> {
    let cached = proof_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .cloned();
    if let Some(v) = cached {
        hit.incr();
        return Ok(v);
    }
    miss.incr();
    let v = compute()?;
    proof_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, v.clone());
    Ok(v)
}

/// The lowering of a guard or value subquery under `kind`, the row's
/// `table` and its canonical text `canon`: from the proof cache, or
/// computed and stored. A `None` text (an alias shadows the row) is
/// computed alone.
fn lowering(
    kind: fn(CatalogKey, String) -> ProofKey,
    canon: Option<&str>,
    table: &str,
    catalog: &CatalogKey,
    lower: impl FnOnce() -> Result<CachedProof>,
) -> Result<CachedProof> {
    match canon {
        Some(c) => memoized(
            kind(catalog.clone(), format!("{table}:{c}")),
            &C_LOWERING_HIT,
            &C_LOWERING_MISS,
            lower,
        ),
        None => lower(),
    }
}

/// The number of verdicts in the process-wide proof cache; lowerings
/// are not counted.
#[doc(hidden)]
pub fn proof_cache_len() -> usize {
    proof_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .keys()
        .filter(|k| !matches!(k, ProofKey::Guard(..) | ProofKey::Values(..)))
        .count()
}

/// Clear the process-wide proof cache: every verdict kind and every
/// lowering. Bench/test support: a cold-compile measurement needs every
/// lookup to miss, and the cache is otherwise append-only for the
/// process lifetime.
#[doc(hidden)]
pub fn reset_proof_cache() {
    proof_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// A store [`net_stores`] proved dead.
#[derive(Debug, Clone)]
pub struct Netting {
    /// The (0-based) later statement whose store covers this one.
    pub by: usize,
    /// Why the later store covers this one.
    pub proof: Proof,
}

/// The netting rule: which stores of a program are provably overwritten
/// before anything reads them. `program` is each statement with its
/// [`footprint`]; the result has one entry per statement. The planner
/// skips each netted stage, and the lint's dead-assignment pass
/// (`R0201`) reports it.
///
/// Statement `i` is netted by the first later statement `j`, skipping
/// those already netted (they never run), that writes the same `(table,
/// property)` without reading it and whose rows cover `i`'s:
///
/// * `j` is unguarded; or
/// * both are guarded, the guards are identical up to cursor-variable
///   renaming or [`Solver::implies`] proves `gᵢ ⟹ gⱼ`, and no statement
///   strictly between them writes a property `gⱼ` reads (so `gⱼ` selects
///   at `j` every row it would at `i`).
///
/// The scan from `i` stops at a statement that reads the property, at
/// any delete (it changes the class membership guards observe) and at a
/// write that does not resolve.
pub fn net_stores(
    program: &[(&SqlStatement, &Footprint)],
    catalog: &Catalog,
) -> Vec<Option<Netting>> {
    let solver = Solver::new(catalog);
    let mut netted: Vec<Option<Netting>> = vec![None; program.len()];
    for i in (0..program.len()).rev() {
        let Some(Write::Update { table, prop, .. }) = &program[i].1.write else {
            continue;
        };
        for j in i + 1..program.len() {
            if netted[j].is_some() {
                continue;
            }
            let later = program[j].1;
            if later.reads.contains(prop) {
                break;
            }
            match &later.write {
                Some(Write::Update {
                    table: tj,
                    prop: pj,
                    ..
                }) if pj == prop && tj == table => {
                    if let Some(proof) = cover(program, &netted, i, j, table, &solver, catalog) {
                        netted[i] = Some(Netting { by: j, proof });
                        break;
                    }
                }
                Some(Write::Update { .. }) => {}
                Some(Write::Delete { .. }) | None => break,
            }
        }
    }
    netted
}

/// Does statement `j`'s row set provably cover statement `i`'s (same
/// table, same property, no read in between — already established)?
/// Returns the covering argument, `None` when it cannot be made.
fn cover(
    program: &[(&SqlStatement, &Footprint)],
    netted: &[Option<Netting>],
    i: usize,
    j: usize,
    table: &str,
    solver: &Solver<'_>,
    catalog: &Catalog,
) -> Option<Proof> {
    let ((si, fi), (sj, fj)) = (program[i], program[j]);
    let (gi, gj) = match (&fi.guard, &fj.guard) {
        (_, None) => {
            return Some(Proof::default().note(
                "the later store is unguarded: it rewrites the property on every row \
                 of the table, and no delete intervenes",
            ))
        }
        // The earlier store hits every row; the later one only some —
        // rows failing the later guard would keep the earlier value.
        (None, Some(_)) => return None,
        (Some(gi), Some(gj)) => (gi, gj),
    };
    // The later guard must select at `j` the rows it would at `i`: no
    // statement that runs in between writes a property it reads.
    let reads = guard_reads(sj, catalog);
    let stable = (i + 1..j).all(|k| {
        netted[k].is_some()
            || matches!(&program[k].1.write, Some(Write::Update { prop, .. }) if !reads.contains(prop))
    });
    if !stable {
        return None;
    }
    let (vi, vj) = (si.parts().1, sj.parts().1);
    let (ci, cj) = (canon_condition(gi, vi), canon_condition(gj, vj));
    let identical = ci.is_some() && ci == cj;
    let implies = || match solver.implies(
        table,
        GuardRef::in_cursor(vi, Some(gi)),
        GuardRef::in_cursor(vj, Some(gj)),
    ) {
        Implication::Implies(p) => CachedProof::Implies(p.notes),
        _ => CachedProof::Inconclusive,
    };
    // Memoized across compilations when both guards have a canonical
    // text: with the table and the catalog, it determines the query.
    let verdict = match (ci, cj) {
        (Some(ci), Some(cj)) => {
            let key = ProofKey::Implication(catalog.clone(), table.to_owned(), ci, cj);
            let Ok(v) = memoized(key, &C_PROOF_HIT, &C_PROOF_MISS, || {
                Ok::<_, std::convert::Infallible>(implies())
            });
            v
        }
        _ => implies(),
    };
    let mut proof = match (identical, &verdict) {
        (true, _) => Proof::default().note(
            "the stores share one hash-consed guard (identical up to cursor-variable \
             renaming), and no intervening statement writes a property the guard reads",
        ),
        (false, CachedProof::Implies(_)) => Proof::default().note(
            "the earlier store's guard implies the later one's, and no intervening \
             statement writes a property the later guard reads",
        ),
        (false, _) => return None,
    };
    if let CachedProof::Implies(notes) = verdict {
        proof.notes.extend(notes);
    }
    Some(proof)
}

// ---------------------------------------------------------------------
// The vectorized executor.
// ---------------------------------------------------------------------

/// Per-execution lazy evaluation cache over the cse pass's slots:
/// selectors and values evaluate once per batch and are reused by every
/// stage sharing the slot, until a write invalidates them. Soundness of
/// reuse: a selector's result depends on class membership (only deletes
/// change it — any delete clears the cache) and on the edges of the
/// properties it reads ([`ProgramPlan::slot_reads`]; an update of
/// property `p` evicts exactly the entries reading `p`).
struct ExecCache<'p> {
    plan: &'p ProgramPlan,
    rows: HashMap<usize, Vec<Oid>>,
    values: HashMap<usize, Assignments>,
    /// Local mirror of `sql.plan.selector_reuses` for this execution
    /// only — the global counter is shared across threads, so a profiler
    /// diffs these instead.
    hits: u64,
    /// Local mirror of `sql.plan.selector_evals`.
    misses: u64,
    /// Closed guard subqueries `E₀` evaluated in this execution.
    subqueries: u64,
}

/// A set update's phase-1 answer: the selected rows and their new values.
#[derive(Clone)]
enum Assignments {
    /// Each row with its own values.
    PerRow(Vec<(Oid, Vec<Oid>)>),
    /// Every row gets the same sorted `values` (the subquery reads no
    /// column of the row).
    Shared { rows: Vec<Oid>, values: Vec<Oid> },
}

impl Assignments {
    /// The number of selected rows.
    fn len(&self) -> usize {
        match self {
            Assignments::PerRow(rows) => rows.len(),
            Assignments::Shared { rows, .. } => rows.len(),
        }
    }
}

/// The rows of `rows` that pass the lowered `guard`, in their order. The
/// conjuncts run in source order, each over the rows the earlier ones
/// kept, as [`crate::eval::eval_condition`]'s `AND` stops a row at the
/// first conjunct that fails. A row-equality tests the row's own edges;
/// a probe tests them against its closed `E₀`, evaluated when the first
/// row reaches it and kept in `e0s` (one slot per conjunct) for later
/// calls until the caller clears it; a correlated `EXISTS` is one
/// evaluation of its `par(E)` over the rows that reach it. `class` is
/// the rows' class; `evals` counts `E₀` evaluations.
fn select_rows(
    guard: &[GuardConjunct],
    mut rows: Vec<Oid>,
    e0s: &mut [Option<Vec<Oid>>],
    class: ClassId,
    instance: &Instance,
    db: &Database,
    evals: &mut u64,
) -> Result<Vec<Oid>> {
    let values = |t: Oid, v: Column| {
        let (own, prop) = match v {
            Column::Id => (Some(t), None),
            Column::Prop(p) => (None, Some(p)),
        };
        own.into_iter().chain(
            prop.into_iter()
                .flat_map(move |p| instance.successors(t, p)),
        )
    };
    for (conjunct, set) in guard.iter().zip(e0s) {
        if rows.is_empty() {
            break;
        }
        match conjunct {
            GuardConjunct::RowEq { negated, a, b } => rows.retain(|&t| {
                let hit = values(t, *a).any(|x| values(t, *b).any(|y| x == y));
                hit != *negated
            }),
            GuardConjunct::Probe { negated, row, e0 } => {
                let set = match set {
                    Some(set) => set,
                    None => {
                        *evals += 1;
                        let rel = eval_expr(e0, db, &Bindings::new())?;
                        set.insert(rel.tuples().map(|t| t[0]).collect())
                    }
                };
                rows.retain(|&t| {
                    let hit = match row {
                        None => !set.is_empty(),
                        Some(v) => values(t, *v).any(|x| set.binary_search(&x).is_ok()),
                    };
                    hit != *negated
                });
            }
            GuardConjunct::Rows { query, .. } => {
                let pass = eval_rec(query, class, &rows, db)?;
                let pass: Vec<Oid> = pass.tuples().map(|t| t[0]).collect();
                rows.retain(|t| pass.binary_search(t).is_ok());
            }
        }
    }
    Ok(rows)
}

impl<'p> ExecCache<'p> {
    fn new(plan: &'p ProgramPlan) -> Self {
        Self {
            plan,
            rows: HashMap::new(),
            values: HashMap::new(),
            hits: 0,
            misses: 0,
            subqueries: 0,
        }
    }

    /// The rows a set statement selects from `table` against the current
    /// instance, in class-member order, as the two-phase set statements
    /// enumerate them: every member, or the members passing its `guard`
    /// (lowered at plan time), cached under its `selector` slot.
    fn rows(
        &mut self,
        selector: usize,
        guard: Option<&[GuardConjunct]>,
        table: &TableInfo,
        instance: &Instance,
        db: &Database,
    ) -> Result<Vec<Oid>> {
        // Membership is never cached: it is cheap to enumerate and
        // correct by construction.
        let members = || instance.class_members(table.class).collect();
        let Some(guard) = guard else {
            return Ok(members());
        };
        if let Some(cached) = self.rows.get(&selector) {
            C_SELECTOR_REUSES.incr();
            self.hits += 1;
            return Ok(cached.clone());
        }
        C_SELECTOR_EVALS.incr();
        self.misses += 1;
        let mut e0s = vec![None; guard.len()];
        let out = select_rows(
            guard,
            members(),
            &mut e0s,
            table.class,
            instance,
            db,
            &mut self.subqueries,
        )?;
        self.rows.insert(selector, out.clone());
        Ok(out)
    }

    /// The assignments a set update whose rows come from the `selector`
    /// slot produces, cached under its values slot: from one evaluation
    /// of its query against `db` (none when no row is selected): a closed
    /// `E₀` once for every row, a `par(E)` split per row, where a row
    /// `par(E)` pairs with nothing gets no values, as the row-by-row
    /// subquery gives it.
    fn values(
        &mut self,
        set: &SetUpdateExec,
        selector: usize,
        instance: &Instance,
        db: &Database,
    ) -> Result<Assignments> {
        if let Some(cached) = self.values.get(&set.values) {
            C_SELECTOR_REUSES.incr();
            self.hits += 1;
            return Ok(cached.clone());
        }
        let info = set.update.table();
        let base = self.rows(selector, set.guard.as_deref(), info, instance, db)?;
        C_SELECTOR_EVALS.incr();
        self.misses += 1;
        let out = match &set.lowered.query {
            ValuesQuery::Shared(closed) => {
                let values = if base.is_empty() {
                    Vec::new()
                } else {
                    let rel = eval_expr(closed, db, &Bindings::new())?;
                    rel.tuples().map(|t| t[0]).collect()
                };
                Assignments::Shared { rows: base, values }
            }
            ValuesQuery::PerRow(_) if base.is_empty() => Assignments::PerRow(Vec::new()),
            ValuesQuery::PerRow(query) => {
                let pairs = par_pairs(query, info.class, &base, db)?;
                let mut out = Vec::with_capacity(base.len());
                for &t in &base {
                    let from = pairs.partition_point(|&(row, _)| row < t);
                    let to = from + pairs[from..].partition_point(|&(row, _)| row == t);
                    out.push((t, pairs[from..to].iter().map(|&(_, v)| v).collect()));
                }
                Assignments::PerRow(out)
            }
        };
        self.values.insert(set.values, out.clone());
        Ok(out)
    }

    /// Evict what an executed stage's write invalidated.
    fn invalidate_after(&mut self, fp: &Footprint) {
        match &fp.write {
            Some(Write::Update { prop, .. }) => {
                let reads = &self.plan.slot_reads;
                self.rows.retain(|&slot, _| !reads[slot].contains(prop));
                self.values.retain(|&slot, _| !reads[slot].contains(prop));
            }
            // Deletes change class membership (and cascade edges):
            // everything cached is suspect.
            Some(Write::Delete { .. }) | None => {
                self.rows.clear();
                self.values.clear();
            }
        }
    }
}

/// What one executed stage did, collected unconditionally (integer adds
/// and a selector clock) and read only by the profiled drivers.
#[derive(Default)]
struct StageMeter {
    /// Rows the stage's selector produced (receivers visited).
    rows_in: u64,
    /// Rows the stage actually wrote (deletes fired, assignments made).
    rows_out: u64,
    /// Time a set stage spent selecting its rows (and their values): the
    /// rest of the stage is its batch write.
    selector_ns: u64,
    /// Segments an algebraic cursor stage ran as one set evaluation each
    /// (0 when it ran receiver at a time).
    waves: u64,
}

/// Where a profiled stage started: clocks and selector-cache counters,
/// diffed against their values once the stage is done.
struct StageMark {
    start_ns: u64,
    t0: std::time::Instant,
    hits: u64,
    misses: u64,
    subqueries: u64,
    log_len: usize,
}

/// Short label for a stage kind, shared by EXPLAIN and the profilers.
pub(crate) fn stage_kind_label(kind: StageKind) -> &'static str {
    match kind {
        StageKind::SetDelete => "set-delete",
        StageKind::CursorDelete => "cursor-delete",
        StageKind::SetUpdate => "set-update",
        StageKind::CursorUpdate => "cursor-update",
        StageKind::ImprovedUpdate => "improved-update",
    }
}

/// The profile node skeleton of one stage — statement text plus the
/// planner verdicts; EXPLAIN and the measured profiles both start here.
pub(crate) fn stage_node(idx: usize, stage: &Stage) -> obs::ProfileNode {
    let mut n = obs::ProfileNode::new(format!("stage {}", idx + 1), stage_kind_label(stage.kind()));
    n.add_note(stage.statement.to_string());
    if let Some(j) = stage.netted_by {
        n.add_note(format!(
            "netted by stage {} — skipped by every driver",
            j + 1
        ));
    }
    if let Some(k) = stage.shared_with {
        n.add_note(format!("selector shared with stage {} (cse)", k + 1));
    }
    match stage.values_query() {
        Some(ValuesQuery::PerRow(_)) => n.add_note("values: one par(E) evaluation"),
        Some(ValuesQuery::Shared(_)) => n.add_note(
            "values: one evaluation shared by every row (the subquery reads no column of the row)",
        ),
        None => {}
    }
    if let Some(conjuncts) = stage.guard_query() {
        let correlated: Vec<(usize, &str)> = (1..)
            .zip(conjuncts)
            .filter_map(|(k, c)| match c {
                GuardConjunct::Rows { why, .. } => Some((k, why.as_str())),
                _ => None,
            })
            .collect();
        let probed = conjuncts.len() - correlated.len();
        let s = if probed == 1 { "" } else { "s" };
        if correlated.is_empty() {
            n.add_note(format!(
                "guard: each subquery evaluated once, then one probe per row ({probed} conjunct{s})"
            ));
        } else if probed > 0 {
            n.add_note(format!(
                "guard: the other {probed} conjunct{s} evaluated once, then probed per row"
            ));
        }
        for (k, why) in correlated {
            n.add_note(format!(
                "guard: conjunct {k} as one par(E) evaluation over the rows — {why}"
            ));
        }
    }
    match &stage.exec {
        Exec::Algebraic {
            update,
            refusal: Ok(refusal),
            ..
        } => n.add_note(format!(
            "improve: refused — {}",
            refusal.describe(update.catalog())
        )),
        Exec::Algebraic {
            refusal: Err(why), ..
        }
        | Exec::Receivers(Cursor::Update { why, .. }) => {
            n.add_note(format!("improve: not attempted — {why}"))
        }
        _ => {}
    }
    if let Exec::Algebraic { update, waves, .. } = &stage.exec {
        n.add_note(match waves.as_ref() {
            Ok(w) => format!("sequence: in waves — {}", w.describe(update.catalog())),
            Err(why) => format!(
                "sequence: receiver at a time — {}",
                why.describe(update.catalog())
            ),
        });
    }
    n
}

/// Stamp one executed stage's measurements onto its node — wall time,
/// rows, selector-cache deltas — and push it under the profile root.
fn push_stage_profile(
    prof: &mut obs::ProfileNode,
    idx: usize,
    stage: &Stage,
    mark: StageMark,
    meter: StageMeter,
    cache: &ExecCache<'_>,
    log_len: usize,
) {
    let mut node = stage_node(idx, stage);
    node.start_ns = mark.start_ns;
    node.wall_ns = mark.t0.elapsed().as_nanos() as u64;
    node.rows_in = meter.rows_in;
    node.rows_out = meter.rows_out;
    node.set_metric("selector_cache_hits", cache.hits - mark.hits);
    node.set_metric("selector_cache_misses", cache.misses - mark.misses);
    node.set_metric("delta_ops", (log_len - mark.log_len) as u64);
    if stage.guard_query().is_some() || stage.cursor_guard().is_some() {
        node.set_metric("guard_subqueries", cache.subqueries - mark.subqueries);
    }
    if meter.selector_ns > 0 {
        node.set_metric("selector_ns", meter.selector_ns);
    }
    if stage.algebraic().is_some() {
        node.set_metric("waves", meter.waves);
    }
    prof.children.push(node);
}

/// The stage loop's optional program-commit step, called with the applied
/// program's log, the view's database and the profile root; on `Err` the
/// loop undoes the program. The durable driver's is [`commit_to`].
type CommitStep<'a> =
    &'a mut dyn FnMut(&[DeltaOp], &Database, Option<&mut obs::ProfileNode>) -> WalResult<()>;

/// The durable driver's program-commit step: commit an applied program's
/// log to `store` — one WAL record, then the store's checkpoint rule, from
/// the view's database — and, when profiled, price it as the root's
/// `commit` child: records, bytes, syncs, sync latency and checkpoints off
/// [`DurableStore::stats`].
fn commit_to<S: WalStorage>(
    store: &mut DurableStore<S>,
) -> impl FnMut(&[DeltaOp], &Database, Option<&mut obs::ProfileNode>) -> WalResult<()> + '_ {
    |log, db, prof| {
        let _span = obs::span("sql.plan.commit");
        let mark = prof
            .is_some()
            .then(|| (store.stats(), obs::now_ns(), std::time::Instant::now()));
        store.commit(log, db)?;
        if let (Some(p), Some((w0, start_ns, t0))) = (prof, mark) {
            let w = store.stats();
            let mut node = obs::ProfileNode::new("commit", "wal-commit");
            node.start_ns = start_ns;
            node.wall_ns = t0.elapsed().as_nanos() as u64;
            node.rows_in = log.len() as u64;
            node.set_metric("records", w.records - w0.records);
            node.set_metric("bytes", w.bytes - w0.bytes);
            node.set_metric("syncs", w.syncs - w0.syncs);
            node.set_metric("sync_ns", w.sync_ns - w0.sync_ns);
            node.set_metric("checkpoints", w.checkpoints - w0.checkpoints);
            p.children.push(node);
        }
        Ok(())
    }
}

/// One evaluation of a `par(·)` query against `db`, with `rec` bound to
/// `rows` (scheme `self` over `class`).
fn eval_rec(query: &Expr, class: ClassId, rows: &[Oid], db: &Database) -> Result<Relation> {
    let rec = Relation::from_tuples(
        RelSchema::unary("self", class),
        rows.iter().map(std::slice::from_ref),
    )?;
    let mut bindings = Bindings::new();
    bindings.bind("rec", rec);
    Ok(eval_expr(query, db, &bindings)?)
}

/// One evaluation of a `par(E)` query against `db`, with `rec` bound to
/// `rows` (scheme `self` over `class`): every `(row, value)` assignment
/// pair, sorted. The scheme is `(self, value)`; the degenerate `a := self`
/// statement leaves a unary result (see `receivers_core::parallel`).
pub(crate) fn par_pairs(
    query: &Expr,
    class: ClassId,
    rows: &[Oid],
    db: &Database,
) -> Result<Vec<(Oid, Oid)>> {
    let rel = eval_rec(query, class, rows, db)?;
    Ok(match rel.schema().arity() {
        1 => rel.tuples().map(|t| (t[0], t[0])).collect(),
        _ => rel.tuples().map(|t| (t[0], t[1])).collect(),
    })
}

/// What each receiver of a cursor stage writes.
#[derive(Clone, Copy)]
enum RowWrite {
    /// Its row of the property.
    Update(PropId),
    /// Its object of the class, with every edge at it.
    Delete(ClassId),
}

/// Whether a receiver's write can change what the closed query `e`
/// reads: an update of a property it reads, or a delete of a class it
/// reads or that a property it reads starts or ends at (the delete
/// cascades its edges).
fn written(e: &Expr, write: RowWrite, schema: &Schema) -> bool {
    e.base_relations().into_iter().any(|r| match (r, write) {
        (RelName::Prop(p), RowWrite::Update(q)) => p == q,
        (RelName::Class(c), RowWrite::Delete(d)) => c == d,
        (RelName::Prop(p), RowWrite::Delete(d)) => {
            let p = schema.property(p);
            p.src == d || p.dst == d
        }
        (RelName::Class(_), RowWrite::Update(_)) => false,
    })
}

/// The receiver loop: the paper's `M_seq` (Def. 3.1) for a cursor
/// statement, in place. Receivers run in canonical key order (a unary
/// receiver set is ordered by its objects, as `class_members` yields
/// them). Each one's guard runs through the set statements' lowered
/// conjuncts ([`select_rows`]) with the receiver as the only row, against
/// the view the earlier receivers left; a receiver that passes is
/// deleted, or its row replaced by its values — `E` with `self` bound to
/// the receiver (by Lemma 6.7, `par(E)` with `rec` bound to it), or the
/// closed `E₀` every row shares — in one observed transaction committed
/// into `log`. Each closed `E₀`, of a guard probe or of shared values, is
/// evaluated once for the stage, and again only after a receiver's write
/// that can change it ([`written`]); so every receiver sees the values
/// the instance in front of it gives, which is exactly `M_seq`. A value
/// that is not a typed object of the instance is an `Err`, which undoes
/// the program.
fn run_receivers(
    cursor: &Cursor,
    instance: &mut Instance,
    view: &mut DatabaseView,
    log: &mut Vec<DeltaOp>,
    meter: &mut StageMeter,
    evals: &mut u64,
) -> Result<InPlaceOutcome> {
    let (table, guard, row_write, values) = match cursor {
        Cursor::Delete { delete, guard } => (
            delete.table(),
            guard.as_deref(),
            RowWrite::Delete(delete.table().class),
            None,
        ),
        Cursor::Update {
            update,
            guard,
            values,
            ..
        } => (
            update.table(),
            guard.as_deref(),
            RowWrite::Update(update.property),
            Some(&**values),
        ),
    };
    let guard = guard.unwrap_or_default();
    let schema = instance.schema();
    let stale: Vec<bool> = guard
        .iter()
        .map(|c| matches!(c, GuardConjunct::Probe { e0, .. } if written(e0, row_write, schema)))
        .collect();
    let shared_stale = values.is_some_and(
        |v| matches!(&v.query, ValuesQuery::Shared(e0) if written(e0, row_write, schema)),
    );
    let mut e0s: Vec<Option<Vec<Oid>>> = vec![None; guard.len()];
    let mut shared: Option<Vec<Oid>> = None;
    let class = table.class;
    let order: Vec<Oid> = instance.class_members(class).collect();
    meter.rows_in += order.len() as u64;
    for tuple in order {
        let db = view.database();
        if select_rows(guard, vec![tuple], &mut e0s, class, instance, db, evals)?.is_empty() {
            continue;
        }
        let new_values: Vec<Oid> = match values {
            None => Vec::new(),
            Some(LoweredValues {
                query: ValuesQuery::Shared(e0),
                ..
            }) => match &shared {
                Some(v) => v.clone(),
                None => {
                    let rel = eval_expr(e0, db, &Bindings::new())?;
                    shared.insert(rel.tuples().map(|t| t[0]).collect()).clone()
                }
            },
            Some(LoweredValues { expr, .. }) => {
                let mut row = Bindings::new();
                row.bind("self", Relation::singleton("self", tuple));
                let rel = eval_expr(expr, db, &row)?;
                rel.tuples().map(|t| t[0]).collect()
            }
        };
        meter.rows_out += 1;
        let logged = log.len();
        let mut txn = InstanceTxn::begin_observed(instance, view);
        match row_write {
            RowWrite::Update(prop) => {
                txn.replace_successors(tuple, prop, &new_values)?;
            }
            RowWrite::Delete(_) => {
                txn.remove_object_cascade(tuple);
            }
        }
        txn.commit_into(log);
        if log.len() > logged {
            for (set, _) in e0s.iter_mut().zip(&stale).filter(|(_, &s)| s) {
                *set = None;
            }
            if shared_stale {
                shared = None;
            }
        }
    }
    Ok(InPlaceOutcome::Applied)
}

/// Run one stage on the shared in-place path against `instance`, with
/// `view` maintained and every committed op appended to the program
/// `log` — the one place a stage's [`Exec`] is matched for execution.
fn run_stage_viewed(
    cache: &mut ExecCache<'_>,
    stage: &Stage,
    instance: &mut Instance,
    view: &mut DatabaseView,
    log: &mut Vec<DeltaOp>,
    meter: &mut StageMeter,
) -> Result<InPlaceOutcome> {
    match &stage.exec {
        Exec::SetDelete { delete, guard } => {
            let t0 = std::time::Instant::now();
            let rows = cache.rows(
                stage.selector,
                Some(guard),
                delete.table(),
                instance,
                view.database(),
            )?;
            meter.selector_ns = t0.elapsed().as_nanos() as u64;
            C_VECTORIZED_ROWS.add(rows.len() as u64);
            meter.rows_in += rows.len() as u64;
            meter.rows_out += rows.len() as u64;
            apply_delete_batch_logged(instance, view, &rows, log);
            Ok(InPlaceOutcome::Applied)
        }
        Exec::SetUpdate(set) | Exec::Improved { set, .. } => {
            let t0 = std::time::Instant::now();
            let assigns = cache.values(set, stage.selector, instance, view.database())?;
            meter.selector_ns = t0.elapsed().as_nanos() as u64;
            C_VECTORIZED_ROWS.add(assigns.len() as u64);
            meter.rows_in += assigns.len() as u64;
            meter.rows_out += assigns.len() as u64;
            let prop = set.update.property;
            match &assigns {
                Assignments::PerRow(rows) => {
                    try_apply_assignment_batch(instance, view, prop, rows, log)?
                }
                Assignments::Shared { rows, values } => {
                    let rows: Vec<(Oid, &[Oid])> =
                        rows.iter().map(|&row| (row, &values[..])).collect();
                    try_apply_assignment_batch(instance, view, prop, &rows, log)?
                }
            }
            Ok(InPlaceOutcome::Applied)
        }
        Exec::Receivers(cursor) => {
            run_receivers(cursor, instance, view, log, meter, &mut cache.subqueries)
        }
        Exec::Algebraic {
            update,
            method,
            waves,
            ..
        } => {
            let order = update.receivers(instance).canonical_order();
            meter.rows_in += order.len() as u64;
            meter.rows_out += order.len() as u64;
            Ok(match waves.as_ref() {
                Ok(waves) => {
                    let class = update.table().class;
                    let (outcome, n) = waves.apply(method, class, &order, instance, view, log);
                    meter.waves = n;
                    outcome
                }
                Err(_) => method.apply_sequence_logged(instance, view, &order, log),
            })
        }
    }
}

impl ProgramPlan {
    /// The one stage loop behind every driver. It owns netted-stage
    /// skipping, spans and counters, profile marks, outcome handling,
    /// selector-cache invalidation and the program's atomicity; the
    /// drivers differ only in the program-commit step they pass (the
    /// durable driver's store). The maintained `view` is the only
    /// observer: every stage writes through it and evaluates against it.
    ///
    /// A program is one transaction. The loop owns one program-level delta
    /// log, and every writer a stage runs commits its ops into it; once
    /// every stage has applied, the log is handed to `commit` (one WAL
    /// record on the durable driver). An `Undefined` stage, an error, or a
    /// failed commit undoes the whole log on the instance and the view, so
    /// the instance ends either fully updated or as passed in — never
    /// half-done, and never ahead of the durable state.
    fn run_stages(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        commit: Option<CommitStep<'_>>,
        mut prof: Option<&mut obs::ProfileNode>,
    ) -> Result<InPlaceOutcome> {
        let _span = obs::span("sql.plan.execute");
        C_EXECUTIONS.incr();
        let mut cache = ExecCache::new(self);
        let mut log: Vec<DeltaOp> = Vec::new();
        let mut failed = None;
        for (idx, stage) in self.stages.iter().enumerate() {
            if stage.netted() {
                C_STAGES_SKIPPED.incr();
                if let Some(p) = prof.as_deref_mut() {
                    p.children.push(stage_node(idx, stage));
                }
                continue;
            }
            let _s = obs::span("sql.plan.stage");
            C_STAGES_EXECUTED.incr();
            let mark = prof.is_some().then(|| StageMark {
                start_ns: obs::now_ns(),
                t0: std::time::Instant::now(),
                hits: cache.hits,
                misses: cache.misses,
                subqueries: cache.subqueries,
                log_len: log.len(),
            });
            let mut meter = StageMeter::default();
            let outcome = run_stage_viewed(&mut cache, stage, instance, view, &mut log, &mut meter);
            if let (Some(p), Some(mark), Ok(_)) = (prof.as_deref_mut(), mark, &outcome) {
                push_stage_profile(p, idx, stage, mark, meter, &cache, log.len());
            }
            match outcome {
                Ok(InPlaceOutcome::Applied) => {}
                other => {
                    failed = Some((idx, other));
                    break;
                }
            }
            cache.invalidate_after(&stage.footprint);
        }
        let (result, culprit) = match failed {
            None => {
                match commit.map_or(Ok(()), |c| c(&log, view.database(), prof.as_deref_mut())) {
                    Ok(()) => return Ok(InPlaceOutcome::Applied),
                    Err(e) => (Err(e.into()), "the program's WAL commit".to_owned()),
                }
            }
            Some((idx, result)) => (result, format!("stage {}", idx + 1)),
        };
        let _undo = obs::span("sql.plan.rollback");
        undo_ops(instance, view, &log);
        if let Some(p) = prof {
            let why = match &result {
                Ok(InPlaceOutcome::Undefined(why)) => why.clone(),
                Ok(other) => format!("{other:?}"),
                Err(e) => e.to_string(),
            };
            p.add_note(format!("rolled back by {culprit}: {why}"));
            p.set_metric("rolled_back_ops", log.len() as u64);
        }
        result
    }

    /// Run `execute` with **EXPLAIN ANALYZE** attached: a profile root
    /// for `driver`, timed around the run and, when the flight recorder
    /// is on, retained rendered in its ring — also when the run fails,
    /// so a rolled-back program's rollback note survives its error.
    fn profiled(
        &self,
        driver: &str,
        execute: impl FnOnce(Option<&mut obs::ProfileNode>) -> Result<InPlaceOutcome>,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        let mut root = obs::ProfileNode::new(format!("program ({driver})"), "program");
        root.set_metric("stages", self.stages.len() as u64);
        let start_ns = obs::now_ns();
        let t0 = std::time::Instant::now();
        let outcome = execute(Some(&mut root));
        root.start_ns = start_ns;
        root.wall_ns = t0.elapsed().as_nanos() as u64;
        if obs::flight_enabled() {
            obs::flight::flight_record(
                "profile",
                format!("{} ({:.3} ms)", root.name, root.wall_ns as f64 / 1e6),
                Some(obs::render_profile_json(&root)),
            );
        }
        Ok((outcome?, root))
    }

    /// Execute the compiled program through the **sequential viewed
    /// driver**: every stage in statement order against `instance`, with
    /// `view` incrementally maintained. Netted stages are skipped. The
    /// program is atomic: on a non-[`Applied`](InPlaceOutcome::Applied)
    /// stage outcome, or an error, every stage is undone and `instance`
    /// and `view` are exactly as passed in — the paper's `M(I, s)` is
    /// undefined when any step is.
    pub fn execute_viewed(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
    ) -> Result<InPlaceOutcome> {
        self.run_stages(instance, view, None, None)
    }

    /// [`ProgramPlan::execute_viewed`] with **EXPLAIN ANALYZE** attached:
    /// the same execution bit for bit, plus a [`obs::ProfileNode`] tree —
    /// one child per stage with wall time, rows in/out, and
    /// selector-cache hit/miss counts; a rolled-back program's root notes
    /// which stage caused the rollback. Render with
    /// [`obs::render_profile_human`], [`obs::render_profile_json`] or
    /// [`obs::render_profile_chrome`].
    pub fn execute_viewed_profiled(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        self.profiled("viewed", |prof| self.run_stages(instance, view, None, prof))
    }

    /// Execute the compiled program through the **durable driver**: the
    /// viewed driver's stage loop, whose program-commit step is
    /// [`DurableStore::commit`]. An applied program is appended to
    /// `store`'s write-ahead log as **one record**, synced under the
    /// store's group-commit policy, and the store then checkpoints from
    /// `view` if its threshold is reached. A program that is not applied
    /// writes nothing. On a storage error the program is undone in memory
    /// and its record is not in the log, so `instance` and `view` are as
    /// passed in and equal to what [`DurableStore::open`] would recover.
    pub fn execute_durable<S: WalStorage>(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<S>,
    ) -> Result<InPlaceOutcome> {
        self.run_stages(instance, view, Some(&mut commit_to(store)), None)
    }

    /// [`ProgramPlan::execute_durable`] with **EXPLAIN ANALYZE**
    /// attached: per-stage wall time, rows and selector-cache counters,
    /// then one program-level `commit` child after the stages pricing the
    /// program's WAL record (records, bytes, syncs, sync latency,
    /// checkpoints) off the store's [`DurableStore::stats`].
    pub fn execute_durable_profiled<S: WalStorage>(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<S>,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        let mut commit = commit_to(store);
        self.profiled("durable", |prof| {
            self.run_stages(instance, view, Some(&mut commit), prof)
        })
    }

    /// Execute the compiled program through the **sharded driver**: the
    /// one stage loop on a fresh maintained view, bit-identical to
    /// [`ProgramPlan::execute_viewed`]. The config is unused; it is kept
    /// so the benchmark's sharded arm keeps its call shape until the
    /// drivers fold into one entry point. No stage runs on the per-shard
    /// worker loops of [`receivers_core::shard`]: a stage whose
    /// certificate is shard-safe is key-order independent, so the improve
    /// pass has already made it a `par(E)` stage.
    pub fn execute_sharded(
        &self,
        instance: &mut Instance,
        _cfg: &ShardConfig,
    ) -> Result<InPlaceOutcome> {
        let mut view = DatabaseView::new(instance);
        self.run_stages(instance, &mut view, None, None)
    }

    /// [`ProgramPlan::execute_sharded`] with **EXPLAIN ANALYZE**
    /// attached, under a `program (sharded)` root.
    pub fn execute_sharded_profiled(
        &self,
        instance: &mut Instance,
        _cfg: &ShardConfig,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        self.profiled("sharded", |prof| {
            let mut view = DatabaseView::new(instance);
            self.run_stages(instance, &mut view, None, prof)
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use receivers_wal::{FaultStorage, WalConfig};

    use super::*;
    use crate::catalog::employee_catalog;
    use crate::error::SqlError;
    use crate::parser::parse;
    use crate::scenarios::{
        section7_instance, CURSOR_DELETE_MANAGER, CURSOR_DELETE_SIMPLE, CURSOR_UPDATE_B,
        CURSOR_UPDATE_C, DELETE_SIMPLE, UPDATE_A, UPDATE_C_SET,
    };

    fn program(texts: &[&str]) -> Vec<SqlStatement> {
        texts
            .iter()
            .map(|t| parse(t).unwrap_or_else(|e| panic!("{t}: {e}")))
            .collect()
    }

    fn set_update(text: &str, catalog: &Catalog) -> SetUpdate {
        match compile(&parse(text).unwrap(), catalog).unwrap() {
            CompiledStatement::SetUpdate(su) => su,
            _ => panic!("{text} should compile to a set update"),
        }
    }

    /// The improve pass collapses the paper's cursor update (B) into one
    /// vectorized `par(E)` stage whose effect is statement (A)'s.
    #[test]
    fn cursor_update_b_improves_into_one_batched_stage() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[CURSOR_UPDATE_B]), &catalog).unwrap();
        assert_eq!(plan.stages().len(), 1);
        let stage = &plan.stages()[0];
        assert_eq!(stage.kind(), StageKind::ImprovedUpdate);
        assert!(stage.improved().is_some());
        assert!(!stage.proofs().is_empty(), "the rewrite carries its proof");

        let (i0, _) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        let want = set_update(UPDATE_A, &catalog).apply(&i0).unwrap();
        assert_eq!(i, want, "improved (B) must have statement (A)'s effect");
    }

    /// An improved update whose subquery reads no column of the row runs
    /// as its set statement: one evaluation shared by every row, which
    /// EXPLAIN names, with the effect of the cursor loop and of the set
    /// statement applied one statement at a time.
    #[test]
    fn improved_update_reading_no_row_column_shares_one_evaluation() {
        const OVERWRITE_ALL: &str =
            "for each t in Employee do update t set Salary = (select Amount from Fire)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[OVERWRITE_ALL]), &catalog).unwrap();
        let stage = &plan.stages()[0];
        assert_eq!(stage.kind(), StageKind::ImprovedUpdate);
        assert!(matches!(stage.values_query(), Some(ValuesQuery::Shared(_))));
        assert!(
            plan.explain().children[0].notes.iter().any(|n| n
                == "values: one evaluation shared by every row \
                    (the subquery reads no column of the row)"),
            "{:?}",
            plan.explain().children[0].notes
        );

        let i0 = two_fires(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        let CompiledStatement::CursorUpdate(cu) =
            compile(&program(&[OVERWRITE_ALL])[0], &catalog).unwrap()
        else {
            panic!("a cursor update")
        };
        let looped = receivers_core::sequential::apply_sequence(
            &cu.interpreted_method(),
            &i0,
            &cu.receivers(&i0).canonical_order(),
        )
        .expect_done("the cursor loop");
        assert_eq!(i, looped, "the cursor loop");
        assert_eq!(
            i,
            per_statement(
                &["update Employee set Salary = (select Amount from Fire)"],
                &catalog,
                &i0
            ),
            "statement (A) applied alone"
        );
    }

    /// A `FROM` alias `t` shadows a set statement's row, which binds as
    /// `t` too: the set form of an improved update with such an alias
    /// (its loop variable named otherwise), and the set update written
    /// directly, compile to one `par(E)` evaluation, and a guard with
    /// such an alias lowers to one probe; values and selected rows are
    /// the `sql::eval` interpreter's, on the Section 7 instance and on
    /// seeded random ones.
    #[test]
    fn improved_update_with_an_alias_t_keeps_one_par_evaluation() {
        const ALIAS_T: &str = "for each x in Employee do update x set Salary = \
             (select New from NewSal t where t.Old = x.Salary)";
        const SET_FORM: &str =
            "update Employee set Salary = (select New from NewSal t where t.Old = Salary)";
        const GUARDED: &str = "update Employee set Salary = (select Amount from Fire) \
             where exists (select * from NewSal t where t.Old = Salary)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[ALIAS_T]), &catalog).unwrap();
        let stage = &plan.stages()[0];
        assert_eq!(stage.kind(), StageKind::ImprovedUpdate);
        assert!(matches!(stage.values_query(), Some(ValuesQuery::PerRow(_))));
        let (i0, _) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert_eq!(i, per_statement(&[UPDATE_A], &catalog, &i0));

        let params = receivers_objectbase::gen::InstanceParams::default();
        for seed in 0..8 {
            let i0 = receivers_objectbase::gen::random_instance(&es.schema, params, 0x7A11 + seed);
            let (query, _) = run_set_update(SET_FORM, &catalog, &i0);
            assert!(matches!(query, ValuesQuery::PerRow(_)), "{query:?}");
            run_set_update(GUARDED, &catalog, &i0);
        }
        let guarded = compile_program(&program(&[GUARDED]), &catalog).unwrap();
        assert!(
            guarded.explain().children[0]
                .notes
                .iter()
                .any(|n| n.starts_with("guard: each subquery evaluated once")),
            "{:?}",
            guarded.explain().children[0].notes
        );
    }

    /// `SELECT *` assigns the interpreter's sentinel, the identity of the
    /// last `FROM` table: the planner's set stage matches
    /// `SetUpdate::apply`, and its guarded cursor form, run by the
    /// receiver loop, matches `apply_sequence` of the interpreted method.
    #[test]
    fn star_values_are_the_last_from_tables_identity() {
        const STAR: &str = "update Employee set Manager = \
             (select * from Employee E1 where E1.Manager = EmpId)";
        const CURSOR: &str = "for each t in Employee do if Salary in table Fire \
             update t set Manager = (select * from Fire, Employee E1 where E1.Manager = EmpId)";
        let (es, catalog) = employee_catalog();
        let (i0, _) = section7_instance(&es);
        let (query, _) = run_set_update(STAR, &catalog, &i0);
        assert!(matches!(query, ValuesQuery::PerRow(_)), "{query:?}");

        let plan = compile_program(&program(&[CURSOR]), &catalog).unwrap();
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        let CompiledStatement::CursorUpdate(cu) =
            compile(&parse(CURSOR).unwrap(), &catalog).unwrap()
        else {
            panic!("a cursor update")
        };
        let looped = receivers_core::sequential::apply_sequence(
            &cu.interpreted_method(),
            &i0,
            &cu.receivers(&i0).canonical_order(),
        )
        .expect_done("the cursor loop");
        assert_eq!(i, looped);
        assert_ne!(i, i0, "the guard selects a row");
    }

    /// An unguarded cursor update whose subquery has a negative atom
    /// has a method — the difference makes it not positive, so the
    /// improve pass refuses it and its receivers run one at a time — and
    /// matches `apply_sequence` of the interpreted method.
    #[test]
    fn negative_cursor_update_runs_its_non_positive_method() {
        const UNFIRED_RAISE: &str = "for each t in Employee do update t set Salary = \
             (select New from NewSal where Old = Salary and Old not in table Fire)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[UNFIRED_RAISE]), &catalog).unwrap();
        let stage = &plan.stages()[0];
        assert!(stage.algebraic().is_some_and(|m| !m.is_positive()));
        assert!(
            plan.explain().children[0].notes.iter().any(|n| n
                == "improve: refused — the value subquery is not positive; \
                    Theorem 5.12 does not apply"),
            "{:?}",
            plan.explain().children[0].notes
        );
        let CompiledStatement::CursorUpdate(cu) =
            compile(&parse(UNFIRED_RAISE).unwrap(), &catalog).unwrap()
        else {
            panic!("a cursor update")
        };
        let params = receivers_objectbase::gen::InstanceParams::default();
        for seed in 0..8 {
            let i0 = receivers_objectbase::gen::random_instance(&es.schema, params, 0x4E6A + seed);
            let mut i = i0.clone();
            let mut view = DatabaseView::new(&i);
            assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
            assert!(view.matches_rebuild(&i));
            let looped = receivers_core::sequential::apply_sequence(
                &cu.interpreted_method(),
                &i0,
                &cu.receivers(&i0).canonical_order(),
            )
            .expect_done("the cursor loop");
            assert_eq!(i, looped, "seed {seed}");
        }
    }

    /// The receiver loop evaluates a closed `E₀` once, and again only
    /// after a receiver's write that can change it: deleting an employee
    /// or updating a salary leaves `Fire`'s amounts as they were, but
    /// deleting the fired manager `e1` changes the employees the manager
    /// delete's `EXISTS` reads, so its `E₀` is evaluated again for `e2`
    /// (and not for `e3`: `e2` is kept, and nothing was written).
    #[test]
    fn receiver_loop_reevaluates_e0_only_after_a_write_that_changes_it() {
        const RAISE_UNFIRED: &str = "for each t in Employee do if Salary not in table Fire \
             update t set Salary = (select New from NewSal where Old = Salary)";
        let (es, catalog) = employee_catalog();
        let (i0, _) = section7_instance(&es);
        for (text, evals) in [
            (CURSOR_DELETE_SIMPLE, 1),
            (RAISE_UNFIRED, 1),
            (CURSOR_DELETE_MANAGER, 2),
        ] {
            let plan = compile_program(&program(&[text]), &catalog).unwrap();
            let mut i = i0.clone();
            let mut view = DatabaseView::new(&i);
            let (out, tree) = plan.execute_viewed_profiled(&mut i, &mut view).unwrap();
            assert!(out.is_applied(), "{text}");
            assert_eq!(
                tree.children[0].metric("guard_subqueries"),
                Some(evals),
                "{text}"
            );
            assert_ne!(i, i0, "{text}: the stage writes");
        }
    }

    /// A set update's values come from one `par(E)` evaluation; a row the
    /// query pairs with nothing loses the property, as it does when the
    /// subquery is evaluated row by row.
    #[test]
    fn set_update_row_without_par_values_loses_the_property() {
        const MANAGED: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = EmpId)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[MANAGED]), &catalog).unwrap();
        assert!(plan.stages()[0].values_query().is_some());

        let (i0, data) = section7_instance(&es);
        let e3 = data.employees[2];
        assert_eq!(i0.successors(e3, es.manager).count(), 1);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        assert_eq!(i.successors(e3, es.manager).count(), 0, "e3 manages no one");
        assert_eq!(i, set_update(MANAGED, &catalog).apply(&i0).unwrap());
    }

    /// Run `text` as a one-stage program on the viewed driver from `i0`
    /// and check it against [`SetUpdate::apply`]; returns the stage's
    /// values query and the result.
    fn run_set_update(text: &str, catalog: &Catalog, i0: &Instance) -> (ValuesQuery, Instance) {
        let plan = compile_program(&program(&[text]), catalog).unwrap();
        let query = plan.stages()[0]
            .values_query()
            .unwrap_or_else(|| panic!("{text}: no values query"))
            .clone();
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i), "{text}");
        assert_eq!(i, set_update(text, catalog).apply(i0).unwrap(), "{text}");
        (query, i)
    }

    /// The Section 7 instance with a second fired amount (250, which no
    /// employee earns).
    fn two_fires(es: &receivers_objectbase::examples::EmployeeSchema) -> Instance {
        let (mut i, data) = section7_instance(es);
        let fire = Oid::new(es.fire, 1);
        i.add_object(fire);
        i.link(fire, es.fire_amount, data.amounts[3]).unwrap();
        i
    }

    /// A subquery that reads no column of the row is evaluated once, and
    /// every selected row gets the same values; an empty `Fire` gives
    /// every row the empty set, so each loses its salary.
    #[test]
    fn uncorrelated_values_are_shared_by_every_row() {
        const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
        let (es, catalog) = employee_catalog();
        let i0 = two_fires(&es);
        let (query, i) = run_set_update(OVERWRITE, &catalog, &i0);
        assert!(matches!(query, ValuesQuery::Shared(_)), "{query:?}");
        let fired: Vec<Oid> = vec![Oid::new(es.amount, 0), Oid::new(es.amount, 3)];
        for e in i.class_members(es.employee) {
            assert_eq!(i.successors(e, es.salary).collect::<Vec<_>>(), fired);
        }

        let mut no_fire = i0.clone();
        for f in i0.class_members(es.fire) {
            no_fire.remove_object_cascade(f);
        }
        let (_, i) = run_set_update(OVERWRITE, &catalog, &no_fire);
        for e in i.class_members(es.employee) {
            assert_eq!(i.successors(e, es.salary).count(), 0, "{e} keeps a salary");
        }
        assert!(i.class_members(es.employee).count() > 0);
    }

    /// A guard that selects no row leaves the instance as it was, shared
    /// values or not.
    #[test]
    fn uncorrelated_values_under_a_guard_selecting_no_row() {
        const NOBODY: &str = "update Employee set Salary = (select Amount from Fire) \
             where Salary in table Fire";
        const RICH: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
             where Salary in table Fire";
        let (es, catalog) = employee_catalog();
        let (mut i0, data) = section7_instance(&es);
        // Fire 250 only: no employee earns it.
        i0.remove_edge(&receivers_objectbase::Edge::new(
            data.fires[0],
            es.fire_amount,
            data.amounts[0],
        ));
        i0.link(data.fires[0], es.fire_amount, data.amounts[3])
            .unwrap();
        for text in [NOBODY, RICH] {
            let (query, i) = run_set_update(text, &catalog, &i0);
            assert!(matches!(query, ValuesQuery::Shared(_)), "{text}");
            assert_eq!(i, i0, "{text}");
        }
    }

    /// A shared subquery that reads the property the stage writes sees
    /// the pre-stage instance: the `mixed` workload's first stage, and a
    /// salary map whose answer changes once any row is written.
    #[test]
    fn uncorrelated_values_come_from_the_pre_stage_instance() {
        const SELF_MANAGED: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
             where Salary in table Fire";
        const RAISE_ALL: &str = "update Employee set Salary = \
             (select New from Employee E1, NewSal where Old = E1.Salary)";
        let (es, catalog) = employee_catalog();
        let (i0, data) = section7_instance(&es);
        for text in [SELF_MANAGED, RAISE_ALL] {
            let (query, _) = run_set_update(text, &catalog, &i0);
            assert!(matches!(query, ValuesQuery::Shared(_)), "{text}");
        }
        // Salaries {100, 200} map to {150, 250} for everyone; a value
        // read after the first write would see 150 and drop it.
        let (_, i) = run_set_update(RAISE_ALL, &catalog, &i0);
        let raised = vec![data.amounts[2], data.amounts[3]];
        for &e in &data.employees {
            assert_eq!(i.successors(e, es.salary).collect::<Vec<_>>(), raised);
        }
    }

    /// Each column reference picks its own value of a multi-valued
    /// column, as `SetUpdate::apply` does: `N.Old` meets `Salary` with one
    /// value and `Fire` with another, and the projected `E1.Salary`
    /// returns every salary of an employee one of whose salaries is fired.
    #[test]
    fn each_column_reference_picks_its_own_value() {
        let (es, catalog) = employee_catalog();
        let (mut i0, data) = section7_instance(&es);
        let (a100, a200, a150) = (data.amounts[0], data.amounts[1], data.amounts[2]);
        let [e1, e2, e3] = data.employees[..] else {
            panic!("three employees")
        };
        // NewSal's first row maps Old {100, 150}; Fire = {150}; e2 earns
        // {200, 150}.
        i0.link(data.newsals[0], es.old, a150).unwrap();
        i0.remove_edge(&receivers_objectbase::Edge::new(
            data.fires[0],
            es.fire_amount,
            a100,
        ));
        i0.link(data.fires[0], es.fire_amount, a150).unwrap();
        i0.link(e2, es.salary, a150).unwrap();
        let salaries = |i: &Instance, e: Oid| i.successors(e, es.salary).collect::<Vec<_>>();

        let (query, i) = run_set_update(
            "update Employee set Salary = (select N.New from NewSal N \
             where N.Old = Salary and N.Old in table Fire)",
            &catalog,
            &i0,
        );
        assert!(matches!(query, ValuesQuery::PerRow(_)), "{query:?}");
        assert_eq!(
            [salaries(&i, e1), salaries(&i, e2), salaries(&i, e3)],
            [vec![a150], vec![a150], vec![]]
        );

        let (query, i) = run_set_update(
            "update Employee set Salary = \
             (select E1.Salary from Employee E1, Fire where E1.Salary = Amount)",
            &catalog,
            &i0,
        );
        assert!(matches!(query, ValuesQuery::Shared(_)), "{query:?}");
        for e in [e1, e2, e3] {
            assert_eq!(salaries(&i, e), [a200, a150]);
        }
    }

    /// A two-table uncorrelated subquery is one closed join.
    #[test]
    fn uncorrelated_two_table_subquery() {
        const FIRED_PAY: &str = "update Employee set Salary = \
             (select E1.Salary from Employee E1, Fire where E1.Salary = Amount)";
        let (es, catalog) = employee_catalog();
        let i0 = two_fires(&es);
        let (query, i) = run_set_update(FIRED_PAY, &catalog, &i0);
        assert!(matches!(query, ValuesQuery::Shared(_)), "{query:?}");
        let e1_pay: Vec<Oid> = i0.successors(Oid::new(es.employee, 0), es.salary).collect();
        for e in i.class_members(es.employee) {
            assert_eq!(i.successors(e, es.salary).collect::<Vec<_>>(), e1_pay);
        }
    }

    /// A subquery that reads any column of the row, its identity column
    /// included, never takes the shared path.
    #[test]
    fn correlated_subqueries_stay_per_row() {
        const MANAGED: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = EmpId)";
        let (es, catalog) = employee_catalog();
        let i0 = two_fires(&es);
        for text in [UPDATE_A, UPDATE_C_SET, MANAGED] {
            let (query, _) = run_set_update(text, &catalog, &i0);
            assert!(matches!(query, ValuesQuery::PerRow(_)), "{text}: {query:?}");
        }
    }

    /// Two statements with the identical guard hash-cons onto one selector
    /// slot, and the shared pipeline still matches one-at-a-time legacy
    /// application.
    #[test]
    fn identical_guards_share_one_selector_slot() {
        const FIRST: &str = "update Employee set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
             where Salary in table Fire";
        const SECOND: &str = "update Employee set Salary = \
             (select New from NewSal where Old = Salary) \
             where Salary in table Fire";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[FIRST, SECOND]), &catalog).unwrap();
        assert!(
            plan.stages()[1].shared_selector(),
            "the second guard must hash-cons onto the first"
        );
        assert_eq!(plan.stages()[0].selector(), plan.stages()[1].selector());
        assert!(!plan.stages()[0].netted() && !plan.stages()[1].netted());
        // Guards that differ — here only by an alias — share nothing.
        let distinct = program(&[
            FIRST,
            "update Employee set Salary = (select New from NewSal where Old = Salary) \
             where exists (select * from NewSal N1 where N1.Old = Salary)",
        ]);
        let control = compile_program(&distinct, &catalog).unwrap();
        assert!(!control.stages().iter().any(|s| s.shared_selector()));

        let (i0, _) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        let want = set_update(SECOND, &catalog)
            .apply(&set_update(FIRST, &catalog).apply(&i0).unwrap())
            .unwrap();
        assert_eq!(i, want);
    }

    /// A later unguarded store to the same column nets the earlier one:
    /// the netted stage is skipped by the executor with no observable
    /// difference.
    #[test]
    fn later_unguarded_store_nets_the_earlier_one() {
        const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[UPDATE_A, OVERWRITE]), &catalog).unwrap();
        assert!(plan.stages()[0].netted(), "the first store is dead");
        assert_eq!(plan.stages()[0].netted_by(), Some(1));
        assert!(
            !plan.stages()[0].proofs().is_empty(),
            "netting records its covering argument"
        );
        assert!(!plan.stages()[1].netted());
        // Reversed, `UPDATE_A` reads the overwritten Salary: nothing nets.
        let live = compile_program(&program(&[OVERWRITE, UPDATE_A]), &catalog).unwrap();
        assert!(!live.stages().iter().any(|s| s.netted()));

        let (i0, _) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        let want = set_update(OVERWRITE, &catalog)
            .apply(&set_update(UPDATE_A, &catalog).apply(&i0).unwrap())
            .unwrap();
        assert_eq!(i, want, "skipping the netted stage is unobservable");
    }

    /// `texts` applied one statement at a time through the two-phase
    /// `apply` of each set statement.
    fn per_statement(texts: &[&str], catalog: &Catalog, i0: &Instance) -> Instance {
        texts.iter().fold(i0.clone(), |i, text| {
            match compile(&parse(text).unwrap(), catalog).unwrap() {
                CompiledStatement::SetUpdate(su) => su.apply(&i).unwrap(),
                CompiledStatement::SetDelete(sd) => sd.apply(&i).unwrap(),
                _ => panic!("{text} should compile to a set statement"),
            }
        })
    }

    /// Run `texts` as one program on the viewed driver from `i0`, check it
    /// against one-statement-at-a-time application, and return the plan.
    fn run_against_per_statement(texts: &[&str], catalog: &Catalog, i0: &Instance) -> ProgramPlan {
        let plan = compile_program(&program(texts), catalog).unwrap();
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        assert!(plan.execute_viewed(&mut i, &mut view).unwrap().is_applied());
        assert!(view.matches_rebuild(&i));
        assert_eq!(i, per_statement(texts, catalog, i0), "{texts:?}");
        plan
    }

    /// A later guarded store whose guard the earlier one's provably
    /// implies nets it, though the guards differ, and skipping it is
    /// unobservable; the reverse order nets nothing.
    #[test]
    fn implied_guard_covers_an_earlier_store() {
        const NARROW: &str = "update Employee set Salary = (select Old from NewSal) \
             where Manager = EmpId and Salary in table Fire";
        const WIDE: &str =
            "update Employee set Salary = (select New from NewSal) where Manager = EmpId";
        let (es, catalog) = employee_catalog();
        let (i0, _) = section7_instance(&es);
        let plan = run_against_per_statement(&[NARROW, WIDE], &catalog, &i0);
        assert_eq!(plan.stages()[0].netted_by(), Some(1));
        assert!(
            plan.stages()[0].proofs()[0]
                .notes
                .iter()
                .any(|n| n.contains("guard implies the later one's")),
            "{:?}",
            plan.stages()[0].proofs()
        );
        let reversed = run_against_per_statement(&[WIDE, NARROW], &catalog, &i0);
        assert!(!reversed.stages().iter().any(|s| s.netted()));
    }

    /// A store that would fail at run time is never netted away: its
    /// `IN TABLE` probes a two-column table, so the program does not
    /// compile, as the store alone does not; before, the later blind
    /// overwrite netted it and the program applied.
    #[test]
    fn a_store_failing_at_run_time_is_not_netted_away() {
        const WIDE: &str = "update Employee set Salary = (select Amount from Fire) \
             where Salary in table NewSal";
        const OVERWRITE: &str = "update Employee set Salary = (select Amount from Fire)";
        let (_, catalog) = employee_catalog();
        for texts in [&[WIDE][..], &[WIDE, OVERWRITE]] {
            assert!(
                matches!(
                    compile_program(&program(texts), &catalog),
                    Err(SqlError::Unsupported(msg)) if msg.contains("one-column table")
                ),
                "{texts:?}"
            );
        }
    }

    /// Identical guards are no cover when a statement in between writes
    /// what the later guard reads, or deletes: nothing nets, and the
    /// program matches one-statement-at-a-time application.
    #[test]
    fn broken_covers_net_nothing() {
        let (es, catalog) = employee_catalog();
        let (i0, _) = section7_instance(&es);
        for texts in [
            [
                "update Employee set Salary = (select Old from NewSal) where Manager = EmpId",
                "update Employee set Manager = \
                 (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId)",
                "update Employee set Salary = (select New from NewSal) where Manager = EmpId",
            ],
            [
                "update Employee set Salary = (select Old from NewSal) \
                 where exists (select * from Fire)",
                "delete from Fire where exists (select * from NewSal)",
                "update Employee set Salary = (select New from NewSal) \
                 where exists (select * from Fire)",
            ],
        ] {
            let plan = run_against_per_statement(&texts, &catalog, &i0);
            assert!(!plan.stages().iter().any(|s| s.netted()), "{texts:?}");
        }
    }

    /// The sequential, sharded, and durable drivers agree bit for bit on a
    /// mixed program, and the durable run recovers to the same state.
    #[test]
    fn all_three_drivers_agree_and_recovery_round_trips() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[DELETE_SIMPLE, CURSOR_UPDATE_B]), &catalog).unwrap();
        let (i0, _) = section7_instance(&es);

        let mut seq = i0.clone();
        let mut seq_view = DatabaseView::new(&seq);
        assert!(plan
            .execute_viewed(&mut seq, &mut seq_view)
            .unwrap()
            .is_applied());
        assert!(seq_view.matches_rebuild(&seq));

        let mut sharded = i0.clone();
        assert!(plan
            .execute_sharded(&mut sharded, &ShardConfig::default())
            .unwrap()
            .is_applied());
        assert_eq!(sharded, seq);

        let mut durable = i0.clone();
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&es.schema),
            WalConfig::default(),
            &i0,
        )
        .unwrap();
        let mut view = DatabaseView::new(&durable);
        assert!(plan
            .execute_durable(&mut durable, &mut view, &mut store)
            .unwrap()
            .is_applied());
        assert_eq!(durable, seq);
        assert!(view.matches_rebuild(&durable));

        let (_, recovered, rview, _) = DurableStore::open(
            store.into_storage().reopen(),
            Arc::clone(&es.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered, durable, "replaying the WAL reproduces the run");
        assert!(rview.matches_rebuild(&recovered));
    }

    /// A durable program is one WAL record, and a program whose record
    /// cannot be written is undone whole: instance and view as passed in,
    /// nothing in the log, and the same program applies on a retry.
    #[test]
    fn durable_program_is_one_record_and_a_failed_append_undoes_it() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[DELETE_SIMPLE, CURSOR_UPDATE_C]), &catalog).unwrap();
        assert_eq!(plan.stages()[1].kind(), StageKind::CursorUpdate);
        let (i0, _) = section7_instance(&es);
        let mut want = i0.clone();
        let mut want_view = DatabaseView::new(&want);
        assert!(plan
            .execute_viewed(&mut want, &mut want_view)
            .unwrap()
            .is_applied());

        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        let mut store = DurableStore::create(
            FaultStorage::new().fail_nth_append(1),
            Arc::clone(&es.schema),
            WalConfig::default(),
            &i0,
        )
        .unwrap();
        let err = plan.execute_durable(&mut i, &mut view, &mut store);
        assert!(
            matches!(&err, Err(SqlError::Wal(msg)) if msg.contains("injected append failure")),
            "{err:?}"
        );
        assert_eq!(i, i0, "the failed program is undone whole");
        assert_eq!(view.database(), DatabaseView::new(&i0).database());
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.storage().len(&store.wal_file()), 0);

        assert!(plan
            .execute_durable(&mut i, &mut view, &mut store)
            .unwrap()
            .is_applied());
        assert_eq!(i, want);
        assert_eq!(store.stats().records, 1, "one record for the whole program");
        let (_, recovered, _, report) = DurableStore::open(
            store.into_storage().reopen(),
            Arc::clone(&es.schema),
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered, want);
    }

    /// The checkpoint rule now lives in [`DurableStore::commit`]; a
    /// program whose record appends but whose triggered checkpoint fails
    /// is undone whole at the driver: instance and view as passed in, the
    /// WAL empty and the epoch unchanged. The same program then applies on
    /// a retry, checkpoints, and recovers equal.
    #[test]
    fn failed_auto_checkpoint_undoes_the_program() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[DELETE_SIMPLE, CURSOR_UPDATE_C]), &catalog).unwrap();
        let (i0, _) = section7_instance(&es);
        let mut want = i0.clone();
        let mut want_view = DatabaseView::new(&want);
        assert!(plan
            .execute_viewed(&mut want, &mut want_view)
            .unwrap()
            .is_applied());

        // Group commit holds the record back, so the checkpoint's own WAL
        // sync is the first sync, and the one that fails.
        let cfg = WalConfig {
            group_commit: 2,
            snapshot_every: 1,
        };
        let mut store = DurableStore::create(
            FaultStorage::new().fail_nth_sync(1),
            Arc::clone(&es.schema),
            cfg,
            &i0,
        )
        .unwrap();
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        let err = plan.execute_durable(&mut i, &mut view, &mut store);
        assert!(matches!(&err, Err(SqlError::Wal(_))), "{err:?}");
        assert_eq!(i, i0, "the program is undone whole");
        assert_eq!(view.database(), DatabaseView::new(&i0).database());
        assert_eq!(store.storage().len(&store.wal_file()), 0);
        assert_eq!(store.last_seq(), 0);
        assert_eq!(store.epoch(), 1, "the manifest never swung");

        assert!(plan
            .execute_durable(&mut i, &mut view, &mut store)
            .unwrap()
            .is_applied());
        assert_eq!(i, want);
        assert!(view.matches_rebuild(&i));
        assert_eq!(store.epoch(), 2, "the retry checkpoints");
        let (_, recovered, rview, report) =
            DurableStore::open(store.into_storage().reopen(), Arc::clone(&es.schema), cfg).unwrap();
        assert_eq!((report.epoch, report.last_seq), (2, 1));
        assert_eq!(recovered, want);
        assert!(rview.matches_rebuild(&recovered));
    }

    /// EXPLAIN ANALYZE of a rolled-back program says why it was rolled
    /// back and how much was undone. The profiled driver returns the
    /// error, so the tree is read back from the flight recorder, where a
    /// failed run's profile survives.
    #[test]
    fn rolled_back_program_names_its_cause() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[DELETE_SIMPLE, UPDATE_A]), &catalog).unwrap();
        let (i0, _) = section7_instance(&es);
        let mut i = i0.clone();
        let mut view = DatabaseView::new(&i);
        let mut store = DurableStore::create(
            FaultStorage::new().fail_nth_append(1),
            Arc::clone(&es.schema),
            WalConfig::default(),
            &i0,
        )
        .unwrap();
        // The recorder switch is process-global: put it back as found when
        // the test ends, panics included.
        struct RestoreFlight(bool);
        impl Drop for RestoreFlight {
            fn drop(&mut self) {
                obs::set_flight_enabled(self.0);
            }
        }
        let _restore = RestoreFlight(obs::flight_enabled());
        obs::set_flight_enabled(true);
        let err = plan
            .execute_durable_profiled(&mut i, &mut view, &mut store)
            .unwrap_err();
        assert!(
            matches!(&err, SqlError::Wal(msg) if msg.contains("injected append failure")),
            "{err:?}"
        );
        assert_eq!(i, i0);
        assert!(view.matches_rebuild(&i));

        let note = "rolled back by the program's WAL commit";
        let root = obs::flight::flight_entries()
            .into_iter()
            .rev()
            .filter(|e| e.kind == "profile" && e.summary.starts_with("program (durable)"))
            .filter_map(|e| e.json)
            .map(|json| obs::json::Value::parse(&json).expect("profile JSON"))
            .filter_map(|doc| doc.get("nodes")?.as_array()?.first().cloned())
            .find(|root| {
                root.get("notes")
                    .and_then(|n| n.as_array())
                    .is_some_and(|n| {
                        n.iter()
                            .any(|n| n.as_str().is_some_and(|n| n.starts_with(note)))
                    })
            })
            .expect("the failed run's profile is in the flight ring");
        let metric = |name| root.get("metrics")?.get(name)?.as_u64();
        assert_eq!(metric("stages"), Some(2));
        assert!(metric("rolled_back_ops").unwrap() > 0);
    }

    /// Cursor stages write whole rows, so a receiver reassigned its
    /// current value logs no op — on the algebraic path and on the
    /// interpreted (guarded) one. Salary := the manager's salary leaves
    /// self-managed `e1` as it is and changes `e2` and `e3`; the guarded
    /// stage reassigns every receiver its own salary, so its program
    /// writes no WAL record at all.
    #[test]
    fn cursor_stage_reassigning_an_unchanged_value_logs_nothing_for_it() {
        const MANAGER_SALARY: &str = "for each t in Employee do update t set Salary = \
             (select E1.Salary from Employee E1 where E1.EmpId = Manager)";
        const SAME_GUARDED: &str = "for each t in Employee do \
             if exists (select * from NewSal where Old = Salary) update t set Salary = \
             (select Old from NewSal where Old = Salary)";
        let (es, catalog) = employee_catalog();
        let (i0, data) = section7_instance(&es);
        let e1 = data.employees[0];
        for (text, algebraic, ops_logged) in [(MANAGER_SALARY, true, 4), (SAME_GUARDED, false, 0)] {
            let plan = compile_program(&program(&[text]), &catalog).unwrap();
            let stage = &plan.stages()[0];
            assert_eq!(stage.kind(), StageKind::CursorUpdate, "{text}");
            assert_eq!(stage.algebraic().is_some(), algebraic, "{text}");
            let mut store = DurableStore::create(
                FaultStorage::new(),
                Arc::clone(&es.schema),
                WalConfig::default(),
                &i0,
            )
            .unwrap();
            let mut i = i0.clone();
            let mut view = DatabaseView::new(&i);
            let (out, tree) = plan
                .execute_durable_profiled(&mut i, &mut view, &mut store)
                .unwrap();
            assert!(out.is_applied());
            assert!(view.matches_rebuild(&i));
            assert_eq!(
                tree.children[0].rows_out, 3,
                "{text}: every row is reassigned"
            );
            assert_eq!(
                tree.find("commit").map(|c| c.rows_in),
                Some(ops_logged),
                "{text}"
            );
            let wal = store.storage().read(&store.wal_file()).unwrap();
            let ops: Vec<DeltaOp> = receivers_wal::decode_log(&wal.unwrap_or_default(), 1)
                .records
                .into_iter()
                .flat_map(|r| r.ops)
                .collect();
            assert_eq!(ops.len() as u64, ops_logged, "{text}: {ops:?}");
            assert!(
                !ops.iter().any(|op| matches!(op,
                    DeltaOp::AddedEdge(e) | DeltaOp::RemovedEdge(e) if e.src == e1)),
                "{text}: e1's unchanged row logs no op: {ops:?}"
            );
            let salary_of_e1: Vec<Oid> = i.successors(e1, es.salary).collect();
            assert_eq!(salary_of_e1, vec![data.amounts[0]], "{text}");
        }
    }

    /// Recompiling a program whose netting rests on a solver implication
    /// reuses the memoized verdict: the first compilation misses the
    /// proof cache, the second hits it, and both net the dead store.
    #[test]
    fn proof_cache_reuses_guarded_netting_implications() {
        const EARLY: &str = "update Employee set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = EmpId) \
             where Salary in table Fire";
        const LATE: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.EmpId = EmpId) \
             where Salary in table Fire";
        obs::set_enabled(obs::trace_enabled(), true);
        let (_, catalog) = employee_catalog();
        let stmts = program(&[EARLY, LATE]);
        let snap = |name: &str| obs::metrics_snapshot().counter(name).unwrap_or(0);

        let consulted0 = snap("sql.plan.proof_cache.hit") + snap("sql.plan.proof_cache.miss");
        let plan = compile_program(&stmts, &catalog).unwrap();
        assert!(
            plan.stages()[0].netted(),
            "the guard-covered earlier store must net"
        );
        // `>=`/`>`: counters are process-global and tests run concurrently,
        // so only monotone claims are race-free.
        assert!(
            snap("sql.plan.proof_cache.hit") + snap("sql.plan.proof_cache.miss") > consulted0,
            "guarded netting must consult the proof cache"
        );

        let hits = snap("sql.plan.proof_cache.hit");
        let plan2 = compile_program(&stmts, &catalog).unwrap();
        assert!(plan2.stages()[0].netted());
        assert!(
            snap("sql.plan.proof_cache.hit") > hits,
            "recompilation must reuse the memoized implication"
        );
    }

    /// EXPLAIN ANALYZE is a pure observer: each profiled driver matches
    /// its plain twin bit for bit, and the trees account for every stage
    /// — rows, selector-cache counters and the durable run's WAL appends.
    #[test]
    fn profiled_drivers_match_plain_and_account_stages() {
        let (es, catalog) = employee_catalog();
        let plan = compile_program(
            &program(&[DELETE_SIMPLE, CURSOR_UPDATE_B, CURSOR_UPDATE_C]),
            &catalog,
        )
        .unwrap();
        let (i0, _) = section7_instance(&es);

        let mut plain = i0.clone();
        let mut plain_view = DatabaseView::new(&plain);
        assert!(plan
            .execute_viewed(&mut plain, &mut plain_view)
            .unwrap()
            .is_applied());

        let mut viewed = i0.clone();
        let mut view = DatabaseView::new(&viewed);
        let (out, tree) = plan
            .execute_viewed_profiled(&mut viewed, &mut view)
            .unwrap();
        assert!(out.is_applied());
        assert_eq!(viewed, plain, "profiling must not change the result");
        assert!(view.matches_rebuild(&viewed));
        assert_eq!(
            tree.children.len(),
            plan.stages().len(),
            "one profile child per stage"
        );
        for (k, stage) in tree.children.iter().enumerate() {
            assert_eq!(stage.name, format!("stage {}", k + 1));
            assert!(stage.metric("selector_cache_hits").is_some());
            assert!(stage.metric("selector_cache_misses").is_some());
        }
        assert!(
            tree.children.iter().any(|c| c.rows_in > 0),
            "the Section 7 instance must drive rows through some stage"
        );

        let mut sharded = i0.clone();
        let (out, stree) = plan
            .execute_sharded_profiled(&mut sharded, &ShardConfig::default())
            .unwrap();
        assert!(out.is_applied());
        assert_eq!(sharded, plain);
        assert_eq!(stree.name, "program (sharded)");
        assert_eq!(stree.children.len(), plan.stages().len());

        let mut durable = i0.clone();
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&es.schema),
            WalConfig::default(),
            &i0,
        )
        .unwrap();
        let mut dview = DatabaseView::new(&durable);
        let (out, dtree) = plan
            .execute_durable_profiled(&mut durable, &mut dview, &mut store)
            .unwrap();
        assert!(out.is_applied());
        assert_eq!(durable, plain);
        assert!(dview.matches_rebuild(&durable));
        assert_eq!(
            dtree.children.len(),
            plan.stages().len() + 1,
            "one child per stage, then the program's commit"
        );
        let commit = dtree.children.last().unwrap();
        assert_eq!(commit.name, "commit");
        assert_eq!(
            commit.metric("records"),
            Some(store.stats().records),
            "the commit node must account for every appended record"
        );
        assert_eq!(store.stats().records, 1, "one WAL record per program");
        assert_eq!(commit.metric("syncs"), Some(1));
        assert!(commit.rows_in > 0, "the program must have logged something");
    }
}
