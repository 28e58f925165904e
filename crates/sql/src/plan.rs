//! Program-level expression-DAG planner: one compiled lazy pipeline
//! behind every execution path.
//!
//! [`mod@crate::compile`] lowers one statement at a time; this module
//! lowers a **whole update program** into a typed [`PlanNode`] DAG
//! (selector scans, guards, value subqueries, assignments, deletes) and
//! executes the DAG through every driver the repository has:
//!
//! * [`ProgramPlan::execute_viewed`] — the sequential in-place driver over
//!   a maintained [`DatabaseView`], batching set-oriented stages through
//!   the vectorized appliers of [`receivers_core::algebraic`];
//! * [`ProgramPlan::execute_sharded`] / [`ShardSession`] — certified
//!   stages on the [`receivers_core::shard`] per-shard worker loops, with
//!   certificates discharged from footprints *read off the DAG*;
//! * [`ProgramPlan::execute_durable`] — the same pipeline writing every
//!   committed batch through a [`DurableStore`] write-ahead log.
//!
//! Three planner passes run between lowering and execution, in order:
//!
//! 1. **improve** — the Section 7 "code improvement tool"
//!    ([`crate::improve`]) as a DAG pass: a key-order-independent cursor
//!    update's loop collapses into one [`PlanNode::AssignQuery`] node
//!    holding the parallel expression `par(E)` (Theorem 6.5), evaluated
//!    once per batch against the flat `TupleSet` kernel;
//! 2. **cse** — selector compilation with common-subexpression sharing:
//!    structurally identical guards and value subqueries (up to cursor
//!    variable renaming) hash-cons onto one node, so one evaluation
//!    serves every statement that shares the selector;
//! 3. **net** — successive assignments to the same `(table, property)`
//!    are netted: a store provably overwritten before any read is marked
//!    [`Stage::netted`] and skipped by every executor, with a
//!    [`Proof`] recording why the skip is sound (backed by
//!    [`Solver::implies`] when the guards need a semantic argument).
//!
//! Every stage is wrapped in `sql.plan.*` counters and spans, and
//! [`crate::footprint::footprint`] now reads statement footprints off this
//! DAG instead of a separate walker.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock};

use receivers_core::algebraic::{
    apply_assignment_batch, apply_delete_batch, apply_replacement_batch,
};
use receivers_core::shard::{certify, ShardCertificate, ShardConfig, ShardedExecutor, WaveStats};
use receivers_core::AlgebraicMethod;
use receivers_objectbase::{
    ClassId, DeltaObserver, InPlaceOutcome, Instance, Oid, PropId, Receiver,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::eval::{eval as eval_expr, Bindings};
use receivers_relalg::view::{DatabaseView, ViewObserver};
use receivers_relalg::{Expr, RelSchema, Relation};
use receivers_wal::{DurableSink, DurableStore, WalError, WalStats, WalStorage};

use crate::ast::{ColumnRef, Condition, CursorBody, Projection, Select, SqlStatement};
use crate::catalog::{Catalog, TableInfo};
use crate::compile::{compile, CompiledStatement};
use crate::error::{Result, SqlError};
use crate::eval::{eval_condition, eval_select, Binding, Scopes};
use crate::footprint::{Footprint, Write};
use crate::improve::{improve_cursor_update, ImprovedUpdate};
use crate::sat::{GuardRef, Implication, Proof, Solver};

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

// ---------------------------------------------------------------------
// The DAG.
// ---------------------------------------------------------------------

/// Index of a node in a [`PlanGraph`]. Stable for the graph's lifetime;
/// hash-consed nodes are shared by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The underlying index into [`PlanGraph::node`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One node of the expression DAG a program compiles into.
///
/// `class`/`prop` are `Option` because the same lowering serves the
/// *tolerant* footprint builder ([`mod@crate::footprint`]): references
/// that do not resolve against the catalog are carried unresolved rather
/// than rejected — the lint layer's name-resolution pass reports them
/// with proper spans.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Selector scan: every row of `table`.
    Scan {
        /// Table name.
        table: String,
        /// Its class, when the table resolves.
        class: Option<ClassId>,
    },
    /// Selector guard: the rows of `input` satisfying `cond`, with the
    /// row bound as `var`. For set-oriented stages this is a batch filter
    /// (one evaluation per execution); for cursor stages the same node
    /// doubles as the loop-body guard, re-evaluated per receiver against
    /// the mutating instance.
    Guard {
        /// The guarded row source.
        input: NodeId,
        /// Binding name for the row.
        var: String,
        /// The guard condition.
        cond: Condition,
    },
    /// Per-row value subquery: the pairs `(row, eval(select, row))` for
    /// every row of `rows`.
    Values {
        /// The row source.
        rows: NodeId,
        /// Binding name for the row.
        var: String,
        /// The value subquery.
        select: Select,
    },
    /// One vectorized relational evaluation computing every
    /// `(row, value)` assignment pair at once: the improve pass's
    /// `par(E)` join against the receiver relation (Theorem 6.5).
    AssignQuery {
        /// The row source (every receiver).
        rows: NodeId,
        /// The parallel expression `par(E)`.
        query: Expr,
    },
    /// Replace each produced row's `prop` edges by its produced values.
    Assign {
        /// A [`PlanNode::Values`] or [`PlanNode::AssignQuery`] input.
        values: NodeId,
        /// Target table name.
        table: String,
        /// Updated column name.
        column: String,
        /// The property behind the column, when it resolves.
        prop: Option<PropId>,
    },
    /// Remove the produced rows (with edge cascade).
    Delete {
        /// The row source.
        rows: NodeId,
        /// Target table name.
        table: String,
    },
}

impl PlanNode {
    /// The node's inputs, in evaluation order.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            PlanNode::Scan { .. } => vec![],
            PlanNode::Guard { input, .. } => vec![*input],
            PlanNode::Values { rows, .. } | PlanNode::AssignQuery { rows, .. } => vec![*rows],
            PlanNode::Assign { values, .. } => vec![*values],
            PlanNode::Delete { rows, .. } => vec![*rows],
        }
    }
}

/// A visitor over the DAG — the visitor half of the visitor/collector
/// pair ([`PlanGraph::walk`] drives it in post-order, each shared node
/// visited once).
pub trait PlanVisitor {
    /// Called once per reachable node, inputs before consumers.
    fn visit(&mut self, id: NodeId, node: &PlanNode);
}

/// The node store of a compiled program: an append-only arena of
/// hash-consed [`PlanNode`]s.
#[derive(Debug, Default)]
pub struct PlanGraph {
    nodes: Vec<PlanNode>,
}

impl PlanGraph {
    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Number of nodes in the graph (shared nodes counted once).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Post-order traversal from `root`: inputs before consumers, every
    /// reachable node visited exactly once even when shared.
    pub fn walk(&self, root: NodeId, visitor: &mut impl PlanVisitor) {
        let mut seen = BTreeSet::new();
        self.walk_rec(root, visitor, &mut seen);
    }

    fn walk_rec(&self, id: NodeId, visitor: &mut impl PlanVisitor, seen: &mut BTreeSet<NodeId>) {
        if !seen.insert(id) {
            return;
        }
        for input in self.node(id).inputs() {
            self.walk_rec(input, visitor, seen);
        }
        visitor.visit(id, self.node(id));
    }

    /// Collector over the DAG: [`PlanGraph::walk`] gathering the `Some`
    /// results of `f`.
    pub fn collect<B>(
        &self,
        root: NodeId,
        mut f: impl FnMut(NodeId, &PlanNode) -> Option<B>,
    ) -> Vec<B> {
        struct Collector<'f, B> {
            f: &'f mut dyn FnMut(NodeId, &PlanNode) -> Option<B>,
            out: Vec<B>,
        }
        impl<B> PlanVisitor for Collector<'_, B> {
            fn visit(&mut self, id: NodeId, node: &PlanNode) {
                if let Some(b) = (self.f)(id, node) {
                    self.out.push(b);
                }
            }
        }
        let mut c = Collector {
            f: &mut f,
            out: Vec::new(),
        };
        self.walk(root, &mut c);
        c.out
    }
}

// ---------------------------------------------------------------------
// Condition/select canonicalization (the hash-cons key).
// ---------------------------------------------------------------------

/// Rewrite `var`-qualified column references to the canonical row marker
/// `#r`, so selectors differing only in cursor-variable naming hash-cons
/// onto one node. Returns `None` (no sharing) when a `FROM` alias shadows
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

fn shadows_select(select: &Select, var: &str) -> bool {
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
// Reading footprints off the DAG.
// ---------------------------------------------------------------------

/// One name-resolution scope: a binding name and its table.
type Scope<'s> = (&'s str, &'s TableInfo);

/// The scope a statement's own row is bound in: its variable (`t` for set
/// statements) over the target table, when that resolves.
fn row_scope<'s>(var: &'s str, outer: Option<&'s TableInfo>) -> Vec<Scope<'s>> {
    outer.map(|t| (var, t)).into_iter().collect()
}

/// The read/table collector behind [`crate::footprint::footprint`] —
/// mirrors the name resolution of [`crate::eval`] over the scopes it is
/// given, outermost (the statement's row, from [`row_scope`]) first: a
/// qualified column names the innermost scope bound under its qualifier,
/// an unqualified one the outermost scope whose table has it. It is
/// *tolerant*: unresolvable references are skipped, because the lint
/// layer's name-resolution pass already reports them with spans.
pub(crate) struct ReadCollector<'a> {
    catalog: &'a Catalog,
    /// Properties read so far.
    pub reads: BTreeSet<PropId>,
    /// Table names referenced so far.
    pub tables: BTreeSet<String>,
}

impl<'a> ReadCollector<'a> {
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            reads: BTreeSet::new(),
            tables: BTreeSet::new(),
        }
    }

    pub(crate) fn condition<'s>(&mut self, cond: &'s Condition, scopes: &[Scope<'s>])
    where
        'a: 's,
    {
        match cond {
            Condition::Eq(a, b) | Condition::NotEq(a, b) => {
                self.column(&a.qualifier, &a.column, scopes);
                self.column(&b.qualifier, &b.column, scopes);
            }
            Condition::InTable(c, table) | Condition::NotInTable(c, table) => {
                self.column(&c.qualifier, &c.column, scopes);
                self.tables.insert(table.clone());
                if let Ok((_info, prop)) = self.catalog.single_column(table) {
                    self.reads.insert(prop);
                }
            }
            Condition::Exists(select) => self.select(select, scopes),
            Condition::And(a, b) => {
                self.condition(a, scopes);
                self.condition(b, scopes);
            }
        }
    }

    pub(crate) fn select<'s>(&mut self, select: &'s Select, outer_scopes: &[Scope<'s>])
    where
        'a: 's,
    {
        let mut scopes = outer_scopes.to_vec();
        for item in &select.from {
            self.tables.insert(item.table.clone());
            if let Ok(info) = self.catalog.lookup(&item.table) {
                scopes.push((item.name(), info));
            }
        }
        if let Some(w) = &select.where_clause {
            self.condition(w, &scopes);
        }
        if let Projection::Column(c) = &select.projection {
            self.column(&c.qualifier, &c.column, &scopes);
        }
    }

    fn column(&mut self, qualifier: &Option<String>, column: &str, scopes: &[Scope<'_>]) {
        let table: Option<&TableInfo> = match qualifier {
            Some(q) => scopes.iter().rev().find(|(a, _)| *a == q).map(|&(_, t)| t),
            None => scopes
                .iter()
                .find(|(_, t)| t.has_column(column))
                .map(|&(_, t)| t),
        };
        if let Some(prop) = table.and_then(|t| t.column_prop(column)) {
            self.reads.insert(prop);
        }
    }
}

/// Assemble the [`Footprint`] of the statement whose DAG is rooted at
/// `root`: reads and table references collected node-by-node, the write
/// and guard read off the root and its selector chain. This *is* the
/// footprint walk now — [`crate::footprint::footprint`] delegates here.
pub fn footprint_of(graph: &PlanGraph, root: NodeId, catalog: &Catalog) -> Footprint {
    let mut fp = Footprint::default();
    let target = match graph.node(root) {
        PlanNode::Assign { table, .. } | PlanNode::Delete { table, .. } => table.clone(),
        _ => String::new(),
    };
    let mut rc = ReadCollector::new(catalog);
    struct FpVisitor<'a, 'b> {
        rc: &'b mut ReadCollector<'a>,
        outer: Option<&'a TableInfo>,
        fp: &'b mut Footprint,
    }
    impl PlanVisitor for FpVisitor<'_, '_> {
        fn visit(&mut self, _id: NodeId, node: &PlanNode) {
            match node {
                PlanNode::Scan { table, .. } => {
                    self.fp.tables.insert(table.clone());
                }
                PlanNode::Guard { var, cond, .. } => {
                    self.rc.condition(cond, &row_scope(var, self.outer));
                    self.fp.guard = Some(cond.clone());
                }
                PlanNode::Values { var, select, .. } => {
                    self.rc.select(select, &row_scope(var, self.outer));
                }
                // The improve pass's one-shot `par(E)` node: its reads
                // are the algebraic query's base property relations —
                // dropping them would let the netting pass treat the
                // stage as a blind overwrite of a property it reads.
                PlanNode::AssignQuery { query, .. } => {
                    for rel in query.base_relations() {
                        if let receivers_relalg::RelName::Prop(p) = rel {
                            self.rc.reads.insert(p);
                        }
                    }
                }
                PlanNode::Assign {
                    table,
                    column,
                    prop,
                    ..
                } => {
                    self.fp.tables.insert(table.clone());
                    if let Some(prop) = prop {
                        self.fp.write = Some(Write::Update {
                            table: table.clone(),
                            column: column.clone(),
                            prop: *prop,
                        });
                    }
                }
                PlanNode::Delete { table, .. } => {
                    self.fp.tables.insert(table.clone());
                    self.fp.write = Some(Write::Delete {
                        table: table.clone(),
                    });
                }
            }
        }
    }
    graph.walk(
        root,
        &mut FpVisitor {
            rc: &mut rc,
            outer: catalog.lookup(&target).ok(),
            fp: &mut fp,
        },
    );
    fp.reads = rc.reads;
    fp.tables.append(&mut rc.tables);
    fp
}

/// Properties read by a single condition with the row bound as `var` over
/// `outer` — the guard-only read set the netting pass compares
/// intermediate writes against.
fn condition_reads(
    cond: &Condition,
    catalog: &Catalog,
    var: &str,
    outer: Option<&TableInfo>,
) -> BTreeSet<PropId> {
    let mut rc = ReadCollector::new(catalog);
    rc.condition(cond, &row_scope(var, outer));
    rc.reads
}

// ---------------------------------------------------------------------
// Lowering statements into the DAG.
// ---------------------------------------------------------------------

/// Builds the DAG, hash-consing selector and value nodes by canonical
/// key (the **cse** pass: structurally identical subtrees share a node).
struct GraphBuilder<'a> {
    catalog: &'a Catalog,
    graph: PlanGraph,
    cse: HashMap<String, NodeId>,
}

/// The node handles of one lowered statement.
struct Lowered {
    /// The statement's [`PlanNode::Scan`].
    scan: NodeId,
    /// The selector output: `scan`, or the [`PlanNode::Guard`] over it.
    rows: NodeId,
    /// The [`PlanNode::Values`] node of update statements.
    values: Option<NodeId>,
    /// The statement's root ([`PlanNode::Assign`] or [`PlanNode::Delete`]).
    root: NodeId,
    /// Binding name of the target row (`"t"` for set statements).
    var: String,
    /// Canonical hash-cons key of the guard, when shareable.
    guard_key: Option<String>,
    /// Whether the selector (guard or values) hash-consed onto an
    /// existing node.
    shared: bool,
}

impl<'a> GraphBuilder<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            graph: PlanGraph::default(),
            cse: HashMap::new(),
        }
    }

    /// Append `node`, or return the existing node under `key`.
    fn add(&mut self, key: Option<String>, node: PlanNode) -> (NodeId, bool) {
        if let Some(k) = &key {
            if let Some(&id) = self.cse.get(k) {
                C_CSE_SHARED.incr();
                return (id, true);
            }
        }
        let id = NodeId(self.graph.nodes.len());
        self.graph.nodes.push(node);
        if let Some(k) = key {
            self.cse.insert(k, id);
        }
        (id, false)
    }

    /// Lower one statement into selector/values/root nodes. Tolerant:
    /// resolution failures leave `class`/`prop` unresolved instead of
    /// erroring (strict callers run [`compile`] alongside).
    fn lower(&mut self, stmt: &SqlStatement) -> Lowered {
        let (table, var, guard, body): (&str, &str, Option<&Condition>, Option<(&str, &Select)>) =
            match stmt {
                SqlStatement::Delete { table, condition } => (table, "t", Some(condition), None),
                SqlStatement::Update {
                    table,
                    column,
                    select,
                    condition,
                } => (table, "t", condition.as_ref(), Some((column, select))),
                SqlStatement::ForEach { var, table, body } => match body {
                    CursorBody::DeleteIf { condition, .. } => {
                        (table, var.as_str(), condition.as_ref(), None)
                    }
                    CursorBody::UpdateSet {
                        condition,
                        column,
                        select,
                    } => (
                        table,
                        var.as_str(),
                        condition.as_ref(),
                        Some((column, select)),
                    ),
                },
            };
        let class = self.catalog.lookup(table).ok().map(|t| t.class);
        let (scan, _) = self.add(
            Some(format!("scan:{table}")),
            PlanNode::Scan {
                table: table.to_owned(),
                class,
            },
        );
        let mut shared = false;
        let mut guard_key = None;
        let rows = match guard {
            Some(cond) => {
                let key = canon_condition(cond, var).map(|c| format!("sel:{}:{c}", scan.index()));
                guard_key.clone_from(&key);
                let (id, hit) = self.add(
                    key,
                    PlanNode::Guard {
                        input: scan,
                        var: var.to_owned(),
                        cond: cond.clone(),
                    },
                );
                shared |= hit;
                id
            }
            None => scan,
        };
        let (values, root) = match body {
            None => {
                let (root, _) = self.add(
                    None,
                    PlanNode::Delete {
                        rows,
                        table: table.to_owned(),
                    },
                );
                (None, root)
            }
            Some((column, select)) => {
                let key = canon_select(select, var).map(|s| format!("val:{}:{s}", rows.index()));
                let (values, hit) = self.add(
                    key,
                    PlanNode::Values {
                        rows,
                        var: var.to_owned(),
                        select: select.clone(),
                    },
                );
                shared |= hit;
                let prop = self
                    .catalog
                    .lookup(table)
                    .ok()
                    .and_then(|t| t.column_prop(column));
                let (root, _) = self.add(
                    None,
                    PlanNode::Assign {
                        values,
                        table: table.to_owned(),
                        column: column.to_owned(),
                        prop,
                    },
                );
                (Some(values), root)
            }
        };
        Lowered {
            scan,
            rows,
            values,
            root,
            var: var.to_owned(),
            guard_key,
            shared,
        }
    }
}

/// Lower a single statement into a standalone tolerant DAG — the entry
/// point [`crate::footprint::footprint`] reads footprints through.
pub fn statement_dag(stmt: &SqlStatement, catalog: &Catalog) -> (PlanGraph, NodeId) {
    let mut b = GraphBuilder::new(catalog);
    let lowered = b.lower(stmt);
    (b.graph, lowered.root)
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
    /// Cursor delete: ordered per-receiver loop, guard re-evaluated
    /// against the mutating instance.
    CursorDelete,
    /// Set-oriented update: one batch values evaluation, one batch edge
    /// replacement.
    SetUpdate,
    /// Cursor update: the algebraic sequence driver when the statement
    /// has an algebraic form, the interpreted per-receiver loop
    /// otherwise.
    CursorUpdate,
    /// A cursor update the improve pass rewrote: one vectorized `par(E)`
    /// evaluation replaces the whole loop (Theorem 6.5).
    ImprovedUpdate,
}

/// One statement of a compiled program: its DAG nodes, execution
/// discipline, footprint (read off the DAG), and the planner-pass
/// verdicts that apply to it.
pub struct Stage {
    kind: StageKind,
    compiled: CompiledStatement,
    statement: SqlStatement,
    var: String,
    scan: NodeId,
    rows: NodeId,
    values: Option<NodeId>,
    root: NodeId,
    footprint: Footprint,
    guard_reads: BTreeSet<PropId>,
    guard_key: Option<String>,
    algebraic: Option<AlgebraicMethod>,
    improved: Option<ImprovedUpdate>,
    /// A set update's value subquery lowered once to `par(E)`
    /// ([`crate::compile::SetUpdate::values_query`]), or why its values
    /// stay row by row.
    values_query: Option<Result<Expr>>,
    shared_selector: bool,
    netted: bool,
    netted_by: Option<usize>,
    proofs: Vec<Proof>,
}

impl Stage {
    /// The execution discipline.
    pub fn kind(&self) -> StageKind {
        self.kind
    }

    /// The source statement.
    pub fn statement(&self) -> &SqlStatement {
        &self.statement
    }

    /// The stage's root node ([`PlanNode::Assign`] or
    /// [`PlanNode::Delete`]).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The stage's selector output node (scan or guard).
    pub fn rows_node(&self) -> NodeId {
        self.rows
    }

    /// The footprint read off the DAG — what the shard certification and
    /// the netting pass consume.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// `true` when the netting pass proved this stage's store dead and
    /// every executor skips it.
    pub fn netted(&self) -> bool {
        self.netted
    }

    /// The (0-based) later stage whose store netted this one away.
    pub fn netted_by(&self) -> Option<usize> {
        self.netted_by
    }

    /// `true` when the stage's selector or values node is shared with an
    /// earlier stage (cse pass).
    pub fn shared_selector(&self) -> bool {
        self.shared_selector
    }

    /// The compiled algebraic form, for unguarded cursor updates that
    /// have one.
    pub fn algebraic(&self) -> Option<&AlgebraicMethod> {
        self.algebraic.as_ref()
    }

    /// The improve-pass rewrite, when it fired.
    pub fn improved(&self) -> Option<&ImprovedUpdate> {
        self.improved.as_ref()
    }

    /// Proofs attached by the planner passes (netting justification,
    /// guard-equivalence implications).
    pub fn proofs(&self) -> &[Proof] {
        &self.proofs
    }
}

/// A whole update program compiled into one expression DAG — the single
/// execution path behind the sequential, sharded, and durable drivers.
pub struct ProgramPlan {
    catalog: Catalog,
    graph: PlanGraph,
    stages: Vec<Stage>,
    /// Cumulative property-read set per node (over its input chain), for
    /// executor cache invalidation.
    node_reads: Vec<BTreeSet<PropId>>,
}

impl ProgramPlan {
    /// The catalog the program compiled against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared node store.
    pub fn graph(&self) -> &PlanGraph {
        &self.graph
    }

    /// The program's stages, in statement order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

/// Compile a whole update program into a [`ProgramPlan`]: per-statement
/// lowering through [`compile`], then the improve, cse, and netting
/// passes. This subsumes per-statement compilation — a one-statement
/// program is exactly the old pipeline.
pub fn compile_program(program: &[SqlStatement], catalog: &Catalog) -> Result<ProgramPlan> {
    let _span = obs::span("sql.plan.compile");
    C_PROGRAMS.incr();
    let mut b = GraphBuilder::new(catalog);
    let mut stages: Vec<Stage> = Vec::with_capacity(program.len());
    for stmt in program {
        let compiled = compile(stmt, catalog)?;
        C_STAGES.incr();
        let mut lowered = b.lower(stmt);
        let mut proofs = Vec::new();

        // Improve pass: an unguarded, key-order-independent cursor update
        // collapses into one vectorized `par(E)` node.
        let (kind, algebraic, improved) = match &compiled {
            CompiledStatement::SetDelete(_) => (StageKind::SetDelete, None, None),
            CompiledStatement::SetUpdate(_) => (StageKind::SetUpdate, None, None),
            CompiledStatement::CursorDelete(_) => (StageKind::CursorDelete, None, None),
            CompiledStatement::CursorUpdate(cu) => {
                let algebraic = if cu.condition.is_none() {
                    cu.to_algebraic().ok()
                } else {
                    None
                };
                let improved = if algebraic.is_some() {
                    improve_cursor_update(cu).ok().and_then(|r| r.ok())
                } else {
                    None
                };
                match improved {
                    Some(imp) => {
                        C_IMPROVED.incr();
                        proofs.push(Proof::default().note(
                            "improve pass: the cursor update is key-order independent \
                             (Theorem 5.12), so the loop is replaced by one par(E) \
                             evaluation with identical semantics (Theorem 6.5)",
                        ));
                        // Rebuild the value side of the DAG: the loop's
                        // per-row subquery becomes one AssignQuery node.
                        let (values, _) = b.add(
                            None,
                            PlanNode::AssignQuery {
                                rows: lowered.scan,
                                query: imp.assignment_query.clone(),
                            },
                        );
                        let (table, column, prop) = match b.graph.node(lowered.root) {
                            PlanNode::Assign {
                                table,
                                column,
                                prop,
                                ..
                            } => (table.clone(), column.clone(), *prop),
                            _ => unreachable!("cursor updates lower to Assign roots"),
                        };
                        let (root, _) = b.add(
                            None,
                            PlanNode::Assign {
                                values,
                                table,
                                column,
                                prop,
                            },
                        );
                        lowered.values = Some(values);
                        lowered.root = root;
                        (StageKind::ImprovedUpdate, None, Some(imp))
                    }
                    None => (StageKind::CursorUpdate, algebraic, None),
                }
            }
        };

        let values_query = match &compiled {
            CompiledStatement::SetUpdate(su) => Some(su.values_query()),
            _ => None,
        };
        let footprint = footprint_of(&b.graph, lowered.root, catalog);
        let outer = catalog.lookup(stmt_table(stmt)).ok();
        let guard_reads = footprint
            .guard
            .as_ref()
            .map(|g| condition_reads(g, catalog, &lowered.var, outer))
            .unwrap_or_default();
        stages.push(Stage {
            kind,
            compiled,
            statement: stmt.clone(),
            var: lowered.var,
            scan: lowered.scan,
            rows: lowered.rows,
            values: lowered.values,
            root: lowered.root,
            footprint,
            guard_reads,
            guard_key: lowered.guard_key,
            algebraic,
            improved,
            values_query,
            shared_selector: lowered.shared,
            netted: false,
            netted_by: None,
            proofs,
        });
    }

    let graph = b.graph;
    let node_reads = compute_node_reads(&graph, catalog);
    let mut plan = ProgramPlan {
        catalog: catalog.clone(),
        graph,
        stages,
        node_reads,
    };
    net_pass(&mut plan);
    Ok(plan)
}

fn stmt_table(stmt: &SqlStatement) -> &str {
    match stmt {
        SqlStatement::Delete { table, .. }
        | SqlStatement::Update { table, .. }
        | SqlStatement::ForEach { table, .. } => table,
    }
}

/// Cumulative reads per node: what an executor's cached evaluation of the
/// node depends on (beyond class membership, which only deletes change).
fn compute_node_reads(graph: &PlanGraph, catalog: &Catalog) -> Vec<BTreeSet<PropId>> {
    let mut reads: Vec<BTreeSet<PropId>> = Vec::with_capacity(graph.len());
    for id in 0..graph.len() {
        let set = match &graph.nodes[id] {
            PlanNode::Scan { .. } => BTreeSet::new(),
            PlanNode::Guard { input, var, cond } => {
                let outer = scan_table_info(graph, *input, catalog);
                let mut s = reads[input.0].clone();
                s.append(&mut condition_reads(cond, catalog, var, outer));
                s
            }
            PlanNode::Values { rows, var, select } => {
                let outer = scan_table_info(graph, *rows, catalog);
                let mut rc = ReadCollector::new(catalog);
                rc.select(select, &row_scope(var, outer));
                let mut s = reads[rows.0].clone();
                s.append(&mut rc.reads);
                s
            }
            PlanNode::AssignQuery { rows, query } => {
                let mut s = reads[rows.0].clone();
                for rel in query.base_relations() {
                    if let receivers_relalg::RelName::Prop(p) = rel {
                        s.insert(p);
                    }
                }
                s
            }
            PlanNode::Assign { values, .. } => reads[values.0].clone(),
            PlanNode::Delete { rows, .. } => reads[rows.0].clone(),
        };
        reads.push(set);
    }
    reads
}

/// Walk a selector chain down to its scan and resolve the scanned table.
fn scan_table_info<'a>(
    graph: &PlanGraph,
    mut id: NodeId,
    catalog: &'a Catalog,
) -> Option<&'a TableInfo> {
    loop {
        match graph.node(id) {
            PlanNode::Scan { table, .. } => return catalog.lookup(table).ok(),
            other => match other.inputs().first() {
                Some(&input) => id = input,
                None => return None,
            },
        }
    }
}

// ---------------------------------------------------------------------
// The netting pass.
// ---------------------------------------------------------------------

/// Memoized verdict of one netting guard-implication query.
#[derive(Clone)]
enum CachedImplication {
    /// The solver proved the implication; its proof notes.
    Implies(Vec<String>),
    /// The solver could not speak (the netting argument stands on the
    /// syntactic identity alone).
    Inconclusive,
}

/// Process-wide memo of [`Solver::implies`] verdicts from the netting
/// pass, keyed by catalog digest, target table, and the *canonical* guard
/// text (`canon_condition`, cursor variables rewritten to `#r`). The
/// per-graph `guard_key` embeds node indexes and is useless across
/// programs; the canonical text is stable, so recompiling a program — or
/// compiling any program sharing the guard — skips the solver entirely.
type ProofCache = Mutex<HashMap<(u64, String, String), CachedImplication>>;

fn proof_cache() -> &'static ProofCache {
    static CACHE: OnceLock<ProofCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Clear the process-wide netting proof cache. Bench/test support: the
/// cold-compile arm of the profiler benchmark needs every iteration to
/// miss, and the cache is otherwise append-only for the process lifetime.
#[doc(hidden)]
pub fn reset_proof_cache() {
    proof_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// Digest identifying a catalog for the proof cache: same table/column
/// layout, same digest. Hash of the `Debug` rendering — catalogs are
/// small and compilation is rare.
fn catalog_digest(catalog: &Catalog) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{catalog:?}").hash(&mut h);
    h.finish()
}

/// Net successive assignments to the same `(table, property)`: stage `i`
/// is marked [`Stage::netted`] (and skipped by every executor) when a
/// later stage `j` provably overwrites its store before anything reads
/// it. The conditions, checked syntactically off the DAG footprints with
/// [`Solver::implies`] backing the guard comparison:
///
/// * `j` writes the same `(table, property)` and does not read it;
/// * no stage in `(i, j]` reads the property, and no stage in `(i, j)`
///   deletes (a delete changes class membership, which guards observe);
/// * `j`'s row set covers `i`'s: `j` is unguarded, or the guards are
///   identical up to cursor-variable renaming *and* no stage in `(i, j)`
///   writes a property the guard reads (so the guard selects the same
///   rows at both points).
fn net_pass(plan: &mut ProgramPlan) {
    let solver = Solver::new(&plan.catalog);
    let digest = catalog_digest(&plan.catalog);
    let n = plan.stages.len();
    for i in (0..n).rev() {
        let Some(Write::Update {
            table: ti,
            prop: pi,
            column: ci,
        }) = plan.stages[i].footprint.write.clone()
        else {
            continue;
        };
        for j in i + 1..n {
            if plan.stages[j].netted {
                // A netted stage never executes: invisible to the scan.
                continue;
            }
            let candidate = match &plan.stages[j].footprint.write {
                Some(Write::Update { table, prop, .. }) => *prop == pi && *table == ti,
                _ => false,
            };
            if candidate && !plan.stages[j].footprint.reads.contains(&pi) {
                if let Some(mut proof) = netting_cover_proof(plan, i, j, &solver, digest) {
                    proof.notes.insert(
                        0,
                        format!(
                            "store to {ti}.{ci} in statement {} is overwritten by \
                             statement {} before any statement reads {ci}",
                            i + 1,
                            j + 1
                        ),
                    );
                    C_NETTED.incr();
                    plan.stages[i].netted = true;
                    plan.stages[i].netted_by = Some(j);
                    plan.stages[i].proofs.push(proof);
                    break;
                }
            }
            // Blockers for scanning past stage j.
            if plan.stages[j].footprint.reads.contains(&pi) {
                break;
            }
            if matches!(
                plan.stages[j].footprint.write,
                Some(Write::Delete { .. }) | None
            ) {
                break;
            }
        }
    }
}

/// Does stage `j`'s row set provably cover stage `i`'s (same table,
/// same property, no intervening read — already established)? Returns
/// the covering argument as a proof, `None` when it cannot be made.
fn netting_cover_proof(
    plan: &ProgramPlan,
    i: usize,
    j: usize,
    solver: &Solver<'_>,
    digest: u64,
) -> Option<Proof> {
    let si = &plan.stages[i];
    let sj = &plan.stages[j];
    match (&si.footprint.guard, &sj.footprint.guard) {
        (_, None) => Some(Proof::default().note(
            "the later store is unguarded: it rewrites the property on every row \
             of the table, and no delete intervenes",
        )),
        (Some(gi), Some(gj)) => {
            // The guards must select the same rows at both program
            // points: identical up to cursor-variable renaming, and no
            // intervening stage writes a property the guard reads.
            let (ki, kj) = (si.guard_key.as_ref()?, sj.guard_key.as_ref()?);
            if ki != kj {
                return None;
            }
            let stable = (i + 1..j).all(|k| {
                plan.stages[k].netted
                    || match &plan.stages[k].footprint.write {
                        Some(Write::Update { prop, .. }) => !sj.guard_reads.contains(prop),
                        Some(Write::Delete { .. }) => false,
                        None => true,
                    }
            });
            if !stable {
                return None;
            }
            let mut proof = Proof::default().note(
                "the stores share one hash-consed guard (identical up to cursor-variable \
                 renaming), and no intervening statement writes a property the guard reads",
            );
            // Back the syntactic identity with the solver where it can
            // speak: mutual implication of the two guards. The verdict is
            // memoized across compilations — the guards are identical up
            // to renaming (ki == kj above), so the canonical text of one
            // of them, with the table and catalog, determines the query.
            let canon = canon_condition(gi, &si.var)?;
            let key = (digest, stmt_table(&si.statement).to_owned(), canon);
            let cached = proof_cache()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&key)
                .cloned();
            let verdict = match cached {
                Some(v) => {
                    C_PROOF_HIT.incr();
                    v
                }
                None => {
                    C_PROOF_MISS.incr();
                    let v = match solver.implies(
                        stmt_table(&si.statement),
                        GuardRef::in_cursor(&si.var, Some(gi)),
                        GuardRef::in_cursor(&sj.var, Some(gj)),
                    ) {
                        Implication::Implies(p) => CachedImplication::Implies(p.notes),
                        _ => CachedImplication::Inconclusive,
                    };
                    proof_cache()
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(key, v.clone());
                    v
                }
            };
            if let CachedImplication::Implies(notes) = verdict {
                proof.notes.extend(notes);
            }
            Some(proof)
        }
        (None, Some(_)) => {
            // The earlier store hits every row; the later one only some —
            // rows failing the later guard would keep the earlier value.
            None
        }
    }
}

// ---------------------------------------------------------------------
// The vectorized executor.
// ---------------------------------------------------------------------

/// Per-execution lazy evaluation cache over the DAG: selector and values
/// nodes evaluate once per batch and are reused by every stage sharing
/// the node, until a write invalidates them. Soundness of reuse: a
/// selector's result depends on class membership (only deletes change
/// it — any delete clears the cache) and on the edges of the properties
/// it reads ([`ProgramPlan::node_reads`]; an update of property `p`
/// evicts exactly the entries reading `p`).
struct ExecCache<'p> {
    plan: &'p ProgramPlan,
    rows: HashMap<NodeId, Vec<Oid>>,
    values: HashMap<NodeId, Vec<(Oid, Vec<Oid>)>>,
    /// Local mirror of `sql.plan.selector_reuses` for this execution
    /// only — the global counter is shared across threads, so a profiler
    /// diffs these instead.
    hits: u64,
    /// Local mirror of `sql.plan.selector_evals`.
    misses: u64,
}

impl<'p> ExecCache<'p> {
    fn new(plan: &'p ProgramPlan) -> Self {
        Self {
            plan,
            rows: HashMap::new(),
            values: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The rows a selector node produces against the current instance
    /// (class-member order, as the two-phase set statements enumerate).
    fn rows(&mut self, id: NodeId, instance: &Instance) -> Result<Vec<Oid>> {
        match self.plan.graph.node(id) {
            PlanNode::Scan { table, class } => {
                // Membership is never cached: it is cheap to enumerate
                // and correct by construction.
                let class = class.ok_or_else(|| SqlError::UnknownTable(table.clone()))?;
                Ok(instance.class_members(class).collect())
            }
            PlanNode::Guard { input, var, cond } => {
                if let Some(cached) = self.rows.get(&id) {
                    C_SELECTOR_REUSES.incr();
                    self.hits += 1;
                    return Ok(cached.clone());
                }
                let base = self.rows(*input, instance)?;
                C_SELECTOR_EVALS.incr();
                self.misses += 1;
                let info = scan_table_info(&self.plan.graph, *input, &self.plan.catalog)
                    .ok_or_else(|| SqlError::Unsupported("unresolved scan in plan".to_owned()))?;
                let mut out = Vec::with_capacity(base.len());
                for &t in &base {
                    let scopes: Scopes<'_> = vec![Binding {
                        alias: var.clone(),
                        table: info,
                        tuple: t,
                    }];
                    if eval_condition(cond, &scopes, &self.plan.catalog, instance)? {
                        out.push(t);
                    }
                }
                self.rows.insert(id, out.clone());
                Ok(out)
            }
            _ => Err(SqlError::Unsupported("not a selector node".to_owned())),
        }
    }

    /// The `(row, values)` assignments a values node produces: from one
    /// evaluation of `query`, the node's `par(E)`, against `db` when there
    /// is one, otherwise by evaluating the subquery row by row. A row
    /// `par(E)` pairs with nothing gets no values, as the row-by-row
    /// subquery gives it.
    fn values(
        &mut self,
        id: NodeId,
        query: Option<&Expr>,
        instance: &Instance,
        db: &Database,
    ) -> Result<Vec<(Oid, Vec<Oid>)>> {
        if let Some(cached) = self.values.get(&id) {
            C_SELECTOR_REUSES.incr();
            self.hits += 1;
            return Ok(cached.clone());
        }
        let PlanNode::Values { rows, var, select } = self.plan.graph.node(id) else {
            return Err(SqlError::Unsupported("not a values node".to_owned()));
        };
        let base = self.rows(*rows, instance)?;
        C_SELECTOR_EVALS.incr();
        self.misses += 1;
        let info = scan_table_info(&self.plan.graph, *rows, &self.plan.catalog)
            .ok_or_else(|| SqlError::Unsupported("unresolved scan in plan".to_owned()))?;
        let mut out = Vec::with_capacity(base.len());
        if let Some(query) = query {
            let pairs = par_pairs(query, info.class, &base, db)?;
            for &t in &base {
                let from = pairs.partition_point(|&(row, _)| row < t);
                let to = from + pairs[from..].partition_point(|&(row, _)| row == t);
                out.push((t, pairs[from..to].iter().map(|&(_, v)| v).collect()));
            }
        } else {
            for &t in &base {
                let scopes: Scopes<'_> = vec![Binding {
                    alias: var.clone(),
                    table: info,
                    tuple: t,
                }];
                out.push((
                    t,
                    eval_select(select, &scopes, &self.plan.catalog, instance)?,
                ));
            }
        }
        self.values.insert(id, out.clone());
        Ok(out)
    }

    /// Evict what an executed stage's write invalidated.
    fn invalidate_after(&mut self, fp: &Footprint) {
        match &fp.write {
            Some(Write::Update { prop, .. }) => {
                let reads = &self.plan.node_reads;
                self.rows.retain(|id, _| !reads[id.0].contains(prop));
                self.values.retain(|id, _| !reads[id.0].contains(prop));
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

/// What one executed stage did, collected unconditionally (integer adds;
/// the placement note and wave only when profiled) and read only by the
/// profiled drivers.
#[derive(Default)]
struct StageMeter {
    /// Rows the stage's selector produced (receivers visited).
    rows_in: u64,
    /// Rows the stage actually wrote (deletes fired, assignments made).
    rows_out: u64,
    /// Where the profiled sharded driver placed the stage, and why.
    placement: Option<String>,
    /// How a profiled shard wave split its receivers across lanes.
    wave: Option<WaveStats>,
}

/// Where a profiled stage started: clocks, selector-cache counters and
/// WAL accounting, diffed against their values once the stage is done.
struct StageMark {
    start_ns: u64,
    t0: std::time::Instant,
    hits: u64,
    misses: u64,
    wal: Option<WalStats>,
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
    let mut n = obs::ProfileNode::new(format!("stage {}", idx + 1), stage_kind_label(stage.kind));
    n.add_note(stage.statement.to_string());
    if let Some(j) = stage.netted_by {
        n.add_note(format!(
            "netted by stage {} — skipped by every driver",
            j + 1
        ));
    }
    if stage.shared_selector {
        n.add_note("selector shared with an earlier stage (cse)");
    }
    match &stage.values_query {
        Some(Ok(_)) => n.add_note("values: one par(E) evaluation"),
        Some(Err(why)) => n.add_note(format!("values: row by row — {why}")),
        None => {}
    }
    n
}

/// Stamp one executed stage's measurements onto its node — wall time,
/// rows, selector-cache deltas, the sharded placement and lanes, the
/// durable `wal` child — and push it under the profile root.
fn push_stage_profile(
    prof: &mut obs::ProfileNode,
    idx: usize,
    stage: &Stage,
    mark: StageMark,
    meter: StageMeter,
    cache: &ExecCache<'_>,
    wal: Option<WalStats>,
) {
    let mut node = stage_node(idx, stage);
    node.start_ns = mark.start_ns;
    node.wall_ns = mark.t0.elapsed().as_nanos() as u64;
    node.rows_in = meter.rows_in;
    node.rows_out = meter.rows_out;
    node.set_metric("selector_cache_hits", cache.hits - mark.hits);
    node.set_metric("selector_cache_misses", cache.misses - mark.misses);
    if let Some(note) = meter.placement {
        node.add_note(note);
    }
    if let Some(w) = meter.wave {
        node.set_metric("local_receivers", w.local_receivers);
        for lane in w.lanes.iter().filter(|l| l.receivers > 0 || l.batches > 0) {
            let mut ln = obs::ProfileNode::new(format!("shard {}", lane.shard), "shard-lane");
            ln.start_ns = mark.start_ns;
            ln.wall_ns = lane.busy_ns;
            ln.rows_in = lane.receivers;
            ln.rows_out = lane.receivers;
            ln.set_metric("receivers", lane.receivers);
            ln.set_metric("batches", lane.batches);
            ln.set_metric("queue_wait_ns", lane.wait_ns);
            node.children.push(ln);
        }
    }
    if let (Some(w0), Some(w)) = (mark.wal, wal) {
        let mut wal = obs::ProfileNode::new("wal", "wal-append");
        wal.start_ns = mark.start_ns;
        wal.wall_ns = w.sync_ns - w0.sync_ns;
        wal.set_metric("records", w.records - w0.records);
        wal.set_metric("bytes", w.bytes - w0.bytes);
        wal.set_metric("syncs", w.syncs - w0.syncs);
        wal.set_metric("sync_ns", w.sync_ns - w0.sync_ns);
        if w.checkpoints > w0.checkpoints {
            wal.set_metric("checkpoints", w.checkpoints - w0.checkpoints);
        }
        node.children.push(wal);
    }
    prof.children.push(node);
}

/// The observer side of the one stage loop: stages write through it and
/// evaluate against its database. A durable sink additionally parks
/// storage errors and keeps WAL accounting; a bare view has neither.
trait StageObserver: ViewObserver {
    /// The storage error the last stage hit, if any.
    fn take_error(&mut self) -> Option<WalError> {
        None
    }
    /// Cumulative WAL accounting, when the observer logs.
    fn wal_stats(&self) -> Option<WalStats> {
        None
    }
}

impl StageObserver for DatabaseView {}

impl<S: WalStorage> StageObserver for DurableSink<'_, S> {
    fn take_error(&mut self) -> Option<WalError> {
        DurableSink::take_error(self)
    }
    fn wal_stats(&self) -> Option<WalStats> {
        Some(self.store().stats())
    }
}

/// The sharded session's placement rule — all its driver adds to the
/// shared stage loop: a certified algebraic cursor stage runs on its
/// persistent [`ShardedExecutor`], writing through the session view;
/// every other stage takes the shared path.
struct ShardLanes<'s, 'p> {
    cfg: &'s ShardConfig,
    execs: &'s mut [Lane<'p>],
}

/// A cursor stage's standing in a shard session, decided once on first
/// use: its executor, or the refusal note of a certificate that is not
/// shard-safe (so a refused stage is not re-solved on every execute).
type Lane<'p> = Option<std::result::Result<ShardedExecutor<'p>, String>>;

/// The placement note of a stage whose certificate is not shard-safe,
/// naming the undischarged conflicts by their SQL columns.
pub(crate) fn refusal_note(catalog: &Catalog, certificate: &ShardCertificate) -> String {
    let columns: Vec<String> = certificate
        .undischarged()
        .map(|p| {
            catalog
                .tables()
                .find_map(|(table, info)| {
                    info.columns
                        .iter()
                        .find(|&(_, &q)| q == p)
                        .map(|(column, _)| format!("{table}.{column}"))
                })
                .unwrap_or_else(|| catalog.schema.prop_name(p).to_owned())
        })
        .collect();
    format!(
        "certificate not shard-safe (undischarged: {}) — ordered coordinator path",
        columns.join(", ")
    )
}

impl<'p> ShardLanes<'_, 'p> {
    /// Run stage `idx` on its executor, or return `None` to send it down
    /// the shared path.
    fn run(
        &mut self,
        plan: &'p ProgramPlan,
        idx: usize,
        instance: &mut Instance,
        view: &mut dyn DeltaObserver,
        meter: &mut StageMeter,
        profiled: bool,
    ) -> Option<InPlaceOutcome> {
        let stage = &plan.stages[idx];
        let method = match stage.kind {
            StageKind::CursorUpdate => stage.algebraic.as_ref()?,
            _ => return None,
        };
        let lane = self.execs[idx].get_or_insert_with(|| {
            let (certificate, _proofs) = plan
                .shard_certificate(idx)
                .expect("algebraic stages certify");
            ShardedExecutor::with_certificate(method, &certificate, self.cfg)
                .map_err(|_| refusal_note(&plan.catalog, &certificate))
        });
        let exec = match lane {
            Ok(exec) => exec,
            Err(note) => {
                if profiled {
                    meter.placement = Some(note.clone());
                }
                return None;
            }
        };
        if profiled {
            meter.placement = Some("certified shard-safe — per-shard worker loops".to_owned());
        }
        let order = cursor_order(stage, instance);
        meter.rows_in += order.len() as u64;
        meter.rows_out += order.len() as u64;
        let mut wave = WaveStats::default();
        let outcome = exec.apply(instance, view, &order, profiled.then_some(&mut wave));
        if profiled {
            meter.wave = Some(wave);
        }
        Some(outcome)
    }

    /// Stage `idx` applied: every other executor's replicas are stale now,
    /// and its own too unless it ran the stage.
    fn invalidate_after(&mut self, idx: usize, ran_here: bool) {
        for (k, exec) in self.execs.iter_mut().enumerate() {
            if let Some(Ok(exec)) = exec {
                if !(ran_here && k == idx) {
                    exec.invalidate();
                }
            }
        }
    }
}

/// The sorted receiver order a cursor stage iterates in — the same
/// [`ReceiverSet::canonical_order`] the legacy per-statement path uses.
fn cursor_order(stage: &Stage, instance: &Instance) -> Vec<Receiver> {
    match &stage.compiled {
        CompiledStatement::CursorUpdate(cu) => cu.receivers(instance).canonical_order(),
        CompiledStatement::CursorDelete(cd) => cd.receivers(instance).canonical_order(),
        _ => unreachable!("only cursor stages have receiver orders"),
    }
}

/// An improved stage's vectorized result: the full receiver set and the
/// `(receiver, value)` assignment pairs.
type ImprovedPairs = (BTreeSet<Oid>, Vec<(Oid, Oid)>);

/// One evaluation of a `par(E)` query against `db`, with `rec` bound to
/// `rows` (scheme `self` over `class`): every `(row, value)` assignment
/// pair, sorted. The scheme is `(self, value)`; the degenerate `a := self`
/// statement leaves a unary result (see `receivers_core::parallel`).
fn par_pairs(query: &Expr, class: ClassId, rows: &[Oid], db: &Database) -> Result<Vec<(Oid, Oid)>> {
    let rec = Relation::from_tuples(
        RelSchema::unary("self", class),
        rows.iter().map(std::slice::from_ref),
    )?;
    let mut bindings = Bindings::new();
    bindings.bind("rec", rec);
    let rel = eval_expr(query, db, &bindings)?;
    Ok(match rel.schema().arity() {
        1 => rel.tuples().map(|t| (t[0], t[0])).collect(),
        _ => rel.tuples().map(|t| (t[0], t[1])).collect(),
    })
}

impl ProgramPlan {
    /// The resolved target property of an update stage.
    fn stage_prop(&self, stage: &Stage) -> Result<PropId> {
        match self.graph.node(stage.root) {
            PlanNode::Assign { prop: Some(p), .. } => Ok(*p),
            _ => Err(SqlError::Unsupported(
                "stage has no resolved target property".to_owned(),
            )),
        }
    }

    /// Evaluate an improved stage's one-shot `par(E)` query: the full
    /// receiver set and every `(receiver, value)` assignment pair, in one
    /// vectorized evaluation against the flat `TupleSet` kernel.
    fn improved_pairs(
        &self,
        cache: &mut ExecCache<'_>,
        stage: &Stage,
        instance: &Instance,
        db: &Database,
    ) -> Result<ImprovedPairs> {
        let imp = stage.improved.as_ref().expect("improved stage");
        let values = stage.values.expect("improved stages have a values node");
        let PlanNode::AssignQuery { query, .. } = self.graph.node(values) else {
            unreachable!("improved stages hold an AssignQuery node");
        };
        let rows = cache.rows(stage.scan, instance)?;
        C_VECTORIZED_ROWS.add(rows.len() as u64);
        let class = imp.method.signature_ref().receiving_class();
        let pairs = par_pairs(query, class, &rows, db)?;
        Ok((rows.into_iter().collect(), pairs))
    }

    /// Run a cursor delete's ordered loop: guard re-evaluated per
    /// receiver against the mutating instance, every fired delete one
    /// observed transaction — exactly the interpreted
    /// [`crate::compile::CursorDeleteMethod`] semantics, in place.
    fn run_cursor_delete(
        &self,
        stage: &Stage,
        instance: &mut Instance,
        observer: &mut dyn DeltaObserver,
        meter: &mut StageMeter,
    ) -> Result<InPlaceOutcome> {
        let CompiledStatement::CursorDelete(cd) = &stage.compiled else {
            unreachable!("kind-checked by the caller");
        };
        let order = cd.receivers(instance).canonical_order();
        meter.rows_in += order.len() as u64;
        for t in &order {
            let tuple = t.receiving_object();
            let fire = match &cd.condition {
                Some(c) => {
                    let scopes: Scopes<'_> = vec![Binding {
                        alias: stage.var.clone(),
                        table: cd.table(),
                        tuple,
                    }];
                    eval_condition(c, &scopes, cd.catalog(), instance)?
                }
                None => true,
            };
            if fire {
                meter.rows_out += 1;
                let mut txn = receivers_objectbase::InstanceTxn::begin_observed(instance, observer);
                txn.remove_object_cascade(tuple);
                txn.commit();
            }
        }
        Ok(InPlaceOutcome::Applied)
    }

    /// Run a guarded (or non-algebraic) cursor update's ordered loop —
    /// exactly the interpreted [`crate::compile::CursorUpdateMethod`]
    /// semantics, in place.
    fn run_cursor_update_interpreted(
        &self,
        stage: &Stage,
        instance: &mut Instance,
        observer: &mut dyn DeltaObserver,
        meter: &mut StageMeter,
    ) -> Result<InPlaceOutcome> {
        let CompiledStatement::CursorUpdate(cu) = &stage.compiled else {
            unreachable!("kind-checked by the caller");
        };
        let prop = cu.property;
        let order = cu.receivers(instance).canonical_order();
        meter.rows_in += order.len() as u64;
        for t in &order {
            let tuple = t.receiving_object();
            let scopes: Scopes<'_> = vec![Binding {
                alias: stage.var.clone(),
                table: cu.table(),
                tuple,
            }];
            if let Some(guard) = &cu.condition {
                if !eval_condition(guard, &scopes, cu.catalog(), instance)? {
                    continue;
                }
            }
            let values = eval_select(cu.select(), &scopes, cu.catalog(), instance)?;
            meter.rows_out += 1;
            let mut txn = receivers_objectbase::InstanceTxn::begin_observed(instance, observer);
            let old: Vec<Oid> = txn.instance().successors(tuple, prop).collect();
            for v in old {
                txn.remove_edge(&receivers_objectbase::Edge::new(tuple, prop, v));
            }
            for v in values {
                txn.add_edge(receivers_objectbase::Edge::new(tuple, prop, v))
                    .expect("typed evaluation");
            }
            txn.commit();
        }
        Ok(InPlaceOutcome::Applied)
    }

    /// Run one stage on the shared in-place path against `instance`, with
    /// `view` maintained — the one place [`StageKind`] is matched for
    /// execution.
    fn run_stage_viewed(
        &self,
        cache: &mut ExecCache<'_>,
        stage: &Stage,
        instance: &mut Instance,
        view: &mut dyn ViewObserver,
        meter: &mut StageMeter,
    ) -> Result<InPlaceOutcome> {
        match stage.kind {
            StageKind::SetDelete => {
                let rows = cache.rows(stage.rows, instance)?;
                C_VECTORIZED_ROWS.add(rows.len() as u64);
                meter.rows_in += rows.len() as u64;
                meter.rows_out += rows.len() as u64;
                apply_delete_batch(instance, view, &rows);
                Ok(InPlaceOutcome::Applied)
            }
            StageKind::SetUpdate => {
                let values = stage.values.expect("set updates have a values node");
                let query = stage.values_query.as_ref().and_then(|q| q.as_ref().ok());
                let assigns = cache.values(values, query, instance, view.database())?;
                C_VECTORIZED_ROWS.add(assigns.len() as u64);
                meter.rows_in += assigns.len() as u64;
                meter.rows_out += assigns.len() as u64;
                apply_assignment_batch(instance, view, self.stage_prop(stage)?, &assigns);
                Ok(InPlaceOutcome::Applied)
            }
            StageKind::ImprovedUpdate => {
                let (receiving, pairs) =
                    self.improved_pairs(cache, stage, instance, view.database())?;
                meter.rows_in += receiving.len() as u64;
                meter.rows_out += pairs.len() as u64;
                apply_replacement_batch(
                    instance,
                    view,
                    self.stage_prop(stage)?,
                    &receiving,
                    &pairs,
                );
                Ok(InPlaceOutcome::Applied)
            }
            StageKind::CursorDelete => self.run_cursor_delete(stage, instance, view, meter),
            StageKind::CursorUpdate => match &stage.algebraic {
                Some(m) => {
                    let order = cursor_order(stage, instance);
                    meter.rows_in += order.len() as u64;
                    meter.rows_out += order.len() as u64;
                    Ok(m.apply_sequence_viewed(instance, view, &order))
                }
                None => self.run_cursor_update_interpreted(stage, instance, view, meter),
            },
        }
    }

    /// The one stage loop behind every driver. It owns netted-stage
    /// skipping, spans and counters, profile marks, the storage-error
    /// check after each stage, outcome handling and selector-cache
    /// invalidation; the drivers differ only in the observer they pass
    /// (a view, or a [`DurableSink`] around one) and, for the sharded
    /// session, in the [`ShardLanes`] placement rule.
    ///
    /// On a non-[`Applied`](InPlaceOutcome::Applied) stage outcome the
    /// program stops: the failing stage has rolled itself back, earlier
    /// stages remain applied — the same contract as running the
    /// statements one at a time.
    fn run_stages<'p>(
        &'p self,
        instance: &mut Instance,
        sink: &mut dyn StageObserver,
        mut lanes: Option<&mut ShardLanes<'_, 'p>>,
        mut prof: Option<&mut obs::ProfileNode>,
    ) -> Result<InPlaceOutcome> {
        let _span = obs::span("sql.plan.execute");
        C_EXECUTIONS.incr();
        let mut cache = ExecCache::new(self);
        for (idx, stage) in self.stages.iter().enumerate() {
            if stage.netted {
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
                wal: sink.wal_stats(),
            });
            let mut meter = StageMeter::default();
            let placed = lanes
                .as_deref_mut()
                .and_then(|l| l.run(self, idx, instance, &mut *sink, &mut meter, prof.is_some()));
            let ran_on_lanes = placed.is_some();
            let outcome = match placed {
                Some(outcome) => outcome,
                None => self.run_stage_viewed(&mut cache, stage, instance, sink, &mut meter)?,
            };
            if let Some(e) = sink.take_error() {
                return Err(e.into());
            }
            if let (Some(p), Some(mark)) = (prof.as_deref_mut(), mark) {
                push_stage_profile(p, idx, stage, mark, meter, &cache, sink.wal_stats());
            }
            if !outcome.is_applied() {
                return Ok(outcome);
            }
            if let Some(l) = lanes.as_deref_mut() {
                l.invalidate_after(idx, ran_on_lanes);
            }
            cache.invalidate_after(&stage.footprint);
        }
        Ok(InPlaceOutcome::Applied)
    }

    /// Run `execute` with **EXPLAIN ANALYZE** attached: a profile root
    /// for `driver`, timed around the run and, when the flight recorder
    /// is on, retained rendered in its ring.
    fn profiled(
        &self,
        driver: &str,
        execute: impl FnOnce(Option<&mut obs::ProfileNode>) -> Result<InPlaceOutcome>,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        let mut root = obs::ProfileNode::new(format!("program ({driver})"), "program");
        root.set_metric("stages", self.stages.len() as u64);
        root.set_metric("dag_nodes", self.graph.len() as u64);
        let start_ns = obs::now_ns();
        let t0 = std::time::Instant::now();
        let outcome = execute(Some(&mut root))?;
        root.start_ns = start_ns;
        root.wall_ns = t0.elapsed().as_nanos() as u64;
        if obs::flight_enabled() {
            obs::flight::flight_record(
                "profile",
                format!("{} ({:.3} ms)", root.name, root.wall_ns as f64 / 1e6),
                Some(obs::render_profile_json(&root)),
            );
        }
        Ok((outcome, root))
    }

    /// Execute the compiled program through the **sequential viewed
    /// driver**: every stage in statement order against `instance`, with
    /// `view` incrementally maintained. Netted stages are skipped. On a
    /// non-[`Applied`](InPlaceOutcome::Applied) stage outcome the program
    /// stops (the failing stage has rolled itself back; earlier stages
    /// remain applied — the same contract as running the statements one
    /// at a time).
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
    /// selector-cache hit/miss counts. Render with
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
    /// viewed driver's stage loop with one [`DurableSink`] around `view`
    /// for the whole program, so every committed batch is appended to
    /// `store`'s write-ahead log (one record per vectorized batch, one per
    /// receiver on cursor loops) and the sink checkpoints at the commit
    /// that crosses the store's threshold. On a storage error the
    /// in-memory state is ahead of the durable state; recover via
    /// [`DurableStore::open`].
    pub fn execute_durable<S: WalStorage>(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<S>,
    ) -> Result<InPlaceOutcome> {
        self.run_stages(instance, &mut DurableSink::new(store, view), None, None)
    }

    /// [`ProgramPlan::execute_durable`] with **EXPLAIN ANALYZE**
    /// attached: per-stage wall time, rows, selector-cache counters, and
    /// a nested `wal` child pricing the stage's log appends (records,
    /// bytes, syncs, sync latency, checkpoints) off the sink's
    /// [`DurableStore::stats`].
    pub fn execute_durable_profiled<S: WalStorage>(
        &self,
        instance: &mut Instance,
        view: &mut DatabaseView,
        store: &mut DurableStore<S>,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        let mut sink = DurableSink::new(store, view);
        self.profiled("durable", |prof| {
            self.run_stages(instance, &mut sink, None, prof)
        })
    }

    /// The shard certificate of an algebraic stage: the coloring-footprint
    /// certification of [`receivers_core::certify`], refined by
    /// discharging read/write conflicts whose reads the solver proves
    /// self-pinned — all read off the stage's DAG footprint and
    /// statement. Returns `None` for stages with no algebraic form.
    pub fn shard_certificate(
        &self,
        idx: usize,
    ) -> Option<(receivers_core::ShardCertificate, Vec<(PropId, Proof)>)> {
        let stage = &self.stages[idx];
        let method = stage.algebraic.as_ref()?;
        let mut certificate = certify(method);
        let solver = Solver::new(&self.catalog);
        let proofs = solver.discharge_pinned_reads(&stage.statement, &mut certificate);
        Some((certificate, proofs))
    }

    /// A persistent sharded execution session over this plan — the
    /// [`ShardedExecutor`]-backed driver, replicas kept warm across
    /// repeated executions.
    pub fn shard_session(&self, cfg: ShardConfig) -> ShardSession<'_> {
        ShardSession {
            plan: self,
            cfg,
            view: None,
            execs: self.stages.iter().map(|_| None).collect(),
        }
    }

    /// Execute the compiled program through the **sharded driver**:
    /// certified algebraic stages run on the per-shard worker loops of
    /// [`receivers_core::shard`] (certificates discharged from the DAG
    /// footprints), everything else runs vectorized on the coordinator —
    /// bit-identical to the sequential path.
    pub fn execute_sharded(
        &self,
        instance: &mut Instance,
        cfg: &ShardConfig,
    ) -> Result<InPlaceOutcome> {
        self.shard_session(cfg.clone()).execute(instance)
    }

    /// [`ProgramPlan::execute_sharded`] with **EXPLAIN ANALYZE**
    /// attached: certified stages report their receivers on the
    /// per-shard worker lanes, with one `shard N` child per active lane
    /// (receivers, batches, queue wait, busy time); refused stages name
    /// their undischarged conflicts.
    pub fn execute_sharded_profiled(
        &self,
        instance: &mut Instance,
        cfg: &ShardConfig,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        self.shard_session(cfg.clone()).execute_profiled(instance)
    }
}

/// A persistent sharded session over a [`ProgramPlan`]: one
/// [`ShardedExecutor`] per certified algebraic stage (replicas carried
/// over between [`ShardSession::execute`] calls), a maintained
/// [`DatabaseView`] for the coordinator stages, and the executor-replica
/// cross-invalidation the stage sequence requires.
pub struct ShardSession<'p> {
    plan: &'p ProgramPlan,
    cfg: ShardConfig,
    view: Option<DatabaseView>,
    execs: Vec<Lane<'p>>,
}

impl ShardSession<'_> {
    /// Drop the session's maintained view and every executor's replicas;
    /// required after any mutation of the instance outside this session.
    pub fn invalidate(&mut self) {
        self.view = None;
        for e in self.execs.iter_mut().flatten().flatten() {
            e.invalidate();
        }
    }

    /// Apply the whole program to `instance` — semantically identical to
    /// [`ProgramPlan::execute_viewed`].
    pub fn execute(&mut self, instance: &mut Instance) -> Result<InPlaceOutcome> {
        self.execute_impl(instance, None)
    }

    /// [`ShardSession::execute`] with **EXPLAIN ANALYZE** attached — see
    /// [`ProgramPlan::execute_sharded_profiled`].
    pub fn execute_profiled(
        &mut self,
        instance: &mut Instance,
    ) -> Result<(InPlaceOutcome, obs::ProfileNode)> {
        let plan = self.plan;
        plan.profiled("sharded", |prof| self.execute_impl(instance, prof))
    }

    fn execute_impl(
        &mut self,
        instance: &mut Instance,
        prof: Option<&mut obs::ProfileNode>,
    ) -> Result<InPlaceOutcome> {
        let mut view = self
            .view
            .take()
            .unwrap_or_else(|| DatabaseView::new(instance));
        let mut lanes = ShardLanes {
            cfg: &self.cfg,
            execs: &mut self.execs,
        };
        let outcome = self
            .plan
            .run_stages(instance, &mut view, Some(&mut lanes), prof);
        self.view = Some(view);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use receivers_wal::{FaultStorage, WalConfig};

    use super::*;
    use crate::catalog::employee_catalog;
    use crate::compile::SetUpdate;
    use crate::parser::parse;
    use crate::scenarios::{
        section7_instance, CURSOR_UPDATE_B, CURSOR_UPDATE_C, DELETE_SIMPLE, UPDATE_A,
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

    /// A set update's values come from one `par(E)` evaluation; a row the
    /// query pairs with nothing loses the property, as it does when the
    /// subquery is evaluated row by row.
    #[test]
    fn set_update_row_without_par_values_loses_the_property() {
        const MANAGED: &str = "update Employee set Manager = \
             (select E1.EmpId from Employee E1 where E1.Manager = EmpId)";
        let (es, catalog) = employee_catalog();
        let plan = compile_program(&program(&[MANAGED]), &catalog).unwrap();
        assert!(matches!(plan.stages()[0].values_query, Some(Ok(_))));

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

    /// Two statements with the identical guard hash-cons onto one selector
    /// node, and the shared pipeline still matches one-at-a-time legacy
    /// application.
    #[test]
    fn identical_guards_share_one_selector_node() {
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
        assert_eq!(plan.stages()[0].rows_node(), plan.stages()[1].rows_node());
        assert!(!plan.stages()[0].netted() && !plan.stages()[1].netted());

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
    /// — rows, selector-cache counters, the durable run's WAL appends,
    /// and the sharded run's placement decision.
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
        assert_eq!(stree.children.len(), plan.stages().len());
        // (C) has an algebraic form but an undischargeable read conflict:
        // the profile records the coordinator-fallback placement and
        // names the conflicting column, and EXPLAIN predicts the same.
        let names_salary = |notes: &[String]| {
            notes
                .iter()
                .any(|n| n.contains("coordinator") && n.contains("Salary"))
        };
        assert!(
            names_salary(&stree.children[2].notes),
            "stage (C) must record its placement decision and why: {:?}",
            stree.children[2].notes
        );
        assert!(
            names_salary(&plan.explain().children[2].notes),
            "EXPLAIN must predict stage (C)'s refusal and why"
        );

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
        let wal_records: u64 = dtree
            .children
            .iter()
            .filter_map(|c| c.find("wal").and_then(|w| w.metric("records")))
            .sum();
        assert_eq!(
            wal_records,
            store.stats().records,
            "the per-stage WAL children must account for every appended record"
        );
        assert!(wal_records > 0, "the program must have logged something");
    }
}
