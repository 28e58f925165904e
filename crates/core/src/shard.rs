//! Coloring-certified sharded execution: per-shard worker loops over a
//! hash-partitioned object base.
//!
//! Sequential application `M(I, t₁…tₙ)` funnels every receiver through one
//! maintained view and one transaction stream; Section 6's observation is
//! that receivers whose effects cannot interact may as well run apart.
//! This module makes that operational *without* giving up the sequential
//! semantics:
//!
//! 1. **Partition.** [`shard_of`] hash-partitions the object base: every
//!    object belongs to exactly one of `n` shards (Fibonacci hash over
//!    `(class, index)`, deterministic across runs and platforms).
//!
//! 2. **Certify.** [`certify`] computes the method's syntactic footprint
//!    ([`method_footprint`]) and checks the *shard-containment rule*: the
//!    properties written (always the receiving object's own edges, by
//!    Section 5.2) must be disjoint from the properties read by non-keep
//!    arms. Keep-pattern reads are pinned to `self` and class relations
//!    are constant under algebraic application, so under this rule every
//!    read either stays inside the receiver's shard or touches state no
//!    receiver writes — two receivers in different shards commute, and a
//!    shard evaluates against a pruned replica without seeing the others'
//!    writes. The rule is finer than coloring simplicity (a plain
//!    overwrite like `favorite_bar` is shard-safe yet order-dependent) and
//!    incomparable to order independence (the Example 6.4 transitive-
//!    closure method is order-independent on key sets but reads what it
//!    writes, so it is correctly refused).
//!
//! 3. **Plan.** [`ShardPlan`] assigns each receiver [`Assignment::Local`]
//!    when the method is certified and *all* its component objects land in
//!    one shard, else [`Assignment::Coordinated`]. Coordinated receivers
//!    run on the ordered coordinator path — the exact sequential body —
//!    and act as barriers between parallel segments, so results stay
//!    bit-identical to [`AlgebraicMethod::apply_sequence_viewed`] whatever
//!    the mix.
//!
//! 4. **Execute.** Each segment of consecutive Local receivers fans out
//!    over [`receivers_rt::shard_map`] worker loops. A worker owns a
//!    **pruned replica** of the database — written properties filtered to
//!    its shard's rows, everything else shared-schema full copies — so a
//!    point edit costs `O(E/n)` instead of `O(E)`: the per-shard
//!    `TupleSet` delta buffers that make maintenance scale with the shard,
//!    not the instance. Workers record the delta ops their receivers would
//!    have logged under an observed transaction (identical op order by
//!    construction), and never touch shared state.
//!
//! 5. **Merge.** After the join, per-shard logs are replayed into the real
//!    instance and view with [`redo_ops`] — shard-by-shard, one netted
//!    [`DeltaObserver::batch_end`] per shard — and appended to the
//!    sequence log, preserving the whole-sequence rollback contract: any
//!    failure (reported at the *lowest* global receiver index, matching
//!    the sequential first-failure semantics) rolls everything back via
//!    [`undo_ops`].
//!
//! **Determinism argument.** Within a shard, one worker processes
//! receivers in sequence order. Across shards, writes are keyed by the
//! receiving object (write locality, falsifiable via
//! `receivers_coloring::infer::check_write_locality`), so distinct shards
//! edit disjoint `(src, prop)` row groups; the instance's `EdgeIndex` and
//! the view's `TupleSet`s are insertion-order-insensitive containers, so
//! replaying shard 0's log before shard 1's yields the same final state as
//! the sequential interleaving. The differential suite
//! (`tests/shard_differential.rs`) pins bit-identical instance hash,
//! `EdgeIndex`, and maintained view against the sequential path across
//! hundreds of seeded cases, forced fallbacks and mid-sequence rollbacks
//! included.

use receivers_objectbase::{
    redo_ops, undo_ops, DeltaObserver, DeltaOp, Edge, InPlaceOutcome, Instance, InstanceTxn, Oid,
    PropId, Receiver, UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::view::DatabaseView;
use receivers_relalg::RelName;
use receivers_rt as rt;

use crate::algebraic::AlgebraicMethod;
use crate::coloring_bridge::{method_footprint, MethodFootprint};

obs::counter!(C_PLANS, "core.shard.plans");
obs::counter!(C_LOCAL, "core.shard.local_receivers");
obs::counter!(C_COORDINATED, "core.shard.coordinated_receivers");
obs::counter!(C_SEGMENTS, "core.shard.segments");
obs::counter!(C_MERGED_OPS, "core.shard.merged_ops");
obs::counter!(C_ROLLBACKS, "core.shard.rollbacks");
obs::counter!(C_REPLICA_BUILDS, "core.shard.replica_builds");
obs::counter!(C_DISCHARGED, "core.shard.sat.discharged_conflicts");
obs::counter!(C_UPGRADED, "core.shard.sat.upgraded_receivers");

/// The shard of object `o` under an `n`-way partition: a Fibonacci hash of
/// `(class, index)`, so consecutive indices of one class spread across
/// shards. Deterministic — plans, benches and differential runs all agree
/// on the partition.
pub fn shard_of(o: Oid, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let key = (u64::from(o.class.0) << 32) | u64::from(o.index);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// The shard-containment certificate of a method: its footprint plus the
/// conflict set `reads ∩ writes`. Empty conflicts ⇒ any two receivers in
/// different shards commute and shard-local evaluation is exact (see the
/// module docs for the argument).
///
/// A conflict is a *syntactic* over-approximation: the footprint records
/// that a written property is also read, not *where* it is read. A finer
/// analysis that proves every read of a conflicting property is pinned to
/// the receiving row itself — the SQL layer's satisfiability solver does
/// this for compiled cursor updates (`receivers_sql::sat`) — may
/// [`discharge`](Self::discharge) the conflict: the home replica holds
/// the receiving row's current value (the worker keeps it current in
/// sequence order), so a self-pinned read is exact even while other
/// shards rewrite *their* rows of the same property in parallel.
#[derive(Debug, Clone)]
pub struct ShardCertificate {
    /// The syntactic read/write footprint the verdict is computed from.
    pub footprint: MethodFootprint,
    /// Properties both written and read by a non-keep arm — each one a
    /// channel through which one receiver's effect could reach another's
    /// evaluation.
    pub conflicts: std::collections::BTreeSet<PropId>,
    /// Conflicts an external proof has discharged: every read of the
    /// property is pinned to the receiving row, so the channel cannot
    /// carry another receiver's effect. Always a subset of `conflicts`.
    pub discharged: std::collections::BTreeSet<PropId>,
}

impl ShardCertificate {
    /// `true` when every receiver whose components share a shard may run
    /// on that shard's worker loop: no conflict remains undischarged.
    pub fn shard_safe(&self) -> bool {
        self.conflicts.is_subset(&self.discharged)
    }

    /// Discharge a conflict on the strength of an external self-pinned-
    /// reads proof. Returns `false` (and records nothing) for a property
    /// that is not in conflict — discharging it would be meaningless.
    pub fn discharge(&mut self, prop: PropId) -> bool {
        if !self.conflicts.contains(&prop) {
            return false;
        }
        if self.discharged.insert(prop) {
            C_DISCHARGED.incr();
        }
        true
    }

    /// The conflicts still blocking sharded execution.
    pub fn undischarged(&self) -> impl Iterator<Item = PropId> + '_ {
        self.conflicts
            .iter()
            .filter(|p| !self.discharged.contains(p))
            .copied()
    }
}

/// Certify `method` for sharded execution. Purely syntactic — `O(|method|)`.
pub fn certify(method: &AlgebraicMethod) -> ShardCertificate {
    let footprint = method_footprint(method);
    let conflicts = footprint
        .reads
        .intersection(&footprint.writes)
        .copied()
        .collect();
    ShardCertificate {
        footprint,
        conflicts,
        discharged: std::collections::BTreeSet::new(),
    }
}

/// Where one receiver of the order executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// On the worker loop of this shard (all components co-sharded, method
    /// certified).
    Local(u32),
    /// On the ordered coordinator path — the sequential body, acting as a
    /// barrier between parallel segments.
    Coordinated,
}

/// The planner's verdict for one receiver order: shard count plus one
/// [`Assignment`] per receiver, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    assignments: Vec<Assignment>,
}

impl ShardPlan {
    /// Plan `order` for `method` over `shards` shards: receivers go Local
    /// exactly when the certificate allows it and all their component
    /// objects (receiver and arguments) fall in the receiving object's
    /// shard.
    pub fn new(method: &AlgebraicMethod, order: &[Receiver], shards: usize) -> Self {
        Self::with_certificate(&certify(method), order, shards)
    }

    /// [`ShardPlan::new`] with a precomputed certificate — the planner is
    /// on the per-wave path of the [`ShardedExecutor`], which certifies
    /// its method once at construction.
    pub fn with_certificate(
        certificate: &ShardCertificate,
        order: &[Receiver],
        shards: usize,
    ) -> Self {
        C_PLANS.incr();
        let shards = shards.max(1);
        let safe = certificate.shard_safe();
        let assignments = order
            .iter()
            .map(|t| {
                if !safe {
                    return Assignment::Coordinated;
                }
                let home = shard_of(t.receiving_object(), shards);
                if t.objects().iter().all(|&o| shard_of(o, shards) == home) {
                    Assignment::Local(home as u32)
                } else {
                    Assignment::Coordinated
                }
            })
            .collect();
        Self {
            shards,
            assignments,
        }
    }

    /// [`ShardPlan::with_certificate`] with the **home-replica upgrade**:
    /// every receiver of a shard-safe method goes `Local` on its
    /// receiving object's shard, co-sharded arguments or not.
    ///
    /// The co-shard rule of [`ShardPlan::with_certificate`] is purely
    /// conservative for a shard-safe method: argument objects are only
    /// ever *values* and selection keys against class relations and
    /// unwritten properties — both whole on every replica — while reads
    /// of written properties are pinned to the receiving row (keep arms
    /// by construction, discharged conflicts by proof), which the home
    /// replica holds and keeps current. So evaluating on the receiving
    /// object's home shard is exact wherever the arguments live, and the
    /// cross-shard merge stays disjoint because writes are keyed by the
    /// receiving object. Opt-in rather than the default so existing
    /// plans (and their differential baselines) are unchanged unless a
    /// caller asks for the upgrade.
    pub fn with_certificate_upgraded(
        certificate: &ShardCertificate,
        order: &[Receiver],
        shards: usize,
    ) -> Self {
        C_PLANS.incr();
        let shards = shards.max(1);
        let safe = certificate.shard_safe();
        let assignments = order
            .iter()
            .map(|t| {
                if !safe {
                    return Assignment::Coordinated;
                }
                let home = shard_of(t.receiving_object(), shards);
                if !t.objects().iter().all(|&o| shard_of(o, shards) == home) {
                    C_UPGRADED.incr();
                }
                Assignment::Local(home as u32)
            })
            .collect();
        Self {
            shards,
            assignments,
        }
    }

    /// Number of shards this plan partitions over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-receiver assignments, in order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Force receiver `idx` onto the coordinator path — how tests and
    /// benches inject cross-shard fallbacks at will.
    pub fn coordinate(&mut self, idx: usize) {
        self.assignments[idx] = Assignment::Coordinated;
    }

    /// How many receivers run shard-locally.
    pub fn local_count(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| matches!(a, Assignment::Local(_)))
            .count()
    }

    /// How many receivers fall back to the coordinator.
    pub fn coordinated_count(&self) -> usize {
        self.assignments.len() - self.local_count()
    }
}

/// Execution knobs for [`apply_sharded`].
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Shard count; `None` follows [`rt::num_threads`] so the partition
    /// matches the worker pool.
    pub shards: Option<usize>,
    /// The worker-loop/batch-scheduler tuning, forwarded to
    /// [`rt::shard_map`].
    pub pool: rt::ShardPoolConfig,
    /// Plan with [`ShardPlan::with_certificate_upgraded`]: shard-safe
    /// methods run every receiver on its receiving object's home shard
    /// instead of demoting cross-shard receivers to the coordinator.
    /// Off by default so existing plans (and their differential
    /// baselines) keep the conservative co-shard rule.
    pub upgrade: bool,
}

/// One shard's contribution to a segment: the concatenated delta log of
/// its receivers (in order), or the first failure.
#[derive(Default)]
struct ShardRun {
    log: Vec<DeltaOp>,
    err: Option<(usize, String)>,
    /// Receivers this lane applied.
    receivers: u64,
    /// Batches pulled off the run queue.
    batches: u64,
    /// Nanoseconds parked on the run queue (see [`rt::ShardTasks::wait_ns`]).
    wait_ns: u64,
    /// Wall nanoseconds inside the worker closure (0 when untimed).
    busy_ns: u64,
}

/// One shard lane's accumulated measurements across a wave's segments,
/// reported by [`ShardedExecutor::apply_logged_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLaneStats {
    /// Shard index the lane served.
    pub shard: usize,
    /// Receivers applied on this lane.
    pub receivers: u64,
    /// Batches the lane pulled off its run queue.
    pub batches: u64,
    /// Nanoseconds the lane spent parked waiting for the scheduler to
    /// feed its shard (0 unless metrics or profiling are enabled).
    pub wait_ns: u64,
    /// Wall nanoseconds the lane's worker closure ran for.
    pub busy_ns: u64,
}

/// Wave-level measurements from [`ShardedExecutor::apply_logged_stats`]:
/// how the order split between the worker lanes and the ordered
/// coordinator path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Receivers that ran on per-shard worker lanes.
    pub local_receivers: u64,
    /// Receivers that fell back to the ordered coordinator path.
    pub coordinated_receivers: u64,
    /// Maximal Local segments fanned out over the pool.
    pub segments: u64,
    /// Per-shard lane measurements, indexed by shard.
    pub lanes: Vec<ShardLaneStats>,
}

/// Apply `method` to each receiver of `order` in turn, semantically
/// identical to [`AlgebraicMethod::apply_sequence_viewed`] — same final
/// instance, view, and outcome, bit for bit — but with certified receivers
/// executed on per-shard worker loops. Plans with [`ShardPlan::new`]; use
/// [`apply_planned`] to supply a hand-built plan.
pub fn apply_sharded(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    order: &[Receiver],
    cfg: &ShardConfig,
) -> InPlaceOutcome {
    let shards = cfg.shards.unwrap_or_else(rt::num_threads);
    let plan = if cfg.upgrade {
        ShardPlan::with_certificate_upgraded(&certify(method), order, shards)
    } else {
        ShardPlan::new(method, order, shards)
    };
    apply_planned(method, instance, view, order, &plan, cfg)
}

/// Convenience for benches and tests: build the view, then
/// [`apply_sharded`] — the sharded counterpart of
/// [`UpdateMethod::apply_in_place_sequence`].
pub fn apply_sequence_sharded(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    order: &[Receiver],
    cfg: &ShardConfig,
) -> InPlaceOutcome {
    if order.is_empty() {
        return InPlaceOutcome::Applied;
    }
    let mut view = DatabaseView::new(instance);
    apply_sharded(method, instance, &mut view, order, cfg)
}

/// [`apply_sharded`] with an explicit plan (must cover `order` exactly).
pub fn apply_planned(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    order: &[Receiver],
    plan: &ShardPlan,
    cfg: &ShardConfig,
) -> InPlaceOutcome {
    assert_eq!(
        plan.assignments.len(),
        order.len(),
        "plan must cover the order"
    );
    let _span = obs::span("core.shard.apply");
    let mut seq_log: Vec<DeltaOp> = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let step = match plan.assignments[i] {
            Assignment::Coordinated => {
                C_COORDINATED.incr();
                apply_coordinated(method, instance, view, &order[i], &mut seq_log).map(|()| i + 1)
            }
            Assignment::Local(_) => {
                let j = (i..order.len())
                    .find(|&k| !matches!(plan.assignments[k], Assignment::Local(_)))
                    .unwrap_or(order.len());
                run_segment(method, instance, view, order, i..j, plan, cfg, &mut seq_log)
                    .map(|()| j)
            }
        };
        match step {
            Ok(next) => i = next,
            Err(msg) => {
                C_ROLLBACKS.incr();
                undo_ops(instance, view, &seq_log);
                return InPlaceOutcome::Undefined(msg);
            }
        }
    }
    InPlaceOutcome::Applied
}

/// The ordered coordinator path: one receiver through the exact
/// sequential body (validate, evaluate on the shared view, edit under an
/// observed transaction).
fn apply_coordinated(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    t: &Receiver,
    seq_log: &mut Vec<DeltaOp>,
) -> Result<(), String> {
    t.validate(method.signature(), instance)
        .map_err(|e| e.to_string())?;
    let results = method
        .evaluate_on(view.database(), t)
        .map_err(|e| e.to_string())?;
    let recv = t.receiving_object();
    let mut txn = InstanceTxn::begin_observed(instance, view);
    for (prop, values) in results {
        let old: Vec<Oid> = txn.instance().successors(recv, prop).collect();
        for v in old {
            txn.remove_edge(&Edge::new(recv, prop, v));
        }
        for v in values {
            txn.add_edge(Edge::new(recv, prop, v))
                .expect("typed evaluation only yields objects of I");
        }
    }
    txn.commit_into(seq_log);
    Ok(())
}

/// An instance-only delta sink for paths that maintain no full relational
/// view (the [`ShardedExecutor`]'s merge and rollback).
struct NoView;

impl DeltaObserver for NoView {
    fn applied(&mut self, _op: &DeltaOp) {}
    fn undone(&mut self, _op: &DeltaOp) {}
    fn batch_end(&mut self) {}
}

/// Reusable old/new successor buffers for the per-statement netted diff —
/// one per worker, so the steady-state path (nothing changed) allocates
/// nothing at all.
#[derive(Default)]
struct DiffScratch {
    old: Vec<Oid>,
    new: Vec<Oid>,
}

/// Apply one certified receiver against a shard replica: validate,
/// evaluate, then per statement append the **netted** delta (current
/// successors not in the new value are removed, new values not current
/// are added, both ascending) to `log` and keep the replica current.
///
/// Statements are applied to the replica one at a time, so a later
/// statement's current-value probe sees an earlier statement's edits —
/// exactly the live-transaction semantics of the sequential body. The
/// netted log reaches the same final state as the sequential
/// remove-all/add-all op stream (removing then re-adding an edge is the
/// identity on the instance), which is what makes the merged result
/// bit-identical while the real instance consumes `O(changed)` ops
/// instead of `O(rewritten)`.
fn apply_on_replica(
    method: &AlgebraicMethod,
    instance: &Instance,
    replica: &mut DatabaseView,
    t: &Receiver,
    log: &mut Vec<DeltaOp>,
    scratch: &mut DiffScratch,
) -> Result<(), String> {
    t.validate(method.signature(), instance)
        .map_err(|e| e.to_string())?;
    let results = method
        .evaluate_on(replica.database(), t)
        .map_err(|e| e.to_string())?;
    let recv = t.receiving_object();
    for (prop, values) in results {
        let DiffScratch { old, new } = scratch;
        old.clear();
        old.extend(replica.database().prop_successors(prop, recv));
        new.clear();
        new.extend(values);
        // A unary result column is already canonical (ascending,
        // distinct); guard the invariant rather than assume it.
        if !new.windows(2).all(|w| w[0] < w[1]) {
            new.sort_unstable();
            new.dedup();
        }
        if old == new {
            continue;
        }
        // Two-pointer set difference over the sorted buffers: removes
        // first, then adds, both ascending.
        let start = log.len();
        let (mut a, mut b) = (0, 0);
        while a < old.len() {
            match new.get(b) {
                Some(&n) if n < old[a] => b += 1,
                Some(&n) if n == old[a] => {
                    a += 1;
                    b += 1;
                }
                _ => {
                    log.push(DeltaOp::RemovedEdge(Edge::new(recv, prop, old[a])));
                    a += 1;
                }
            }
        }
        let (mut a, mut b) = (0, 0);
        while b < new.len() {
            match old.get(a) {
                Some(&o) if o < new[b] => a += 1,
                Some(&o) if o == new[b] => {
                    a += 1;
                    b += 1;
                }
                _ => {
                    log.push(DeltaOp::AddedEdge(Edge::new(recv, prop, new[b])));
                    b += 1;
                }
            }
        }
        for op in &log[start..] {
            replica.applied(op);
        }
        replica.batch_end();
    }
    Ok(())
}

/// The worker's replica of the shared database: written properties pruned
/// to the shard's row group, everything else a plain copy. `O(E)` to
/// build, amortized over the shard's receivers; thereafter every point
/// edit moves `O(E/n)` instead of `O(E)`.
fn pruned_database(base: &Database, written: &[PropId], shard: usize, shards: usize) -> Database {
    let mut db = base.clone();
    for &p in written {
        let Ok(rel) = db.relation(RelName::Prop(p)) else {
            continue;
        };
        let mut dels: Vec<Oid> = Vec::new();
        for t in rel.tuples() {
            if shard_of(t[0], shards) != shard {
                dels.extend_from_slice(&t[..2]);
            }
        }
        if !dels.is_empty() {
            db.apply_edge_edits(p, &[], &dels)
                .expect("pruned rows come from the relation itself");
        }
    }
    db
}

/// One maximal run of Local receivers: fan out over the shard worker
/// loops, then deterministically merge the per-shard logs.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    method: &AlgebraicMethod,
    instance: &mut Instance,
    view: &mut DatabaseView,
    order: &[Receiver],
    range: std::ops::Range<usize>,
    plan: &ShardPlan,
    cfg: &ShardConfig,
    seq_log: &mut Vec<DeltaOp>,
) -> Result<(), String> {
    C_SEGMENTS.incr();
    let shards = plan.shards;
    let mut shard_items: Vec<Vec<(usize, &Receiver)>> = vec![Vec::new(); shards];
    for gi in range {
        let Assignment::Local(s) = plan.assignments[gi] else {
            unreachable!("segment contains only Local receivers");
        };
        shard_items[s as usize].push((gi, &order[gi]));
    }
    let written = method.updated_properties();
    let base = view.database();
    let inst: &Instance = instance;

    // Spawning workers for a handful of receivers costs more than the
    // receivers themselves (coordinated barriers can chop an order into
    // many short segments); short segments run inline on the caller.
    let total: usize = shard_items.iter().map(Vec::len).sum();
    let pool = if total < 64 {
        cfg.pool.clone().with_workers(1)
    } else {
        cfg.pool.clone()
    };

    let runs = rt::shard_map(shard_items, &pool, |shard, tasks| {
        // Side-effect free: the worker builds its pruned replica lazily,
        // evaluates against it, and records the netted delta its
        // receivers produce — per shard, in sequence order.
        let mut replica: Option<DatabaseView> = None;
        let mut log: Vec<DeltaOp> = Vec::new();
        let mut scratch = DiffScratch::default();
        while let Some(batch) = tasks.next_batch() {
            for (gi, t) in batch {
                let replica = replica.get_or_insert_with(|| {
                    DatabaseView::from_database(pruned_database(base, &written, shard, shards))
                });
                if let Err(msg) = apply_on_replica(method, inst, replica, t, &mut log, &mut scratch)
                {
                    return ShardRun {
                        log: Vec::new(),
                        err: Some((gi, msg)),
                        ..ShardRun::default()
                    };
                }
                C_LOCAL.incr();
            }
        }
        ShardRun {
            log,
            err: None,
            ..ShardRun::default()
        }
    });

    // Sequential first-failure semantics: certified receivers succeed or
    // fail identically on the shard and coordinator paths, so the lowest
    // failing global index is exactly the receiver the sequential
    // application would have stopped at.
    if let Some((_, msg)) = runs
        .iter()
        .filter_map(|r| r.err.as_ref())
        .min_by_key(|(gi, _)| *gi)
    {
        return Err(msg.clone());
    }

    // Deterministic merge: shard order, one netted batch_end per shard.
    // Cross-shard logs edit disjoint (src, prop) row groups, so this
    // equals the sequential interleaving on the order-insensitive
    // containers (see the module docs).
    let _merge = obs::span("core.shard.merge");
    for run in runs {
        if run.log.is_empty() {
            continue;
        }
        C_MERGED_OPS.add(run.log.len() as u64);
        redo_ops(instance, view, &run.log);
        view.batch_end();
        seq_log.extend_from_slice(&run.log);
    }
    Ok(())
}

/// Persistent sharded execution of one method: the per-shard pruned
/// replicas outlive a single [`apply`](ShardedExecutor::apply), so a
/// stream of receiver sequences — reconciliation waves, incremental
/// loads — pays the `O(E)` replica construction once and thereafter only
/// `O(changed)` per wave.
///
/// This is the steady-state counterpart of the one-shot
/// [`apply_sharded`]: same certification, same planner, same netted
/// per-shard delta logs, same bit-identical final instance — but the
/// executor maintains **no full relational view at all**. Certified
/// receivers (local *and* coordinated) evaluate against the receiving
/// object's home replica, which is exact because a certified method reads
/// written properties only through keep arms pinned to `self` (rows the
/// home replica holds), and everything else it reads — class relations,
/// read-only properties — is never pruned and never changes under the
/// method. Cross-shard receivers still run on the ordered coordinator
/// path (caller thread, between segments), preserving the barrier
/// semantics.
///
/// **Stewardship contract:** between applies the executor assumes the
/// instance is not mutated behind its back — replicas are maintained
/// incrementally from the deltas the executor itself produces. After any
/// out-of-band mutation call [`invalidate`](ShardedExecutor::invalidate)
/// to force a rebuild on the next apply. A failed apply rolls the
/// instance back and invalidates automatically.
///
/// Methods that do not certify ([`ShardCertificate::shard_safe`] false)
/// degrade to the plain sequential path inside `apply` — correct, just
/// not sharded.
pub struct ShardedExecutor<'m> {
    method: &'m AlgebraicMethod,
    certificate: ShardCertificate,
    written: Vec<PropId>,
    shards: usize,
    pool: rt::ShardPoolConfig,
    upgrade: bool,
    replicas: Vec<std::sync::Mutex<Option<DatabaseView>>>,
    /// True while an apply is in flight; still true on the next apply
    /// only if the previous one panicked out mid-run, in which case the
    /// replicas are untrusted and rebuilt.
    dirty: bool,
}

impl<'m> ShardedExecutor<'m> {
    /// Build an executor for `method` under `cfg` (shard count defaults
    /// to [`rt::num_threads`]). Replicas are built lazily on first use.
    pub fn new(method: &'m AlgebraicMethod, cfg: &ShardConfig) -> Self {
        Self::with_certificate(method, certify(method), cfg)
    }

    /// [`ShardedExecutor::new`] with an externally refined certificate —
    /// typically [`certify`]'s output with conflicts discharged by the
    /// SQL layer's self-pinned-reads proofs. The caller vouches for every
    /// discharge: a wrongly discharged conflict silently diverges from
    /// the sequential semantics.
    pub fn with_certificate(
        method: &'m AlgebraicMethod,
        certificate: ShardCertificate,
        cfg: &ShardConfig,
    ) -> Self {
        let shards = cfg.shards.unwrap_or_else(rt::num_threads).max(1);
        Self {
            method,
            certificate,
            written: method.updated_properties(),
            shards,
            pool: cfg.pool.clone(),
            upgrade: cfg.upgrade,
            replicas: (0..shards).map(|_| std::sync::Mutex::new(None)).collect(),
            dirty: false,
        }
    }

    /// The certificate the executor plans with.
    pub fn certificate(&self) -> &ShardCertificate {
        &self.certificate
    }

    /// Number of shards the executor partitions over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Drop all replicas; the next apply rebuilds them from the instance.
    /// Required after any mutation of the instance outside this executor.
    pub fn invalidate(&mut self) {
        for cell in &self.replicas {
            *lock_replica(cell) = None;
        }
    }

    /// How many replicas are currently built — persistence is observable:
    /// a second apply over the same shards builds nothing.
    pub fn replicas_built(&self) -> usize {
        self.replicas
            .iter()
            .filter(|c| lock_replica(c).is_some())
            .count()
    }

    /// Build every missing replica from the instance: one `O(E)` shared
    /// relational encoding, then a near-free copy-on-write clone plus a
    /// written-property prune per shard.
    fn ensure_replicas(&mut self, instance: &Instance) {
        if self.dirty {
            self.invalidate();
        }
        self.dirty = true;
        if self.replicas_built() == self.shards {
            return;
        }
        let base = Database::from_instance(instance);
        for (shard, cell) in self.replicas.iter().enumerate() {
            let mut slot = lock_replica(cell);
            if slot.is_none() {
                C_REPLICA_BUILDS.incr();
                *slot = Some(DatabaseView::from_database(pruned_database(
                    &base,
                    &self.written,
                    shard,
                    self.shards,
                )));
            }
        }
    }

    /// Apply `method` to each receiver of `order` in turn — semantically
    /// identical to the sequential path on the instance (same final
    /// instance, same outcome), with certified receivers on per-shard
    /// worker loops and replicas carried over from previous applies.
    pub fn apply(&mut self, instance: &mut Instance, order: &[Receiver]) -> InPlaceOutcome {
        if order.is_empty() {
            return InPlaceOutcome::Applied;
        }
        if !self.certificate.shard_safe() {
            // Uncertified methods read what they write: no replica is
            // sound, so run the plain sequential reference path.
            return self.method.apply_in_place_sequence(instance, order);
        }
        self.apply_logged(instance, order).0
    }

    /// The certified wave body behind [`ShardedExecutor::apply`]; returns
    /// the wave's delta log alongside the outcome (empty unless
    /// `Applied`). Public so program executors (the `sql::plan` sharded
    /// driver) can replay the log into their own maintained views; the
    /// caller must hold a shard-safe certificate — this body runs
    /// certified receivers on worker loops without the `apply` fallback
    /// check.
    pub fn apply_logged(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> (InPlaceOutcome, Vec<DeltaOp>) {
        self.apply_logged_inner(instance, order, None)
    }

    /// [`apply_logged`](Self::apply_logged), additionally measuring the
    /// wave: per-lane receiver/batch counts, queue waits, and busy time,
    /// plus the local/coordinated split. Identical results; the only
    /// extra cost is one clock read per lane per segment.
    pub fn apply_logged_stats(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
    ) -> (InPlaceOutcome, Vec<DeltaOp>, WaveStats) {
        let mut stats = WaveStats::default();
        let (outcome, log) = self.apply_logged_inner(instance, order, Some(&mut stats));
        (outcome, log, stats)
    }

    fn apply_logged_inner(
        &mut self,
        instance: &mut Instance,
        order: &[Receiver],
        mut stats: Option<&mut WaveStats>,
    ) -> (InPlaceOutcome, Vec<DeltaOp>) {
        let _span = obs::span("core.shard.apply");
        let plan = if self.upgrade {
            ShardPlan::with_certificate_upgraded(&self.certificate, order, self.shards)
        } else {
            ShardPlan::with_certificate(&self.certificate, order, self.shards)
        };
        self.ensure_replicas(instance);

        let mut seq_log: Vec<DeltaOp> = Vec::new();
        let mut i = 0;
        let mut failed: Option<String> = None;
        while i < order.len() {
            match plan.assignments[i] {
                Assignment::Coordinated => {
                    C_COORDINATED.incr();
                    if let Some(st) = stats.as_deref_mut() {
                        st.coordinated_receivers += 1;
                    }
                    let t = &order[i];
                    let home = shard_of(t.receiving_object(), self.shards);
                    let mut slot = lock_replica(&self.replicas[home]);
                    let replica = slot.as_mut().expect("ensure_replicas built every shard");
                    let mut log = Vec::new();
                    let mut scratch = DiffScratch::default();
                    match apply_on_replica(
                        self.method,
                        instance,
                        replica,
                        t,
                        &mut log,
                        &mut scratch,
                    ) {
                        Ok(()) => {
                            redo_ops(instance, &mut NoView, &log);
                            seq_log.extend(log);
                            i += 1;
                        }
                        Err(msg) => {
                            failed = Some(msg);
                            break;
                        }
                    }
                }
                Assignment::Local(_) => {
                    let j = (i..order.len())
                        .find(|&k| !matches!(plan.assignments[k], Assignment::Local(_)))
                        .unwrap_or(order.len());
                    match self.run_persistent_segment(
                        instance,
                        order,
                        i..j,
                        &plan,
                        &mut seq_log,
                        stats.as_deref_mut(),
                    ) {
                        Ok(()) => i = j,
                        Err(msg) => {
                            failed = Some(msg);
                            break;
                        }
                    }
                }
            }
        }
        self.dirty = false;
        match failed {
            None => (InPlaceOutcome::Applied, seq_log),
            Some(msg) => {
                // Whole-sequence rollback; replicas may hold edits from
                // receivers past the failure point, so they are rebuilt
                // on the next apply.
                C_ROLLBACKS.incr();
                undo_ops(instance, &mut NoView, &seq_log);
                self.invalidate();
                (InPlaceOutcome::Undefined(msg), Vec::new())
            }
        }
    }

    /// One maximal run of Local receivers against the persistent
    /// replicas, netted logs merged into the instance in shard order.
    fn run_persistent_segment(
        &self,
        instance: &mut Instance,
        order: &[Receiver],
        range: std::ops::Range<usize>,
        plan: &ShardPlan,
        seq_log: &mut Vec<DeltaOp>,
        stats: Option<&mut WaveStats>,
    ) -> Result<(), String> {
        C_SEGMENTS.incr();
        let mut shard_items: Vec<Vec<(usize, &Receiver)>> = vec![Vec::new(); self.shards];
        for gi in range {
            let Assignment::Local(s) = plan.assignments[gi] else {
                unreachable!("segment contains only Local receivers");
            };
            shard_items[s as usize].push((gi, &order[gi]));
        }
        let total: usize = shard_items.iter().map(Vec::len).sum();
        let pool = if total < 64 {
            self.pool.clone().with_workers(1)
        } else {
            self.pool.clone()
        };
        let method = self.method;
        let replicas = &self.replicas;
        let inst: &Instance = instance;
        let timed = stats.is_some();

        let runs = rt::shard_map(shard_items, &pool, |shard, tasks| {
            let lane_start = timed.then(std::time::Instant::now);
            // Shards are claimed exclusively, so the lock is uncontended;
            // it exists to hand each worker mutable access to its shard's
            // long-lived replica.
            let mut slot = lock_replica(&replicas[shard]);
            let replica = slot.as_mut().expect("ensure_replicas built every shard");
            let mut log: Vec<DeltaOp> = Vec::new();
            let mut scratch = DiffScratch::default();
            let (mut receivers, mut batches) = (0u64, 0u64);
            while let Some(batch) = tasks.next_batch() {
                batches += 1;
                for (gi, t) in batch {
                    if let Err(msg) =
                        apply_on_replica(method, inst, replica, t, &mut log, &mut scratch)
                    {
                        return ShardRun {
                            log: Vec::new(),
                            err: Some((gi, msg)),
                            ..ShardRun::default()
                        };
                    }
                    C_LOCAL.incr();
                    receivers += 1;
                }
            }
            ShardRun {
                log,
                err: None,
                receivers,
                batches,
                wait_ns: tasks.wait_ns(),
                busy_ns: lane_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
            }
        });

        if let Some((_, msg)) = runs
            .iter()
            .filter_map(|r| r.err.as_ref())
            .min_by_key(|(gi, _)| *gi)
        {
            return Err(msg.clone());
        }

        if let Some(st) = stats {
            st.segments += 1;
            if st.lanes.len() != self.shards {
                st.lanes = (0..self.shards)
                    .map(|shard| ShardLaneStats {
                        shard,
                        ..ShardLaneStats::default()
                    })
                    .collect();
            }
            for (lane, run) in st.lanes.iter_mut().zip(&runs) {
                lane.receivers += run.receivers;
                lane.batches += run.batches;
                lane.wait_ns += run.wait_ns;
                lane.busy_ns += run.busy_ns;
                st.local_receivers += run.receivers;
            }
        }

        let _merge = obs::span("core.shard.merge");
        for run in runs {
            if run.log.is_empty() {
                continue;
            }
            C_MERGED_OPS.add(run.log.len() as u64);
            redo_ops(instance, &mut NoView, &run.log);
            seq_log.extend_from_slice(&run.log);
        }
        Ok(())
    }
}

/// Poison-surviving replica lock: a worker panic already aborts the run
/// through the pool, so the replica state behind a poisoned mutex is
/// discarded via `invalidate`, never trusted.
fn lock_replica<T>(cell: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{
        add_bar, delete_bar, favorite_bar, loop_schema, transitive_closure_method,
    };
    use receivers_objectbase::examples::beer_schema;
    use receivers_objectbase::Signature;

    /// A beer instance with `n` drinkers and `n` bars, every drinker
    /// frequenting two bars.
    fn crowd(s: &receivers_objectbase::examples::BeerSchema, n: u32) -> Instance {
        let mut i = Instance::empty(std::sync::Arc::clone(&s.schema));
        for k in 1..=n {
            i.add_object(Oid::new(s.drinker, k));
            i.add_object(Oid::new(s.bar, k));
        }
        for k in 1..=n {
            let d = Oid::new(s.drinker, k);
            i.link(d, s.frequents, Oid::new(s.bar, k)).unwrap();
            i.link(d, s.frequents, Oid::new(s.bar, (k % n) + 1))
                .unwrap();
        }
        i
    }

    fn receivers(s: &receivers_objectbase::examples::BeerSchema, n: u32) -> Vec<Receiver> {
        (1..=n)
            .map(|k| {
                Receiver::new(vec![
                    Oid::new(s.drinker, k),
                    Oid::new(s.bar, (n + 1 - k).max(1)),
                ])
            })
            .collect()
    }

    fn cfg(shards: usize, workers: usize) -> ShardConfig {
        ShardConfig {
            shards: Some(shards),
            pool: rt::ShardPoolConfig::default()
                .with_workers(workers)
                .with_batch_size(4),
            ..ShardConfig::default()
        }
    }

    /// The certificate: keep-pattern and blind-overwrite methods are
    /// shard-safe; methods that read what they write are refused —
    /// including the order-independent transitive closure of Example 6.4,
    /// whose sharded execution would genuinely diverge.
    #[test]
    fn certificate_separates_footprint_not_order_independence() {
        let s = beer_schema();
        assert!(certify(&add_bar(&s)).shard_safe());
        assert!(certify(&favorite_bar(&s)).shard_safe());
        assert!(!certify(&delete_bar(&s)).shard_safe());
        let ls = loop_schema("A", "B");
        assert!(!certify(&transitive_closure_method(&ls)).shard_safe());
    }

    /// The discharge API: only real conflicts can be discharged, and
    /// discharging them flips the safety verdict.
    #[test]
    fn discharge_refuses_non_conflicts_and_lifts_real_ones() {
        let s = beer_schema();
        let mut cert = certify(&delete_bar(&s));
        assert!(!cert.shard_safe());
        assert_eq!(cert.undischarged().collect::<Vec<_>>(), vec![s.frequents]);
        assert!(!cert.discharge(s.serves), "serves is not in conflict");
        assert!(cert.discharge(s.frequents));
        assert!(cert.shard_safe());
        assert_eq!(cert.undischarged().count(), 0);
    }

    /// The home-replica upgrade: cross-shard receivers of a shard-safe
    /// method go Local on the receiving object's shard, and the result
    /// stays bit-identical to the sequential path.
    #[test]
    fn upgraded_plans_localize_cross_shard_receivers() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 32);
        let base = ShardPlan::new(&m, &order, 4);
        assert!(base.coordinated_count() > 0, "workload must cross shards");
        let up = ShardPlan::with_certificate_upgraded(&certify(&m), &order, 4);
        assert_eq!(up.coordinated_count(), 0, "everything upgrades to Local");
        for (t, a) in order.iter().zip(up.assignments()) {
            let home = shard_of(t.receiving_object(), 4) as u32;
            assert_eq!(*a, Assignment::Local(home));
        }

        let mut reference = crowd(&s, 32);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 32);
        let mut view = DatabaseView::new(&i);
        let out = apply_planned(&m, &mut i, &mut view, &order, &up, &cfg(4, 2));
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));

        // An unsafe certificate refuses the upgrade wholesale.
        let down = ShardPlan::with_certificate_upgraded(&certify(&delete_bar(&s)), &order, 4);
        assert_eq!(down.local_count(), 0);
    }

    /// `delete_bar` reads the property it writes, but only at the
    /// receiving drinker (see `methods.rs`: `π_f(self ⋈ Df ⋈≠ arg)`), so
    /// the conflict is honestly dischargeable — and the discharged
    /// certificate runs it sharded, bit-identical to sequential, on both
    /// the one-shot planned path and the persistent executor.
    #[test]
    fn discharged_delete_bar_runs_sharded_and_matches_sequential() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=24)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut cert = certify(&m);
        assert!(cert.discharge(s.frequents));

        let mut reference = crowd(&s, 24);
        assert_eq!(
            m.apply_in_place_sequence(&mut reference, &order),
            InPlaceOutcome::Applied
        );

        let plan = ShardPlan::with_certificate_upgraded(&cert, &order, 4);
        assert_eq!(plan.coordinated_count(), 0);
        let mut i = crowd(&s, 24);
        let mut view = DatabaseView::new(&i);
        let out = apply_planned(&m, &mut i, &mut view, &order, &plan, &cfg(4, 2));
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
        i.check_index_consistent();

        let mut j = crowd(&s, 24);
        let mut exec = ShardedExecutor::with_certificate(&m, cert, &cfg(4, 2));
        assert_eq!(exec.apply(&mut j, &order), InPlaceOutcome::Applied);
        assert_eq!(j, reference);
        assert!(
            exec.replicas_built() > 0,
            "the discharged method really ran on replicas, not the sequential fallback"
        );
    }

    #[test]
    fn shard_of_is_a_deterministic_partition() {
        let s = beer_schema();
        for shards in [1usize, 2, 3, 8] {
            for k in 0..200u32 {
                let o = Oid::new(s.drinker, k);
                let sh = shard_of(o, shards);
                assert!(sh < shards);
                assert_eq!(sh, shard_of(o, shards));
            }
        }
        // The hash actually spreads one class across shards.
        let hit: std::collections::BTreeSet<usize> = (0..64)
            .map(|k| shard_of(Oid::new(s.drinker, k), 8))
            .collect();
        assert!(hit.len() >= 4, "poor spread: {hit:?}");
    }

    /// Receivers whose bar argument lands in another shard than the
    /// drinker fall back to the coordinator; same-shard ones stay local.
    #[test]
    fn plans_follow_component_locality() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 32);
        let plan = ShardPlan::new(&m, &order, 4);
        assert_eq!(plan.local_count() + plan.coordinated_count(), 32);
        for (t, a) in order.iter().zip(plan.assignments()) {
            let home = shard_of(t.receiving_object(), 4);
            let co_sharded = t.objects().iter().all(|&o| shard_of(o, 4) == home);
            match a {
                Assignment::Local(sh) => {
                    assert!(co_sharded);
                    assert_eq!(*sh as usize, home);
                }
                Assignment::Coordinated => assert!(!co_sharded),
            }
        }
        // An uncertified method plans everything onto the coordinator.
        let plan = ShardPlan::new(&delete_bar(&s), &order, 4);
        assert_eq!(plan.local_count(), 0);
    }

    /// Bit-identical to the sequential path across shard/worker counts,
    /// for a certified method with mixed local/coordinated receivers.
    #[test]
    fn sharded_apply_matches_sequential() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 24);
        let mut reference = crowd(&s, 24);
        assert_eq!(
            m.apply_in_place_sequence(&mut reference, &order),
            InPlaceOutcome::Applied
        );
        for (shards, workers) in [(1, 1), (2, 2), (4, 2), (7, 3)] {
            let mut i = crowd(&s, 24);
            let mut view = DatabaseView::new(&i);
            let out = apply_sharded(&m, &mut i, &mut view, &order, &cfg(shards, workers));
            assert_eq!(out, InPlaceOutcome::Applied);
            assert_eq!(i, reference, "{shards} shards / {workers} workers");
            assert!(view.matches_rebuild(&i));
            i.check_index_consistent();
        }
    }

    /// Forcing receivers onto the coordinator (the cross-shard fallback
    /// path) must not change the result.
    #[test]
    fn forced_fallbacks_preserve_the_result() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 16);
        let mut reference = crowd(&s, 16);
        m.apply_in_place_sequence(&mut reference, &order);

        let mut plan = ShardPlan::new(&m, &order, 4);
        for idx in (0..order.len()).step_by(3) {
            plan.coordinate(idx);
        }
        let mut i = crowd(&s, 16);
        let mut view = DatabaseView::new(&i);
        let out = apply_planned(&m, &mut i, &mut view, &order, &plan, &cfg(4, 2));
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
    }

    /// A mid-sequence failure (ghost receiver) rolls the whole sharded
    /// sequence back — instance and view bit-identical to the start.
    #[test]
    fn mid_sequence_failure_rolls_back_everything() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut order = receivers(&s, 12);
        let ghost = Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]);
        order.insert(8, ghost);

        let mut i = crowd(&s, 12);
        let snapshot = i.clone();
        let mut view = DatabaseView::new(&i);
        let view_snapshot = view.clone();
        let out = apply_sharded(&m, &mut i, &mut view, &order, &cfg(3, 2));
        assert!(matches!(out, InPlaceOutcome::Undefined(_)));
        assert_eq!(i, snapshot);
        assert_eq!(view, view_snapshot);
        i.check_index_consistent();

        // And the failure message matches the sequential one.
        let mut j = crowd(&s, 12);
        let seq = m.apply_in_place_sequence(&mut j, &order);
        assert_eq!(out, seq);
    }

    /// The persistent executor matches the sequential path wave after
    /// wave, and its replicas survive across applies (no rebuilds after
    /// the first).
    #[test]
    fn executor_matches_sequential_across_waves() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut reference = crowd(&s, 24);
        let mut i = crowd(&s, 24);
        let mut exec = ShardedExecutor::new(&m, &cfg(4, 2));
        // Three waves: fresh updates, a repeat (reconciliation no-ops),
        // and a skewed wave hammering one drinker.
        let hot: Vec<Receiver> = (1..=8)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, 3), Oid::new(s.bar, k)]))
            .collect();
        for wave in [receivers(&s, 24), receivers(&s, 24), hot] {
            assert_eq!(
                m.apply_in_place_sequence(&mut reference, &wave),
                InPlaceOutcome::Applied
            );
            assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
            assert_eq!(i, reference);
            i.check_index_consistent();
        }
        assert_eq!(exec.replicas_built(), 4, "replicas persist across waves");
    }

    /// A failing wave rolls the instance back and invalidates the
    /// replicas; the executor keeps working afterwards.
    #[test]
    fn executor_rolls_back_and_recovers() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut i = crowd(&s, 12);
        let mut exec = ShardedExecutor::new(&m, &cfg(3, 2));
        assert_eq!(
            exec.apply(&mut i, &receivers(&s, 12)),
            InPlaceOutcome::Applied
        );
        let snapshot = i.clone();

        let mut bad = receivers(&s, 12);
        bad.insert(
            7,
            Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]),
        );
        let out = exec.apply(&mut i, &bad);
        assert!(matches!(out, InPlaceOutcome::Undefined(_)));
        assert_eq!(i, snapshot);
        i.check_index_consistent();
        assert_eq!(exec.replicas_built(), 0, "failed wave drops the replicas");

        // The sequential outcome message coincides.
        let mut j = snapshot.clone();
        assert_eq!(out, m.apply_in_place_sequence(&mut j, &bad));

        // And the next wave works from rebuilt replicas.
        let wave = receivers(&s, 12);
        let mut reference = snapshot.clone();
        m.apply_in_place_sequence(&mut reference, &wave);
        assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
    }

    /// Cross-shard receivers run through the executor's coordinator path
    /// and out-of-band mutations are picked up after `invalidate`.
    #[test]
    fn executor_coordinates_cross_shard_and_invalidates() {
        let s = beer_schema();
        let m = add_bar(&s);
        // Receivers pairing each drinker with every bar: at 3 shards many
        // pairs necessarily cross shards.
        let order: Vec<Receiver> = (1..=6)
            .flat_map(|d| (1..=6).map(move |b| (d, b)))
            .map(|(d, b)| Receiver::new(vec![Oid::new(s.drinker, d), Oid::new(s.bar, b)]))
            .collect();
        let plan = ShardPlan::new(&m, &order, 3);
        assert!(plan.coordinated_count() > 0, "workload must cross shards");

        let mut reference = crowd(&s, 6);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 6);
        let mut exec = ShardedExecutor::new(&m, &cfg(3, 2));
        assert_eq!(exec.apply(&mut i, &order), InPlaceOutcome::Applied);
        assert_eq!(i, reference);

        // Mutate the instance behind the executor's back, then tell it.
        i.link(Oid::new(s.drinker, 1), s.frequents, Oid::new(s.bar, 5))
            .unwrap();
        reference
            .link(Oid::new(s.drinker, 1), s.frequents, Oid::new(s.bar, 5))
            .unwrap();
        exec.invalidate();
        let wave = receivers(&s, 6);
        m.apply_in_place_sequence(&mut reference, &wave);
        assert_eq!(exec.apply(&mut i, &wave), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
    }

    /// An uncertified method through the executor falls back to the
    /// sequential path — same result, replicas untouched.
    #[test]
    fn executor_uncertified_falls_back_to_sequential() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=10)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut reference = crowd(&s, 10);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 10);
        let mut exec = ShardedExecutor::new(&m, &cfg(4, 2));
        assert_eq!(exec.apply(&mut i, &order), InPlaceOutcome::Applied);
        assert_eq!(i, reference);
        assert_eq!(exec.replicas_built(), 0);
    }

    /// An uncertified method degrades to the coordinator path end to end —
    /// still correct, no shard workers involved.
    #[test]
    fn uncertified_methods_run_coordinated_and_match() {
        let s = beer_schema();
        let m = delete_bar(&s);
        let order: Vec<Receiver> = (1..=10)
            .map(|k| Receiver::new(vec![Oid::new(s.drinker, k), Oid::new(s.bar, k)]))
            .collect();
        let mut reference = crowd(&s, 10);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 10);
        let mut view = DatabaseView::new(&i);
        let out = apply_sharded(&m, &mut i, &mut view, &order, &cfg(4, 2));
        assert_eq!(out, InPlaceOutcome::Applied);
        assert_eq!(i, reference);
    }

    /// Fallback-path counters are exported through the metrics registry:
    /// a forced-coordinated run must surface in
    /// `core.shard.coordinated_receivers` (and locals in
    /// `core.shard.local_receivers`).
    #[test]
    fn fallback_counters_are_exported() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 8);

        obs::set_enabled(obs::trace_enabled(), true);
        let before = obs::metrics_snapshot();
        let mut plan = ShardPlan::new(&m, &order, 2);
        plan.coordinate(0);
        let mut i = crowd(&s, 8);
        let mut view = DatabaseView::new(&i);
        let out = apply_planned(&m, &mut i, &mut view, &order, &plan, &cfg(2, 2));
        let after = obs::metrics_snapshot();
        assert_eq!(out, InPlaceOutcome::Applied);

        // Counters are global and other tests run concurrently, so only
        // lower bounds are safe to assert.
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("core.shard.plans") >= 1);
        assert!(delta("core.shard.coordinated_receivers") >= 1);
        assert!(
            delta("core.shard.coordinated_receivers") + delta("core.shard.local_receivers") >= 8
        );
    }

    /// Signature sanity: receivers with arguments of the wrong class are
    /// rejected identically on both paths.
    #[test]
    fn invalid_receivers_fail_like_sequential() {
        let s = beer_schema();
        let m = add_bar(&s);
        let bad = vec![Receiver::new(vec![Oid::new(s.bar, 1), Oid::new(s.bar, 2)])];
        let mut i = crowd(&s, 4);
        let mut j = i.clone();
        let seq = m.apply_in_place_sequence(&mut i, &bad);
        let mut view = DatabaseView::new(&j);
        let shard = apply_sharded(&m, &mut j, &mut view, &bad, &cfg(2, 2));
        assert_eq!(seq, shard);
        assert!(matches!(shard, InPlaceOutcome::Undefined(_)));
    }

    // Keep the unused Signature import meaningful for rustc.
    #[allow(dead_code)]
    fn _sig_used(s: Signature) -> Signature {
        s
    }
}
