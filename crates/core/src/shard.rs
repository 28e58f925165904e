//! Coloring-certified sharded execution: the library's sharded engine,
//! per-shard worker loops over a hash-partitioned object base.
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
//!    writes, so it is correctly refused). A [`ShardedExecutor`] is only
//!    ever built over a shard-safe certificate: its constructors refuse
//!    any other, naming the undischarged conflicts.
//!
//! 3. **Place.** Every receiver runs on its receiving object's *home*
//!    shard, wherever its arguments live. This is the **home-replica
//!    lemma**: argument objects of a shard-safe method are only ever
//!    values and selection keys against class relations and unwritten
//!    properties — whole on every replica — while reads of written
//!    properties are pinned to the receiving row, which the home replica
//!    holds and keeps current in sequence order. So evaluating a receiver
//!    against its home replica gives exactly what sequential application
//!    would at that position.
//!
//! 4. **Execute.** A wave fans out over [`receivers_rt::shard_map`] worker
//!    loops, which claim whole shards. The worker that claims a shard gets
//!    its receivers together with `&mut` its **pruned replica** of the
//!    database — written properties filtered to its shard's rows,
//!    everything else shared-schema full copies — so a point edit costs
//!    `O(E/n)` instead of `O(E)`. Workers record the netted delta ops of
//!    their receivers and never touch shared state.
//!
//! 5. **Merge, or nothing.** After the join the lowest failing global
//!    receiver index, if any, is the wave's outcome — the receiver the
//!    sequential application would have stopped at — and nothing is
//!    merged: the instance, the caller's observer and the caller's log
//!    never saw the wave, and only the replicas are dropped. Otherwise the
//!    per-shard logs are appended to the caller's log in shard order and
//!    replayed from there into the instance and the observer with
//!    [`redo_ops`], one burst with one [`DeltaObserver::batch_end`]. A
//!    wave is one step, like a database ASM's update set, and its ops
//!    join the caller's log the way a committed transaction's do.
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
//! hundreds of seeded cases, cross-shard arguments and failed waves
//! included.

use receivers_objectbase::{
    redo_ops, DeltaObserver, DeltaOp, Edge, InPlaceOutcome, Instance, Oid, PropId, Receiver,
    UpdateMethod,
};
use receivers_obs as obs;
use receivers_relalg::database::Database;
use receivers_relalg::view::DatabaseView;
use receivers_relalg::RelName;
use receivers_rt as rt;

use crate::algebraic::AlgebraicMethod;
use crate::coloring_bridge::{method_footprint, MethodFootprint};
use crate::error::{CoreError, Result};

obs::counter!(C_LOCAL, "core.shard.local_receivers");
obs::counter!(C_MERGED_OPS, "core.shard.merged_ops");
obs::counter!(C_ROLLBACKS, "core.shard.rollbacks");
obs::counter!(C_REPLICA_BUILDS, "core.shard.replica_builds");
obs::counter!(C_DISCHARGED, "core.shard.sat.discharged_conflicts");

/// Waves shorter than this run inline on the caller thread: spawning
/// workers for a handful of receivers costs more than the receivers.
const INLINE_BELOW: usize = 64;

/// The shard of object `o` under an `n`-way partition: a Fibonacci hash of
/// `(class, index)`, so consecutive indices of one class spread across
/// shards. Deterministic — executors, benches and differential runs all
/// agree on the partition.
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
    /// `true` when every receiver may run on its receiving object's home
    /// shard: no conflict remains undischarged.
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

/// Execution knobs for a [`ShardedExecutor`].
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Shard count; `None` follows [`rt::num_threads`] so the partition
    /// matches the worker pool.
    pub shards: Option<usize>,
    /// Worker threads; `None` follows [`rt::num_threads`] at each apply.
    pub workers: Option<usize>,
}

/// Reusable old/new successor buffers for the per-statement netted diff —
/// one per worker, so the steady-state path (nothing changed) allocates
/// nothing at all.
#[derive(Default)]
struct DiffScratch {
    old: Vec<Oid>,
    new: Vec<Oid>,
}

/// Apply one certified receiver against its home replica: validate,
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
) -> std::result::Result<(), String> {
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

/// A shard's replica of the shared database: written properties pruned
/// to the shard's row group, everything else a plain copy. `O(E)` to
/// build, amortized over the waves the replica serves; thereafter every
/// point edit moves `O(E/n)` instead of `O(E)`.
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

/// Sharded execution of one shard-safe method: every receiver of a wave
/// runs on its receiving object's home shard, against a per-shard pruned
/// replica that outlives a single [`apply`](ShardedExecutor::apply). A
/// stream of receiver sequences — reconciliation waves, incremental
/// loads — pays the `O(E)` replica construction once and thereafter only
/// `O(changed)` per wave. A one-shot application is `apply` on a fresh
/// executor.
///
/// The executor maintains **no full relational view at all**: the home
/// replica is exact for a certified method (the home-replica lemma, see
/// the module docs), and the caller's observer receives the wave's
/// netted deltas.
///
/// **Stewardship contract:** between applies the executor assumes the
/// instance is not mutated behind its back — replicas are maintained
/// incrementally from the deltas the executor itself produces. After any
/// out-of-band mutation call [`invalidate`](ShardedExecutor::invalidate)
/// to force a rebuild on the next apply. A failed apply leaves the
/// instance untouched and invalidates automatically.
pub struct ShardedExecutor<'m> {
    method: &'m AlgebraicMethod,
    written: Vec<PropId>,
    shards: usize,
    workers: Option<usize>,
    replicas: Vec<Option<DatabaseView>>,
    /// True while an apply is in flight; still true on the next apply
    /// only if the previous one panicked out mid-run, in which case the
    /// replicas are untrusted and rebuilt.
    dirty: bool,
}

impl<'m> ShardedExecutor<'m> {
    /// Build an executor for `method` under `cfg` (shard count defaults
    /// to [`rt::num_threads`]). Replicas are built lazily on first use.
    /// Fails with [`CoreError::NotShardSafe`] when [`certify`] finds a
    /// read/write conflict.
    pub fn new(method: &'m AlgebraicMethod, cfg: &ShardConfig) -> Result<Self> {
        Self::with_certificate(method, &certify(method), cfg)
    }

    /// [`ShardedExecutor::new`] with an externally refined certificate —
    /// typically [`certify`]'s output with conflicts discharged by the
    /// SQL layer's self-pinned-reads proofs. The caller vouches for every
    /// discharge: a wrongly discharged conflict silently diverges from
    /// the sequential semantics. A certificate that is not
    /// [`shard_safe`](ShardCertificate::shard_safe) is refused with
    /// [`CoreError::NotShardSafe`] naming its undischarged conflicts.
    pub fn with_certificate(
        method: &'m AlgebraicMethod,
        certificate: &ShardCertificate,
        cfg: &ShardConfig,
    ) -> Result<Self> {
        if !certificate.shard_safe() {
            let schema = method.schema();
            return Err(CoreError::NotShardSafe(
                certificate
                    .undischarged()
                    .map(|p| schema.prop_name(p).to_owned())
                    .collect(),
            ));
        }
        let shards = cfg.shards.unwrap_or_else(rt::num_threads).max(1);
        Ok(Self {
            method,
            written: method.updated_properties(),
            shards,
            workers: cfg.workers,
            replicas: (0..shards).map(|_| None).collect(),
            dirty: false,
        })
    }

    /// Number of shards the executor partitions over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Drop all replicas; the next apply rebuilds them from the instance.
    /// Required after any mutation of the instance outside this executor.
    pub fn invalidate(&mut self) {
        self.replicas.fill_with(|| None);
    }

    /// How many replicas are currently built — persistence is observable:
    /// a second apply over the same shards builds nothing.
    pub fn replicas_built(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_some()).count()
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
        for (shard, slot) in self.replicas.iter_mut().enumerate() {
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

    /// Apply the method to each receiver of `order` in turn — the same
    /// outcome and final instance as the sequential path, bit for bit —
    /// as one wave: every receiver runs on its home shard's worker loop,
    /// then the netted per-shard logs are appended to `log` in shard order
    /// and merge from there into `instance` and `observer`, one burst and
    /// one [`DeltaObserver::batch_end`]. An `Undefined` wave merges
    /// nothing: the instance, the observer and `log` are exactly as they
    /// were.
    pub fn apply(
        &mut self,
        instance: &mut Instance,
        observer: &mut dyn DeltaObserver,
        order: &[Receiver],
        log: &mut Vec<DeltaOp>,
    ) -> InPlaceOutcome {
        if order.is_empty() {
            return InPlaceOutcome::Applied;
        }
        let _span = obs::span("core.shard.apply");
        self.ensure_replicas(instance);
        let mut shard_items: Vec<Vec<(usize, &Receiver)>> = vec![Vec::new(); self.shards];
        for (gi, t) in order.iter().enumerate() {
            shard_items[shard_of(t.receiving_object(), self.shards)].push((gi, t));
        }
        let workers = if order.len() < INLINE_BELOW {
            1
        } else {
            self.workers.unwrap_or_else(rt::num_threads)
        };
        let method = self.method;
        let inst: &Instance = instance;
        // Each shard travels with `&mut` its own replica: the worker that
        // claims the shard is the only one that touches it.
        let shards: Vec<_> = shard_items
            .into_iter()
            .zip(self.replicas.iter_mut())
            .map(|(items, replica)| {
                let replica = replica.as_mut().expect("ensure_replicas built every shard");
                (items, replica)
            })
            .collect();

        // One shard's contribution to the wave: the concatenated delta log
        // of its receivers (in order), or its first failure with the
        // receiver's global index.
        let runs = rt::shard_map(shards, workers, |_, (items, replica)| {
            let mut log: Vec<DeltaOp> = Vec::new();
            let mut scratch = DiffScratch::default();
            for (gi, t) in items {
                apply_on_replica(method, inst, replica, t, &mut log, &mut scratch)
                    .map_err(|msg| (gi, msg))?;
                C_LOCAL.incr();
            }
            Ok(log)
        });
        self.dirty = false;

        // Sequential first-failure semantics: each shard stops at its
        // first failure, and every receiver before the lowest failing
        // global index ran exactly as it would sequentially, so that index
        // is the receiver the sequential application would have stopped
        // at. Nothing has been merged; the replicas may hold edits of
        // receivers past the failure, so they are rebuilt next time.
        if let Some((_, msg)) = runs
            .iter()
            .filter_map(|r| r.as_ref().err())
            .min_by_key(|(gi, _)| *gi)
        {
            C_ROLLBACKS.incr();
            self.invalidate();
            return InPlaceOutcome::Undefined(msg.clone());
        }

        // Deterministic merge: shard order, one burst. Cross-shard logs
        // edit disjoint (src, prop) row groups, so this equals the
        // sequential interleaving on the order-insensitive containers (see
        // the module docs).
        let _merge = obs::span("core.shard.merge");
        let start = log.len();
        log.extend(runs.into_iter().flatten().flatten());
        C_MERGED_OPS.add((log.len() - start) as u64);
        redo_ops(instance, observer, &log[start..]);
        observer.batch_end();
        InPlaceOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebraic::Statement;
    use crate::methods::{
        add_bar, delete_bar, favorite_bar, loop_schema, transitive_closure_method,
    };
    use receivers_objectbase::examples::beer_schema;
    use receivers_objectbase::{NullObserver, Signature};
    use receivers_relalg::Expr;

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

    /// Drinker `k` paired with bar `n + 1 - k`: at several shards many of
    /// these receivers have their argument off the home shard.
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
            workers: Some(workers),
        }
    }

    /// Receivers of `order` with some object off the receiving object's
    /// home shard.
    fn cross_shard(order: &[Receiver], shards: usize) -> usize {
        order
            .iter()
            .filter(|t| {
                let home = shard_of(t.receiving_object(), shards);
                t.objects().iter().any(|&o| shard_of(o, shards) != home)
            })
            .count()
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

    /// The constructors refuse a certificate that is not shard-safe and
    /// name the undischarged conflicts; the transitive closure of Example
    /// 6.4 reads the `B` it writes.
    #[test]
    fn executor_refuses_uncertified_methods() {
        let s = beer_schema();
        let err = ShardedExecutor::new(&delete_bar(&s), &cfg(4, 2))
            .err()
            .expect("delete_bar reads what it writes");
        assert_eq!(err, CoreError::NotShardSafe(vec!["frequents".to_owned()]));
        assert!(err.to_string().contains("`frequents`"), "{err}");

        let ls = loop_schema("A", "B");
        let tc = transitive_closure_method(&ls);
        assert!(matches!(
            ShardedExecutor::new(&tc, &cfg(2, 1)),
            Err(CoreError::NotShardSafe(props)) if props == ["B"]
        ));
    }

    /// A copy-argument method `a := π_a(arg1 ⋈[arg1=C] Ca)` reads the
    /// property it writes at an *argument* object, so a receiver's value
    /// depends on its predecessor's write in another shard. Run down a
    /// descending chain, sequential application propagates the last
    /// node's value along the whole chain, which per-shard replicas
    /// cannot reproduce: the executor must refuse the method, naming `a`.
    #[test]
    fn copy_argument_method_is_refused_and_sequential_stays_the_reference() {
        let ls = loop_schema("a", "b");
        let sig = Signature::new(vec![ls.c, ls.c]).unwrap();
        let expr = Expr::arg(1)
            .join_eq(Expr::prop(ls.e), "arg1", "C")
            .project(["a"]);
        let m = AlgebraicMethod::new(
            "copy_arg",
            std::sync::Arc::clone(&ls.schema),
            sig,
            vec![Statement {
                property: ls.e,
                expr,
            }],
        )
        .unwrap();

        // 16 nodes, node k's `a` pointing at itself; the chain copies
        // node k+1's value into node k for k = 14 down to 0.
        let node = |k: u32| Oid::new(ls.c, k);
        let mut i = Instance::empty(std::sync::Arc::clone(&ls.schema));
        for k in 0..16 {
            i.add_object(node(k));
        }
        for k in 0..16 {
            i.link(node(k), ls.e, node(k)).unwrap();
        }
        let chain: Vec<Receiver> = (0..15)
            .rev()
            .map(|k| Receiver::new(vec![node(k), node(k + 1)]))
            .collect();
        assert!(cross_shard(&chain, 4) > 0, "the chain must cross shards");

        assert!(matches!(
            ShardedExecutor::new(&m, &cfg(4, 2)),
            Err(CoreError::NotShardSafe(props)) if props == ["a"]
        ));

        let mut reference = i.clone();
        assert_eq!(
            m.apply_in_place_sequence(&mut reference, &chain),
            InPlaceOutcome::Applied
        );
        for k in 0..16 {
            assert_eq!(
                reference.successors(node(k), ls.e).collect::<Vec<_>>(),
                vec![node(15)],
                "sequential application propagates node 15's value to node {k}"
            );
        }
    }

    /// `delete_bar` reads the property it writes, but only at the
    /// receiving drinker (see `methods.rs`: `π_f(self ⋈ Df ⋈≠ arg)`), so
    /// the conflict is honestly dischargeable — and the discharged
    /// certificate runs it sharded, bit-identical to sequential, with a
    /// caller-held view kept current.
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

        let mut i = crowd(&s, 24);
        let mut view = DatabaseView::new(&i);
        let mut exec = ShardedExecutor::with_certificate(&m, &cert, &cfg(4, 2)).unwrap();
        let mut log = Vec::new();
        assert_eq!(
            exec.apply(&mut i, &mut view, &order, &mut log),
            InPlaceOutcome::Applied
        );
        assert_eq!(i, reference);
        assert!(view.matches_rebuild(&i));
        i.check_index_consistent();
        assert_eq!(exec.replicas_built(), 4);
        // The merged wave joined the caller's log: undoing it restores
        // the start, view included.
        receivers_objectbase::undo_ops(&mut i, &mut view, &log);
        assert_eq!(i, crowd(&s, 24));
        assert!(view.matches_rebuild(&i));
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

    /// Bit-identical to the sequential path across shard/worker counts,
    /// with cross-shard arguments, a caller-held view as observer, and
    /// both the inline path and real worker loops.
    #[test]
    fn sharded_apply_matches_sequential() {
        let s = beer_schema();
        let m = add_bar(&s);
        // The 96-receiver wave runs on real worker threads at one width
        // only, so the module stays cheap under Miri.
        for (n, widths) in [
            (24u32, &[(1, 1), (2, 2), (4, 2), (7, 3)][..]),
            (96, &[(4, 2)][..]),
        ] {
            let order = receivers(&s, n);
            assert!(cross_shard(&order, 4) > 0, "workload must cross shards");
            let mut reference = crowd(&s, n);
            assert_eq!(
                m.apply_in_place_sequence(&mut reference, &order),
                InPlaceOutcome::Applied
            );
            for &(shards, workers) in widths {
                let mut i = crowd(&s, n);
                let mut view = DatabaseView::new(&i);
                let mut exec = ShardedExecutor::new(&m, &cfg(shards, workers)).unwrap();
                let out = exec.apply(&mut i, &mut view, &order, &mut Vec::new());
                assert_eq!(out, InPlaceOutcome::Applied);
                assert_eq!(i, reference, "{n}: {shards} shards / {workers} workers");
                assert!(view.matches_rebuild(&i));
                i.check_index_consistent();
            }
        }
    }

    /// A mid-sequence failure (ghost receiver) merges nothing: instance
    /// and view are bit-identical to the start, and the message is the
    /// sequential one.
    #[test]
    fn mid_sequence_failure_merges_nothing() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut order = receivers(&s, 12);
        let ghost = Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]);
        order.insert(8, ghost);

        let mut i = crowd(&s, 12);
        let snapshot = i.clone();
        let mut view = DatabaseView::new(&i);
        let view_snapshot = view.clone();
        let mut exec = ShardedExecutor::new(&m, &cfg(3, 2)).unwrap();
        let earlier = DeltaOp::AddedNode(Oid::new(s.bar, 999));
        let mut log = vec![earlier];
        let out = exec.apply(&mut i, &mut view, &order, &mut log);
        assert!(matches!(out, InPlaceOutcome::Undefined(_)));
        assert_eq!(i, snapshot);
        assert_eq!(view, view_snapshot);
        assert_eq!(log, [earlier], "the caller's log is untouched");
        i.check_index_consistent();

        let mut j = crowd(&s, 12);
        assert_eq!(out, m.apply_in_place_sequence(&mut j, &order));
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
        let mut exec = ShardedExecutor::new(&m, &cfg(4, 2)).unwrap();
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
            assert_eq!(
                exec.apply(&mut i, &mut NullObserver, &wave, &mut Vec::new()),
                InPlaceOutcome::Applied
            );
            assert_eq!(i, reference);
            i.check_index_consistent();
        }
        assert_eq!(exec.replicas_built(), 4, "replicas persist across waves");
    }

    /// A failing wave leaves the instance alone and invalidates the
    /// replicas; the executor keeps working afterwards.
    #[test]
    fn executor_fails_whole_and_recovers() {
        let s = beer_schema();
        let m = add_bar(&s);
        let mut i = crowd(&s, 12);
        let mut exec = ShardedExecutor::new(&m, &cfg(3, 2)).unwrap();
        assert_eq!(
            exec.apply(
                &mut i,
                &mut NullObserver,
                &receivers(&s, 12),
                &mut Vec::new()
            ),
            InPlaceOutcome::Applied
        );
        let snapshot = i.clone();

        let mut bad = receivers(&s, 12);
        bad.insert(
            7,
            Receiver::new(vec![Oid::new(s.drinker, 999), Oid::new(s.bar, 1)]),
        );
        let out = exec.apply(&mut i, &mut NullObserver, &bad, &mut Vec::new());
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
        assert_eq!(
            exec.apply(&mut i, &mut NullObserver, &wave, &mut Vec::new()),
            InPlaceOutcome::Applied
        );
        assert_eq!(i, reference);
    }

    /// Receivers pairing each drinker with every bar run on their home
    /// shards, and out-of-band mutations are picked up after
    /// `invalidate`.
    #[test]
    fn executor_runs_cross_shard_arguments_home_and_invalidates() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order: Vec<Receiver> = (1..=6)
            .flat_map(|d| (1..=6).map(move |b| (d, b)))
            .map(|(d, b)| Receiver::new(vec![Oid::new(s.drinker, d), Oid::new(s.bar, b)]))
            .collect();
        assert!(cross_shard(&order, 3) > 0, "workload must cross shards");

        let mut reference = crowd(&s, 6);
        m.apply_in_place_sequence(&mut reference, &order);
        let mut i = crowd(&s, 6);
        let mut exec = ShardedExecutor::new(&m, &cfg(3, 2)).unwrap();
        assert_eq!(
            exec.apply(&mut i, &mut NullObserver, &order, &mut Vec::new()),
            InPlaceOutcome::Applied
        );
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
        assert_eq!(
            exec.apply(&mut i, &mut NullObserver, &wave, &mut Vec::new()),
            InPlaceOutcome::Applied
        );
        assert_eq!(i, reference);
    }

    /// Worker counters are exported through the metrics registry.
    #[test]
    fn local_receivers_counter_is_exported() {
        let s = beer_schema();
        let m = add_bar(&s);
        let order = receivers(&s, 8);

        obs::set_enabled(obs::trace_enabled(), true);
        let before = obs::metrics_snapshot();
        let mut i = crowd(&s, 8);
        let mut exec = ShardedExecutor::new(&m, &cfg(2, 2)).unwrap();
        let out = exec.apply(&mut i, &mut NullObserver, &order, &mut Vec::new());
        let after = obs::metrics_snapshot();
        assert_eq!(out, InPlaceOutcome::Applied);

        // Counters are global and other tests run concurrently, so only
        // lower bounds are safe to assert.
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("core.shard.local_receivers") >= 8);
        assert!(delta("core.shard.replica_builds") >= 2);
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
        let mut exec = ShardedExecutor::new(&m, &cfg(2, 2)).unwrap();
        let shard = exec.apply(&mut j, &mut NullObserver, &bad, &mut Vec::new());
        assert_eq!(seq, shard);
        assert!(matches!(shard, InPlaceOutcome::Undefined(_)));
    }
}
