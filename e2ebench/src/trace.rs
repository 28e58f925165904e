//! The traced run: per-layer numbers, timed from the benchmark's own
//! code around calls into each layer's public functions, plus the
//! drivers' own profile trees attached under the driver spans.
//!
//! The layer replay walks a compiled program the way the viewed driver
//! does — same stages, same order, same appliers — but through the
//! public per-layer entry points (`SetUpdate::assignments`,
//! `SetDelete::victims`, relational `eval` of `par(E)`, the batch
//! appliers with and without a view observer, `apply_sequence_viewed`,
//! observed transactions), so each layer's share of a stage is measured
//! on its own. Its result is checked against the oracle like every
//! driver's.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use receivers_core::algebraic::{
    apply_assignment_batch, apply_delete_batch, apply_replacement_batch,
};
use receivers_objectbase::{
    redo_ops, DeltaObserver, Edge, Instance, InstanceTxn, NullObserver, Oid, Receiver, ReceiverSet,
    Schema,
};
use receivers_obs as obs;
use receivers_obs::json::Value;
use receivers_obs::ProfileNode;
use receivers_relalg::eval::{eval, Bindings};
use receivers_relalg::view::DatabaseView;
use receivers_sql::ast::{Condition, Select};
use receivers_sql::catalog::TableInfo;
use receivers_sql::eval::{eval_condition, eval_select, Binding};
use receivers_sql::{
    compile, improve_cursor_update, Catalog, CompiledStatement, ProgramPlan, SqlStatement,
    StageKind,
};
use receivers_wal::{
    decode_log, decode_snapshot, encode_record, DurableStore, Manifest, WalStorage,
};

use crate::clock::{cpu_ms, cpu_since};
use crate::engine::{applied, ms, Arms, Config, Ctx, Expected, Metric, Run};
use crate::stats::median;
use crate::workloads::PlanCounts;

/// The per-layer metrics, `(name, unit, better)`. Times (`ms`, `%`) are
/// per-program medians over rounds; counts and bytes, which repeat
/// exactly, are per-program means over every checked execution. The
/// exception is `obs.trace_overhead_pct`, a ratio of two medians.
///
/// Layer times are wall time, like the driver profile trees they
/// reconcile with. `sql.parse_ms`, `sql.compile_program_ms` and
/// `core.shard.extra_ms` come from the timed arms, so they are CPU time,
/// not rescaled.
pub(crate) const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sql.parse_ms", "ms", "lower"),
    ("sql.compile_program_ms", "ms", "lower"),
    ("sql.compile_statements_ms", "ms", "lower"),
    ("sql.improve_ms", "ms", "lower"),
    ("sql.plan.stages", "count", "lower"),
    ("sql.plan.netted", "count", "higher"),
    ("sql.plan.shared", "count", "higher"),
    ("sql.plan.improved", "count", "higher"),
    ("sql.plan.proof_cache_hits", "count", "higher"),
    ("sql.plan.proof_cache_misses", "count", "lower"),
    ("sql.plan.selector_hits", "count", "higher"),
    ("sql.plan.selector_misses", "count", "lower"),
    ("sql.eval.values_ms", "ms", "lower"),
    ("sql.eval.victims_ms", "ms", "lower"),
    ("sql.eval.cursor_ms", "ms", "lower"),
    ("plan.stage_ms.set_update", "ms", "lower"),
    ("plan.stage_ms.set_delete", "ms", "lower"),
    ("plan.stage_ms.improved", "ms", "lower"),
    ("plan.stage_ms.cursor_algebraic", "ms", "lower"),
    ("plan.stage_ms.cursor_interpreted", "ms", "lower"),
    ("plan.stage_ms.cursor_delete", "ms", "lower"),
    ("plan.rows_in", "count", "lower"),
    ("plan.rows_out", "count", "lower"),
    ("relalg.view_build_ms", "ms", "lower"),
    ("relalg.view_maintain_ms", "ms", "lower"),
    ("relalg.par_eval_ms", "ms", "lower"),
    ("relalg.par_apply_ms", "ms", "lower"),
    ("core.apply_batch_ms", "ms", "lower"),
    ("core.cursor_seq_ms", "ms", "lower"),
    ("core.shard.local_receivers", "count", "higher"),
    ("core.shard.coordinated_receivers", "count", "lower"),
    ("core.shard.extra_ms", "ms", "lower"),
    ("objectbase.delta_ops", "count", "lower"),
    ("objectbase.clone_ms", "ms", "lower"),
    ("objectbase.txn_ms", "ms", "lower"),
    ("wal.records", "count", "lower"),
    ("wal.bytes", "B", "lower"),
    ("wal.syncs", "count", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.sync_ms", "ms", "lower"),
    ("wal.encode_ms", "ms", "lower"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("wal.snapshot_bytes", "B", "lower"),
    ("wal.recover.snapshot_decode_ms", "ms", "lower"),
    ("wal.recover.tail_decode_ms", "ms", "lower"),
    ("wal.recover.replay_ms", "ms", "lower"),
    ("wal.recover.rebuild_ms", "ms", "lower"),
    ("wal.recover.tail_records", "count", "lower"),
    ("wal.recover.truncated_bytes", "B", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.reconcile_dev_pct", "%", "lower"),
];

/// Stages holding at least this share of a program's stage time are
/// reconciled against their layer sums.
const RECONCILE_SHARE: f64 = 0.10;

/// Time `f` as a child span of `parent`, returning its result and
/// milliseconds.
fn timed<T>(parent: &mut ProfileNode, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start_ns = obs::now_ns();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed();
    let mut node = ProfileNode::new(name, "layer");
    node.start_ns = start_ns;
    node.wall_ns = wall.as_nanos() as u64;
    parent.children.push(node);
    (out, wall.as_secs_f64() * 1e3)
}

/// A span node covering its children (start of the first, end of the
/// last), for nodes that only group.
fn group(name: impl Into<String>, kind: &str, children: Vec<ProfileNode>) -> ProfileNode {
    let mut node = ProfileNode::new(name, kind);
    let start = children.iter().map(|c| c.start_ns).filter(|&s| s > 0).min();
    let end = children.iter().map(|c| c.start_ns + c.wall_ns).max();
    if let (Some(s), Some(e)) = (start, end) {
        node.start_ns = s;
        node.wall_ns = e.saturating_sub(s);
    }
    node.children = children;
    node
}

/// Per-layer accumulation across one round's programs, and the samples
/// across rounds.
pub(crate) struct Tracer {
    round: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
    programs: usize,
    viewed_profiled: Vec<f64>,
    viewed_profiled_round: f64,
    /// The current program's span tree; the last one is written out.
    spans: Vec<ProfileNode>,
    last: Option<ProfileNode>,
}

impl Tracer {
    /// An empty tracer.
    pub(crate) fn new() -> Self {
        Tracer {
            round: BTreeMap::new(),
            samples: BTreeMap::new(),
            totals: BTreeMap::new(),
            programs: 0,
            viewed_profiled: Vec::new(),
            viewed_profiled_round: 0.0,
            spans: Vec::new(),
            last: None,
        }
    }

    fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        *self.round.entry(name).or_insert(0.0) += value;
    }

    /// The netting proof cache's `(hits, misses)` counters.
    pub(crate) fn proof_counters() -> (u64, u64) {
        let snap = obs::metrics_snapshot();
        (
            snap.counter("sql.plan.proof_cache.hit").unwrap_or(0),
            snap.counter("sql.plan.proof_cache.miss").unwrap_or(0),
        )
    }

    /// The timed compile of a program: parse and `compile_program` split,
    /// the proof cache's verdicts, the planner's decisions.
    pub(crate) fn compiled(&mut self, plan: &ProgramPlan, arms: &Arms, before: (u64, u64)) {
        let after = Self::proof_counters();
        // The first hook of every execution: spans a failed one left
        // behind go.
        self.spans.clear();
        self.add("sql.parse_ms", arms.parse_ms);
        self.add("sql.compile_program_ms", arms.program_ms);
        self.add("sql.plan.proof_cache_hits", (after.0 - before.0) as f64);
        self.add("sql.plan.proof_cache_misses", (after.1 - before.1) as f64);
        let counts = PlanCounts::of(plan);
        self.add("sql.plan.stages", counts.stages as f64);
        self.add("sql.plan.netted", counts.netted as f64);
        self.add("sql.plan.shared", counts.shared as f64);
        self.add("sql.plan.improved", counts.improved as f64);
        let end = obs::now_ns();
        let wall = ((arms.parse_ms + arms.program_ms) * 1e6) as u64;
        let mut node = ProfileNode::new("sql.compile", "layer");
        node.start_ns = end.saturating_sub(wall);
        node.wall_ns = wall;
        node.set_metric("stages", counts.stages as u64);
        self.spans.push(node);
    }

    /// Attach a driver's own profile tree under a driver span.
    pub(crate) fn driver_tree(&mut self, driver: &str, tree: ProfileNode) {
        self.spans
            .push(group(format!("driver.{driver}"), "driver", vec![tree]));
    }

    /// `DurableStore::open`'s work split from outside, on the torn store
    /// before the real recovery: snapshot decode, tail decode, replay
    /// into the instance, view rebuild. The split must rebuild exactly
    /// `want` and find exactly `torn` bytes to truncate.
    pub(crate) fn recovery_breakdown<S: WalStorage>(
        &mut self,
        storage: &S,
        schema: &Arc<Schema>,
        want: &Instance,
        torn: u64,
    ) -> Result<(), String> {
        let read = |name: &str| {
            storage
                .read(name)
                .map_err(|e| format!("recovery split: {e}"))
        };
        let manifest = Manifest::decode(&read("MANIFEST")?.ok_or("no MANIFEST")?)
            .map_err(|e| e.to_string())?;
        let snap = read(&manifest.snapshot_file())?.ok_or("no snapshot")?;
        let wal = read(&manifest.wal_file())?.unwrap_or_default();
        let mut node = ProfileNode::new("wal.recover", "layer");
        let (decoded, snap_ms) = timed(&mut node, "wal.recover.snapshot_decode", || {
            decode_snapshot(&snap, schema)
        });
        let (mut instance, _) = decoded.map_err(|e| e.to_string())?;
        let (log, tail_ms) = timed(&mut node, "wal.recover.tail_decode", || {
            decode_log(&wal, manifest.last_seq + 1)
        });
        let ((), replay_ms) = timed(&mut node, "wal.recover.replay", || {
            for record in &log.records {
                redo_ops(&mut instance, &mut NullObserver, &record.ops);
            }
        });
        let (_view, rebuild_ms) = timed(&mut node, "wal.recover.rebuild", || {
            DatabaseView::new(&instance)
        });
        if instance != *want {
            return Err("recovery split rebuilt a different instance".to_owned());
        }
        let truncated = wal.len() as u64 - log.valid_len;
        if truncated != torn {
            return Err(format!(
                "recovery split found {truncated} torn byte(s), {torn} were torn"
            ));
        }
        self.add("wal.snapshot_bytes", snap.len() as f64);
        self.add("wal.recover.snapshot_decode_ms", snap_ms);
        self.add("wal.recover.tail_decode_ms", tail_ms);
        self.add("wal.recover.replay_ms", replay_ms);
        self.add("wal.recover.rebuild_ms", rebuild_ms);
        self.add("wal.recover.tail_records", log.records.len() as f64);
        self.add("wal.recover.truncated_bytes", truncated as f64);
        self.spans
            .push(group("wal.recover", "layer", node.children));
        Ok(())
    }

    /// A checkpoint of the recovered store from its rebuilt view.
    pub(crate) fn checkpoint<S: WalStorage>(
        &mut self,
        store: &mut DurableStore<S>,
        view: &DatabaseView,
    ) -> Result<(), String> {
        let mut node = ProfileNode::new("wal", "layer");
        let (res, ckpt_ms) = timed(&mut node, "wal.checkpoint", || {
            store.checkpoint_db(view.database())
        });
        res.map_err(|e| format!("checkpoint: {e}"))?;
        self.add("wal.checkpoint_ms", ckpt_ms);
        self.spans.extend(node.children);
        Ok(())
    }

    /// Everything else the traced run measures about one checked
    /// execution: the drivers' profile trees, the layer replay and its
    /// reconciliation with them, and the WAL's per-record work.
    pub(crate) fn extras(&mut self, ctx: &Ctx, run: &Run, exp: &Expected) -> Result<(), String> {
        let plan = &run.plan;
        let mut setup = ProfileNode::new("setup", "layer");
        let (copy, clone_ms) = timed(&mut setup, "objectbase.clone", || ctx.base.clone());
        let (_, view_ms) = timed(&mut setup, "relalg.view_build", || {
            DatabaseView::new(&ctx.base)
        });
        self.add("objectbase.clone_ms", clone_ms);
        self.add("relalg.view_build_ms", view_ms);
        drop(copy);

        let mut sql = ProfileNode::new("sql", "layer");
        let mut statements_ms = 0.0;
        let mut improve_ms = 0.0;
        for stmt in &run.stmts {
            let (compiled, t) = timed(&mut sql, "sql.compile", || compile(stmt, &ctx.catalog));
            statements_ms += t;
            if let Ok(CompiledStatement::CursorUpdate(cu)) = compiled {
                if cu.condition.is_none() && cu.to_algebraic().is_ok() {
                    let (_, t) = timed(&mut sql, "sql.improve", || improve_cursor_update(&cu));
                    improve_ms += t;
                }
            }
        }
        self.add("sql.compile_statements_ms", statements_ms);
        self.add("sql.improve_ms", improve_ms);

        // The viewed driver's own profile, and the tracing overhead
        // against the plain arm of the same program (both in CPU time).
        let mut w = ctx.base.clone();
        let mut v = DatabaseView::new(&w);
        let t = cpu_ms();
        let (out, viewed_tree) = plan
            .execute_viewed_profiled(&mut w, &mut v)
            .map_err(|e| format!("profiled viewed: {e}"))?;
        self.viewed_profiled_round += cpu_since(t);
        applied("profiled viewed", out)?;
        if w != exp.oracle {
            return Err("profiled viewed instance differs from the oracle".to_owned());
        }
        let mut stage_wall = vec![0.0; plan.stages().len()];
        for ((stage, node), wall) in plan
            .stages()
            .iter()
            .zip(&viewed_tree.children)
            .zip(&mut stage_wall)
        {
            *wall = node.wall_ns as f64 / 1e6;
            let kind = match stage.kind() {
                StageKind::SetUpdate => "plan.stage_ms.set_update",
                StageKind::SetDelete => "plan.stage_ms.set_delete",
                StageKind::ImprovedUpdate => "plan.stage_ms.improved",
                StageKind::CursorDelete => "plan.stage_ms.cursor_delete",
                StageKind::CursorUpdate if stage.algebraic().is_some() => {
                    "plan.stage_ms.cursor_algebraic"
                }
                StageKind::CursorUpdate => "plan.stage_ms.cursor_interpreted",
            };
            self.add(kind, *wall);
            self.add("plan.rows_in", node.rows_in as f64);
            self.add("plan.rows_out", node.rows_out as f64);
            self.add(
                "sql.plan.selector_hits",
                node.metric("selector_cache_hits").unwrap_or(0) as f64,
            );
            self.add(
                "sql.plan.selector_misses",
                node.metric("selector_cache_misses").unwrap_or(0) as f64,
            );
        }
        self.driver_tree("viewed", viewed_tree);

        let mut s = ctx.base.clone();
        let (out, sharded_tree) = plan
            .execute_sharded_profiled(&mut s, &ctx.shard)
            .map_err(|e| format!("profiled sharded: {e}"))?;
        applied("profiled sharded", out)?;
        if s != exp.oracle {
            return Err("profiled sharded instance differs from the oracle".to_owned());
        }
        for node in &sharded_tree.children {
            self.add(
                "core.shard.local_receivers",
                node.metric("local_receivers").unwrap_or(0) as f64,
            );
            self.add(
                "core.shard.coordinated_receivers",
                node.metric("coordinated_receivers").unwrap_or(0) as f64,
            );
        }
        self.add(
            "core.shard.extra_ms",
            run.arms.sharded_ms - run.arms.viewed_ms,
        );
        self.driver_tree("sharded", sharded_tree);

        let mut layers = ProfileNode::new("layers", "replay");
        let layer_ms = replay(
            self,
            plan,
            &ctx.catalog,
            &ctx.base,
            &exp.oracle,
            &mut layers,
        )?;
        let total: f64 = stage_wall.iter().sum();
        let worst = stage_wall
            .iter()
            .zip(&layer_ms)
            .filter(|(&wall, _)| total > 0.0 && wall >= RECONCILE_SHARE * total)
            .map(|(&wall, &layer)| (layer / wall - 1.0).abs() * 100.0)
            .fold(0.0, f64::max);
        self.add("obs.reconcile_dev_pct", worst);

        let mut wal = ProfileNode::new("wal", "layer");
        let mut frame = Vec::new();
        let ((), encode_ms) = timed(&mut wal, "wal.encode", || {
            for r in &exp.records {
                frame.clear();
                encode_record(r.seq, &r.ops, &mut frame);
            }
        });
        self.add("wal.encode_ms", encode_ms);
        self.add("objectbase.delta_ops", exp.delta_ops as f64);
        self.add("wal.records", run.wal.records as f64);
        self.add("wal.bytes", run.wal.bytes as f64);
        self.add("wal.syncs", run.wal.syncs as f64);
        self.add("wal.checkpoints", run.wal.checkpoints as f64);
        self.add("wal.sync_ms", run.wal.sync_ns as f64 / 1e6);

        self.spans.push(group("setup", "layer", setup.children));
        self.spans.push(group("sql", "layer", sql.children));
        self.spans.push(group("layers", "replay", layers.children));
        self.spans.push(group("wal", "layer", wal.children));
        let spans = std::mem::take(&mut self.spans);
        self.last = Some(group(format!("e2e {}", ctx.workload.name()), "e2e", spans));
        Ok(())
    }

    /// Close a round of `programs` checked executions.
    pub(crate) fn end_round(&mut self, programs: usize) {
        self.spans.clear();
        if programs == 0 {
            self.round.clear();
            self.viewed_profiled_round = 0.0;
            return;
        }
        let per = programs as f64;
        self.programs += programs;
        for (name, _, _) in PER_LAYER {
            let sum = self.round.get(name).copied().unwrap_or(0.0);
            *self.totals.entry(name).or_default() += sum;
            self.samples.entry(name).or_default().push(sum / per);
        }
        self.viewed_profiled.push(self.viewed_profiled_round / per);
        self.round.clear();
        self.viewed_profiled_round = 0.0;
    }

    /// The per-layer metrics, given the plain viewed arm's per-round
    /// samples; writes the last program's span tree (profile JSON and
    /// Chrome trace) and checks it parses back as a closed tree.
    pub(crate) fn finish(
        self,
        viewed_plain: &[f64],
        cfg: &Config,
        errors: &mut Vec<String>,
    ) -> Vec<Metric> {
        let overhead =
            (median(&self.viewed_profiled) / median(viewed_plain).max(f64::MIN_POSITIVE) - 1.0)
                * 100.0;
        if let (Some(dir), Some(tree)) = (&cfg.trace_out, &self.last) {
            if let Err(e) = write_trace(dir, cfg, tree) {
                errors.push(e);
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: match (name, unit) {
                    ("obs.trace_overhead_pct", _) => overhead,
                    (_, "ms" | "%") => self.samples.get(name).map_or(0.0, |s| median(s)),
                    _ => {
                        self.totals.get(name).copied().unwrap_or(0.0) / self.programs.max(1) as f64
                    }
                },
            })
            .collect()
    }
}

/// Write `tree` as `<workload>-<seed>.profile.json` (the
/// `receivers-obs/profile/v1` schema `obs_check --profile` validates) and
/// `.chrome.json`, and check the profile parses back as a closed,
/// pre-ordered tree.
fn write_trace(dir: &Path, cfg: &Config, tree: &ProfileNode) -> Result<(), String> {
    let profile = obs::render_profile_json(tree);
    check_profile(&profile)?;
    let chrome = obs::render_profile_chrome(tree);
    Value::parse(&chrome).map_err(|e| format!("chrome trace does not parse: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-{}", cfg.workload.name(), cfg.seed);
    for (ext, text) in [("profile", &profile), ("chrome", &chrome)] {
        let path = dir.join(format!("{stem}.{ext}.json"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The structural contract of a profile document: the schema tag, and
/// node ids that are unique, non-zero, with every parent 0 or an earlier
/// node.
pub fn check_profile(text: &str) -> Result<(), String> {
    let doc = Value::parse(text).map_err(|e| format!("profile does not parse: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("receivers-obs/profile/v1") {
        return Err("profile schema tag missing".to_owned());
    }
    let nodes = doc
        .get("nodes")
        .and_then(Value::as_array)
        .filter(|n| !n.is_empty())
        .ok_or("profile has no nodes")?;
    let mut seen = BTreeSet::new();
    for n in nodes {
        let id = n.get("id").and_then(Value::as_u64).unwrap_or(0);
        let parent = n.get("parent").and_then(Value::as_u64);
        if id == 0 || !seen.insert(id) || !parent.is_some_and(|p| p == 0 || seen.contains(&p)) {
            return Err(format!(
                "profile node {id} breaks the closed pre-order tree"
            ));
        }
    }
    Ok(())
}

/// Replay `plan` on a copy of `base` through the per-layer public entry
/// points; returns each stage's layer sum in milliseconds (0 for netted
/// stages) after checking the result against `oracle`.
fn replay(
    tr: &mut Tracer,
    plan: &ProgramPlan,
    catalog: &Catalog,
    base: &Instance,
    oracle: &Instance,
    layers: &mut ProfileNode,
) -> Result<Vec<f64>, String> {
    let mut w = base.clone();
    let mut view = DatabaseView::new(&w);
    let mut per_stage = vec![0.0; plan.stages().len()];
    for (idx, stage) in plan.stages().iter().enumerate() {
        if stage.netted() {
            continue;
        }
        let mut node = ProfileNode::new(format!("stage {}", idx + 1), "replay");
        let compiled = compile(stage.statement(), catalog).map_err(|e| e.to_string())?;
        per_stage[idx] = match (stage.kind(), compiled) {
            (StageKind::SetDelete, CompiledStatement::SetDelete(sd)) => {
                let (victims, eval_ms) = timed(&mut node, "sql.eval.victims", || sd.victims(&w));
                let victims = victims.map_err(|e| e.to_string())?;
                tr.add("sql.eval.victims_ms", eval_ms);
                eval_ms
                    + batch(tr, &mut w, &mut view, &mut node, |i, o| {
                        apply_delete_batch(i, o, &victims)
                    })
            }
            (StageKind::SetUpdate, CompiledStatement::SetUpdate(su)) => {
                let (assigns, eval_ms) = timed(&mut node, "sql.eval.values", || su.assignments(&w));
                let assigns = assigns.map_err(|e| e.to_string())?;
                tr.add("sql.eval.values_ms", eval_ms);
                let prop = su.property;
                eval_ms
                    + batch(tr, &mut w, &mut view, &mut node, |i, o| {
                        apply_assignment_batch(i, o, prop, &assigns)
                    })
            }
            (StageKind::ImprovedUpdate, CompiledStatement::CursorUpdate(cu)) => {
                let imp = stage.improved().ok_or("improved stage without rewrite")?;
                let (functional, apply_ms) = timed(&mut node, "relalg.par_apply", || imp.apply(&w));
                let functional = functional.map_err(|e| e.to_string())?;
                tr.add("relalg.par_apply_ms", apply_ms);
                let sig = imp.method.signature_ref();
                let receivers: ReceiverSet = w
                    .class_members(sig.receiving_class())
                    .map(|t| Receiver::new(vec![t]))
                    .collect();
                let (rel, eval_ms) = timed(&mut node, "relalg.par_eval", || {
                    Bindings::for_receiver_set(sig, &receivers)
                        .and_then(|b| eval(&imp.assignment_query, view.database(), &b))
                });
                let rel = rel.map_err(|e| e.to_string())?;
                tr.add("relalg.par_eval_ms", eval_ms);
                let pairs: Vec<(Oid, Oid)> = match rel.schema().arity() {
                    1 => rel.tuples().map(|t| (t[0], t[0])).collect(),
                    _ => rel.tuples().map(|t| (t[0], t[1])).collect(),
                };
                let receiving: BTreeSet<Oid> =
                    receivers.iter().map(Receiver::receiving_object).collect();
                let prop = cu.property;
                let ms = eval_ms
                    + batch(tr, &mut w, &mut view, &mut node, |i, o| {
                        apply_replacement_batch(i, o, prop, &receiving, &pairs)
                    });
                if w != functional {
                    return Err(format!(
                        "stage {}: par(E) batch differs from ImprovedUpdate::apply",
                        idx + 1
                    ));
                }
                ms
            }
            (StageKind::CursorUpdate, CompiledStatement::CursorUpdate(cu)) => {
                match stage.algebraic() {
                    Some(m) => {
                        let order = cu.receivers(&w).canonical_order();
                        let (out, seq_ms) = timed(&mut node, "core.cursor_seq", || {
                            m.apply_sequence_viewed(&mut w, &mut view, &order)
                        });
                        applied("cursor sequence", out)?;
                        tr.add("core.cursor_seq_ms", seq_ms);
                        seq_ms
                    }
                    None => {
                        let body = CursorBody::Update(cu.property, cu.select());
                        let cursor = Cursor {
                            var: cursor_var(stage.statement()),
                            table: cu.table(),
                            catalog: cu.catalog(),
                            guard: cu.condition.as_ref(),
                        };
                        cursor.run(tr, &mut w, &mut view, &mut node, body)?
                    }
                }
            }
            (StageKind::CursorDelete, CompiledStatement::CursorDelete(cd)) => {
                let cursor = Cursor {
                    var: cursor_var(stage.statement()),
                    table: cd.table(),
                    catalog: cd.catalog(),
                    guard: cd.condition.as_ref(),
                };
                cursor.run(tr, &mut w, &mut view, &mut node, CursorBody::Delete)?
            }
            (kind, _) => return Err(format!("stage {}: {kind:?} compiled differently", idx + 1)),
        };
        layers
            .children
            .push(group(node.name, "replay", node.children));
    }
    if w != *oracle || !view.matches_rebuild(&w) {
        return Err("layer replay differs from the oracle".to_owned());
    }
    Ok(per_stage)
}

/// Apply one batch twice — on a scratch copy with no observer (the
/// applier alone), then on the replay's instance with its view observing
/// (applier plus view maintenance). Returns the observed time.
fn batch(
    tr: &mut Tracer,
    w: &mut Instance,
    view: &mut DatabaseView,
    node: &mut ProfileNode,
    apply: impl Fn(&mut Instance, &mut dyn DeltaObserver),
) -> f64 {
    let mut scratch = w.clone();
    let ((), null_ms) = timed(node, "core.apply_batch", || {
        apply(&mut scratch, &mut NullObserver)
    });
    let ((), viewed_ms) = timed(node, "core.apply_batch+relalg.view_maintain", || {
        apply(w, view)
    });
    tr.add("core.apply_batch_ms", null_ms);
    tr.add("relalg.view_maintain_ms", viewed_ms - null_ms);
    viewed_ms
}

fn cursor_var(stmt: &SqlStatement) -> &str {
    match stmt {
        SqlStatement::ForEach { var, .. } => var,
        _ => "t",
    }
}

/// What a receiver-by-receiver stage does to each receiver that passes
/// its guard.
enum CursorBody<'a> {
    /// Replace the property's edges with the subquery's values.
    Update(receivers_objectbase::PropId, &'a Select),
    /// Delete the receiver (edges cascade).
    Delete,
}

/// An interpreted cursor stage: the loop the driver runs, guard and
/// values evaluated per receiver against the mutating instance.
struct Cursor<'a> {
    var: &'a str,
    table: &'a TableInfo,
    catalog: &'a Catalog,
    guard: Option<&'a Condition>,
}

impl Cursor<'_> {
    fn run(
        &self,
        tr: &mut Tracer,
        w: &mut Instance,
        view: &mut DatabaseView,
        node: &mut ProfileNode,
        body: CursorBody<'_>,
    ) -> Result<f64, String> {
        let order: Vec<Oid> = w
            .class_members(self.table.class)
            .map(|t| Receiver::new(vec![t]))
            .collect::<ReceiverSet>()
            .canonical_order()
            .iter()
            .map(Receiver::receiving_object)
            .collect();
        let start_ns = obs::now_ns();
        let (mut eval_ms, mut txn_ms) = (0.0, 0.0);
        for tuple in order {
            let t = Instant::now();
            let scopes = vec![Binding {
                alias: self.var.to_owned(),
                table: self.table,
                tuple,
            }];
            let fire = match self.guard {
                Some(c) => {
                    eval_condition(c, &scopes, self.catalog, w).map_err(|e| e.to_string())?
                }
                None => true,
            };
            let values = match (&body, fire) {
                (CursorBody::Update(_, select), true) => {
                    eval_select(select, &scopes, self.catalog, w).map_err(|e| e.to_string())?
                }
                _ => Vec::new(),
            };
            eval_ms += ms(t);
            if !fire {
                continue;
            }
            let t = Instant::now();
            let mut txn = InstanceTxn::begin_observed(w, view);
            match &body {
                CursorBody::Update(prop, _) => {
                    let old: Vec<Oid> = txn.instance().successors(tuple, *prop).collect();
                    for v in old {
                        txn.remove_edge(&Edge::new(tuple, *prop, v));
                    }
                    for v in values {
                        txn.add_edge(Edge::new(tuple, *prop, v))
                            .map_err(|e| e.to_string())?;
                    }
                }
                CursorBody::Delete => {
                    txn.remove_object_cascade(tuple);
                }
            }
            txn.commit();
            txn_ms += ms(t);
        }
        tr.add("sql.eval.cursor_ms", eval_ms);
        tr.add("objectbase.txn_ms", txn_ms);
        for (name, wall) in [("sql.eval.cursor", eval_ms), ("objectbase.txn", txn_ms)] {
            let mut n = ProfileNode::new(name, "layer");
            n.start_ns = start_ns;
            n.wall_ns = (wall * 1e6) as u64;
            node.children.push(n);
        }
        Ok(eval_ms + txn_ms)
    }
}
