//! One workload process: set-up, the closed loop of timed rounds, and
//! the correctness gate.
//!
//! One client, no think time. Every program execution applies the
//! program to a fresh copy of the seeded base state; the copies, view
//! builds and store creations happen outside the timed calls. Each
//! round rotates the order of the three driver arms so a slow period of
//! the host lands on all of them.
//!
//! Timed calls are measured in process CPU time and rescaled by the
//! reference computation timed at each round's boundaries (see
//! [`crate::clock`]).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use receivers_core::sequential::apply_seq_unchecked;
use receivers_core::shard::ShardConfig;
use receivers_objectbase::examples::EmployeeSchema;
use receivers_objectbase::{DeltaOp, InPlaceOutcome, Instance, MethodOutcome, Oid};
use receivers_obs as obs;
use receivers_relalg::view::DatabaseView;
use receivers_sql::catalog::employee_catalog;
use receivers_sql::plan::reset_proof_cache;
use receivers_sql::SqlStatement;
use receivers_sql::{compile, compile_program, parse, Catalog, CompiledStatement, ProgramPlan};
use receivers_wal::{
    decode_log, encode_record, DirStorage, DurableStore, FaultStorage, Record, RecoveryReport,
    WalConfig, WalStats, WalStorage,
};

use crate::clock::{cpu_ms, cpu_since, Reference};
use crate::heap;
use crate::stats::{summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{adhoc_round, check_shape, employee_instance, Rng, Workload};

/// The flush policy: every commit fsync'd, a checkpoint every 64 records.
pub(crate) const WAL: WalConfig = WalConfig {
    group_commit: 1,
    snapshot_every: 64,
};

/// Shards of the sharded driver (the host has two cores).
pub(crate) const SHARDS: usize = 2;

/// Untimed rounds that end every set-up, so caches fill and lazy
/// initialisation finishes before timing.
pub(crate) const WARMUP_ROUNDS: usize = 3;

/// Set-ups per process; `setup_s` is their median.
pub(crate) const SETUPS: usize = 3;

/// Timed rounds a time-bounded run makes at least.
pub(crate) const MIN_ROUNDS: usize = 5;

/// The end-to-end metrics, `(name, unit)`, in reporting order.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_ms", "ms"),
    ("viewed_ms", "ms"),
    ("sharded_ms", "ms"),
    ("durable_ms", "ms"),
    ("recover_ms", "ms"),
    ("wal_bytes_per_op", "B/op"),
    ("peak_heap_mb", "MB"),
];

/// What one process runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The only input: every instance and program derives from it.
    pub seed: u64,
    /// How long the timed rounds run.
    pub seconds: f64,
    /// Run the traced per-layer variant instead of the end-to-end one.
    pub trace: bool,
    /// Employees in the base instance, overriding the workload's size
    /// (the smoke test runs small).
    pub employees: Option<u32>,
    /// Run exactly this many timed rounds instead of `seconds`.
    pub rounds: Option<usize>,
    /// Scratch directory for the durable stores.
    pub work_dir: PathBuf,
    /// Where the traced run writes its profile and Chrome trace.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one process measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Program executions attempted in timed rounds.
    pub attempted: u64,
    /// Executions that errored, did not apply, or disagreed with the
    /// oracle.
    pub failed: u64,
    /// Failures outside the timed executions (workload shape, trace
    /// validation) and the first execution failures.
    pub errors: Vec<String>,
    /// Timed rounds run.
    pub rounds: usize,
    /// The end-to-end metrics, or the per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Sample summaries behind the medians, for the human report.
    pub detail: Vec<(&'static str, Summary)>,
    /// The reference computation's CPU time, one sample per round
    /// boundary: what the timings were rescaled by.
    pub host_ref_ms: Summary,
}

impl Report {
    /// No execution failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Milliseconds since `t`.
pub(crate) fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn hash_of(i: &Instance) -> u64 {
    let mut h = DefaultHasher::new();
    i.hash(&mut h);
    h.finish()
}

pub(crate) fn applied(what: &str, out: InPlaceOutcome) -> Result<(), String> {
    match out {
        InPlaceOutcome::Applied => Ok(()),
        other => Err(format!("{what}: not applied: {other:?}")),
    }
}

fn done(what: &str, out: MethodOutcome) -> Result<Instance, String> {
    match out {
        MethodOutcome::Done(i) => Ok(i),
        other => Err(format!("{what}: {other}")),
    }
}

/// Parse a program's statement texts.
pub(crate) fn parse_all(texts: &[String]) -> Result<Vec<SqlStatement>, String> {
    texts
        .iter()
        .map(|t| parse(t).map_err(|e| format!("parse `{t}`: {e}")))
        .collect()
}

/// The engine inputs of one process.
pub(crate) struct Ctx {
    /// The workload.
    pub(crate) workload: Workload,
    /// The Section 7 schema.
    es: EmployeeSchema,
    /// The employee catalog.
    pub(crate) catalog: Catalog,
    /// The seeded base state every execution starts from.
    pub(crate) base: Instance,
    /// The sharded driver's configuration.
    pub(crate) shard: ShardConfig,
    work_dir: PathBuf,
    stores: u64,
    adhoc: Rng,
}

impl Ctx {
    fn new(cfg: &Config, work_dir: &Path) -> Ctx {
        let (es, catalog) = employee_catalog();
        let n = cfg.employees.unwrap_or(cfg.workload.employees());
        let base = employee_instance(&es, n, cfg.workload.salaries(), &mut Rng::new(cfg.seed, 1));
        Ctx {
            workload: cfg.workload,
            es,
            catalog,
            base,
            shard: ShardConfig {
                shards: Some(SHARDS),
                ..ShardConfig::default()
            },
            work_dir: work_dir.to_owned(),
            stores: 0,
            adhoc: Rng::new(cfg.seed, 2),
        }
    }

    /// The programs of the next round.
    fn round_programs(&mut self) -> Vec<Vec<String>> {
        match self.workload.fixed_program() {
            Some(texts) => vec![texts],
            None => adhoc_round(&mut self.adhoc),
        }
    }

    /// A fresh durable store over the base state, in its own directory.
    fn create_store(&mut self) -> Result<(PathBuf, DurableStore<DirStorage>), String> {
        self.stores += 1;
        let dir = self.work_dir.join(format!("store-{}", self.stores));
        let storage = DirStorage::open(&dir).map_err(|e| format!("store dir: {e}"))?;
        let store = DurableStore::create(storage, Arc::clone(&self.es.schema), WAL, &self.base)
            .map_err(|e| format!("store create: {e}"))?;
        Ok((dir, store))
    }
}

/// What a program must produce, computed outside timing and
/// independently of the drivers under test.
pub(crate) struct Expected {
    /// The per-statement oracle: each statement compiled on its own and
    /// applied functionally — `SetUpdate`/`SetDelete::apply`, cursor forms
    /// through `apply_seq_unchecked` — the path the planner replaced.
    pub(crate) oracle: Instance,
    oracle_hash: u64,
    /// The program's WAL records, logged into memory without checkpoints.
    pub(crate) records: Vec<Record>,
    /// Their encoded size.
    wal_bytes: u64,
    /// Delta ops across them.
    pub(crate) delta_ops: u64,
}

impl Expected {
    /// Compute the oracle and the WAL census of `texts` on `ctx.base`.
    fn compute(ctx: &Ctx, texts: &[String]) -> Result<Expected, String> {
        let stmts = parse_all(texts)?;
        let mut i = ctx.base.clone();
        for stmt in &stmts {
            let compiled =
                compile(stmt, &ctx.catalog).map_err(|e| format!("oracle compile: {e}"))?;
            i = match compiled {
                CompiledStatement::SetDelete(sd) => sd.apply(&i).map_err(|e| e.to_string())?,
                CompiledStatement::SetUpdate(su) => su.apply(&i).map_err(|e| e.to_string())?,
                CompiledStatement::CursorDelete(cd) => done(
                    "oracle cursor delete",
                    apply_seq_unchecked(&cd.method(), &i, &cd.receivers(&i)),
                )?,
                CompiledStatement::CursorUpdate(cu) => done(
                    "oracle cursor update",
                    apply_seq_unchecked(&cu.interpreted_method(), &i, &cu.receivers(&i)),
                )?,
            };
        }

        // The WAL census: one in-memory segment, so every record of the
        // program stays readable.
        let plan = compile_program(&stmts, &ctx.catalog).map_err(|e| e.to_string())?;
        let no_checkpoints = WalConfig {
            snapshot_every: 0,
            ..WAL
        };
        let mut store = DurableStore::create(
            FaultStorage::new(),
            Arc::clone(&ctx.es.schema),
            no_checkpoints,
            &ctx.base,
        )
        .map_err(|e| e.to_string())?;
        let mut w = ctx.base.clone();
        let mut v = DatabaseView::new(&w);
        let out = plan
            .execute_durable(&mut w, &mut v, &mut store)
            .map_err(|e| format!("census: {e}"))?;
        applied("census", out)?;
        let bytes = store
            .storage()
            .read(&store.wal_file())
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        let log = decode_log(&bytes, 1);
        if let Some(torn) = log.torn {
            return Err(format!("census WAL does not decode: {torn}"));
        }
        let oracle_hash = hash_of(&i);
        Ok(Expected {
            oracle: i,
            oracle_hash,
            delta_ops: log.records.iter().map(|r| r.ops.len() as u64).sum(),
            records: log.records,
            wal_bytes: bytes.len() as u64,
        })
    }

    fn check(&self, what: &str, got: &Instance) -> Result<(), String> {
        if *got != self.oracle || hash_of(got) != self.oracle_hash {
            return Err(format!(
                "{what} instance differs from the per-statement oracle"
            ));
        }
        Ok(())
    }
}

/// The timed calls of one program execution, in CPU milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Arms {
    /// `parse` of every statement.
    pub(crate) parse_ms: f64,
    /// `compile_program`.
    pub(crate) program_ms: f64,
    /// `ProgramPlan::execute_viewed`.
    pub(crate) viewed_ms: f64,
    /// `ProgramPlan::execute_sharded`.
    pub(crate) sharded_ms: f64,
    /// `execute_durable` plus the final `sync`.
    durable_ms: f64,
    /// `DurableStore::open` on the torn store.
    recover_ms: f64,
}

/// One execution's results, kept for the correctness gate.
pub(crate) struct Run {
    /// The compiled program.
    pub(crate) plan: ProgramPlan,
    /// Its statements.
    pub(crate) stmts: Vec<SqlStatement>,
    /// Timings.
    pub(crate) arms: Arms,
    /// WAL accounting of the durable arm.
    pub(crate) wal: WalStats,
    viewed: (Instance, DatabaseView),
    sharded: Instance,
    durable: (Instance, DatabaseView),
    recovered: (Instance, DatabaseView),
    report: RecoveryReport,
    torn: u64,
    /// The most heap bytes the execution held at once beyond those live
    /// when it started.
    pub(crate) peak_heap: usize,
}

/// Execute one program through every arm: `parse` + `compile_program`,
/// the three drivers in `rotation` order, a simulated crash (drop the
/// store, append half a frame to its WAL) and `DurableStore::open`.
fn run_program(
    ctx: &mut Ctx,
    texts: &[String],
    rotation: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Run, String> {
    heap::reset_peak();
    let live_before = heap::live_bytes();
    let schema = Arc::clone(&ctx.es.schema);
    // The store first: its creation waits on fsyncs, and the copies after
    // it bring the thread back up to speed before the first timed call.
    let (dir, mut store) = ctx.create_store()?;
    let mut viewed = ctx.base.clone();
    let mut view = DatabaseView::new(&viewed);
    let mut sharded = ctx.base.clone();
    let mut durable = ctx.base.clone();
    let mut dview = DatabaseView::new(&durable);
    let mut arms = Arms::default();

    let proof0 = tracer.as_deref().map(|_| Tracer::proof_counters());
    let t = cpu_ms();
    let stmts = parse_all(texts)?;
    arms.parse_ms = cpu_since(t);
    let t = cpu_ms();
    let plan = compile_program(&stmts, &ctx.catalog).map_err(|e| format!("compile: {e}"))?;
    arms.program_ms = cpu_since(t);
    if let (Some(tr), Some(p0)) = (tracer.as_deref_mut(), proof0) {
        tr.compiled(&plan, &arms, p0);
    }

    for k in 0..3 {
        match (rotation + k) % 3 {
            0 => {
                let t = cpu_ms();
                let out = plan
                    .execute_viewed(&mut viewed, &mut view)
                    .map_err(|e| format!("viewed: {e}"))?;
                arms.viewed_ms = cpu_since(t);
                applied("viewed", out)?;
            }
            1 => {
                let t = cpu_ms();
                let out = plan
                    .execute_sharded(&mut sharded, &ctx.shard)
                    .map_err(|e| format!("sharded: {e}"))?;
                arms.sharded_ms = cpu_since(t);
                applied("sharded", out)?;
            }
            _ => {
                let t = cpu_ms();
                let out = match tracer.as_deref_mut() {
                    None => plan.execute_durable(&mut durable, &mut dview, &mut store),
                    Some(tr) => plan
                        .execute_durable_profiled(&mut durable, &mut dview, &mut store)
                        .map(|(out, tree)| {
                            tr.driver_tree("durable", tree);
                            out
                        }),
                }
                .map_err(|e| format!("durable: {e}"))?;
                store.sync().map_err(|e| format!("durable sync: {e}"))?;
                arms.durable_ms = cpu_since(t);
                applied("durable", out)?;
            }
        }
    }

    // The crash: the store goes away mid-append, leaving half a frame.
    let wal = store.stats();
    let wal_name = store.wal_file();
    let mut frame = Vec::new();
    encode_record(
        store.last_seq() + 1,
        &[DeltaOp::AddedNode(Oid::new(ctx.es.employee, u32::MAX))],
        &mut frame,
    );
    let torn = frame.len() / 2;
    let mut storage = store.into_storage();
    storage
        .append(&wal_name, &frame[..torn])
        .map_err(|e| format!("tearing the WAL: {e}"))?;
    if let Some(tr) = tracer.as_deref_mut() {
        tr.recovery_breakdown(&storage, &schema, &durable, torn as u64)?;
    }
    let t = cpu_ms();
    let (mut reopened, recovered, rview, report) =
        DurableStore::open(storage, Arc::clone(&schema), WAL)
            .map_err(|e| format!("recover: {e}"))?;
    arms.recover_ms = cpu_since(t);
    if let Some(tr) = tracer {
        tr.checkpoint(&mut reopened, &rview)?;
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let peak_heap = heap::peak_bytes().saturating_sub(live_before);

    Ok(Run {
        plan,
        stmts,
        arms,
        wal,
        viewed: (viewed, view),
        sharded,
        durable: (durable, dview),
        recovered: (recovered, rview),
        report,
        torn: torn as u64,
        peak_heap,
    })
}

/// The correctness gate of one execution: viewed, sharded, durable and
/// recovered instances all equal the oracle (`==` and hash), every
/// maintained view matches a rebuild, recovery truncated exactly the torn
/// bytes, and the durable arm logged exactly the census records.
fn check_run(run: &Run, exp: &Expected) -> Result<(), String> {
    exp.check("viewed", &run.viewed.0)?;
    exp.check("sharded", &run.sharded)?;
    exp.check("durable", &run.durable.0)?;
    exp.check("recovered", &run.recovered.0)?;
    for (what, (i, v)) in [
        ("viewed", &run.viewed),
        ("durable", &run.durable),
        ("recovered", &run.recovered),
    ] {
        if !v.matches_rebuild(i) {
            return Err(format!("{what} view differs from a rebuild"));
        }
    }
    if run.report.truncated_bytes != run.torn {
        return Err(format!(
            "recovery truncated {} byte(s), {} were torn",
            run.report.truncated_bytes, run.torn
        ));
    }
    if run.wal.bytes != exp.wal_bytes || run.wal.records != exp.records.len() as u64 {
        return Err(format!(
            "durable arm logged {} record(s) / {} byte(s), the census {} / {}",
            run.wal.records,
            run.wal.bytes,
            exp.records.len(),
            exp.wal_bytes
        ));
    }
    Ok(())
}

/// One set-up: generate the base state, then run the warm-up rounds —
/// the first compile (proof cache cold), view builds and store creations
/// included.
fn setup(cfg: &Config, work_dir: &Path) -> Result<Ctx, String> {
    reset_proof_cache();
    let mut ctx = Ctx::new(cfg, work_dir);
    for round in 0..WARMUP_ROUNDS {
        for texts in ctx.round_programs() {
            run_program(&mut ctx, &texts, round, None)?;
        }
    }
    Ok(ctx)
}

/// Run the shape assertion of a fixed workload on one profiled execution.
fn check_workload_shape(ctx: &Ctx, texts: &[String]) -> Result<(), String> {
    let Some(shape) = ctx.workload.shape() else {
        return Ok(());
    };
    let plan = compile_program(&parse_all(texts)?, &ctx.catalog).map_err(|e| e.to_string())?;
    let mut w = ctx.base.clone();
    let mut v = DatabaseView::new(&w);
    let (out, tree) = plan
        .execute_viewed_profiled(&mut w, &mut v)
        .map_err(|e| e.to_string())?;
    applied("shape probe", out)?;
    let rows: Vec<u64> = tree.children.iter().map(|c| c.rows_out).collect();
    check_shape(&plan, &shape, &rows).map_err(|e| format!("{} shape: {e}", ctx.workload.name()))
}

/// Per-round samples of the end-to-end timings: CPU milliseconds per
/// program, and the factor that rescales each round to the reference's
/// nominal speed. Also each round's peak heap per program, in MB.
#[derive(Default)]
struct Samples {
    heap_mb: Vec<f64>,
    compile: Vec<f64>,
    viewed: Vec<f64>,
    sharded: Vec<f64>,
    durable: Vec<f64>,
    recover: Vec<f64>,
    speed: Vec<f64>,
}

impl Samples {
    /// `raw`'s rounds, each rescaled by its round's speed factor.
    fn scaled(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter().zip(&self.speed).map(|(t, s)| t * s).collect()
    }
}

/// Run one workload process: `SETUPS` set-ups, the shape assertion, then
/// timed rounds until `cfg.seconds` (or `cfg.rounds`) are done.
pub fn run(cfg: &Config) -> Report {
    obs::set_enabled(false, cfg.trace);
    obs::set_profile_enabled(cfg.trace);
    obs::set_flight_enabled(false);
    let work_dir = cfg
        .work_dir
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let report = run_in(cfg, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    report
}

fn run_in(cfg: &Config, work_dir: &Path) -> Report {
    let mut report = Report {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        rounds: 0,
        metrics: Vec::new(),
        detail: Vec::new(),
        host_ref_ms: summarize(&[]),
    };

    // Every set-up and every round is rescaled by the reference timed
    // just before and just after it.
    let mut reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ctx = None;
    for _ in 0..SETUPS {
        let t = cpu_ms();
        match setup(cfg, work_dir) {
            Ok(c) => ctx = Some(c),
            Err(e) => {
                report.errors.push(format!("set-up: {e}"));
                return report;
            }
        }
        let cpu_s = cpu_since(t) / 1e3;
        setup_s.push(cpu_s * reference.speed());
    }
    let mut ctx = ctx.expect("SETUPS > 0");

    let fixed = match ctx.workload.fixed_program() {
        Some(texts) => {
            let exp =
                check_workload_shape(&ctx, &texts).and_then(|()| Expected::compute(&ctx, &texts));
            match exp {
                Ok(e) => Some(e),
                Err(e) => {
                    report.errors.push(e);
                    return report;
                }
            }
        }
        None => None,
    };

    let mut tracer = cfg.trace.then(Tracer::new);
    let mut samples = Samples::default();
    let (mut wal_bytes, mut delta_ops) = (0u64, 0u64);
    // The first round's span starts here, not before the shape check.
    reference.mark();
    let start = Instant::now();
    loop {
        let finished = match cfg.rounds {
            Some(n) => report.rounds >= n,
            None => report.rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= cfg.seconds,
        };
        if finished {
            break;
        }
        let programs = ctx.round_programs();
        let mut sum = Arms::default();
        let mut heap_bytes = 0usize;
        let mut ok = 0usize;
        for texts in &programs {
            report.attempted += 1;
            let outcome =
                run_program(&mut ctx, texts, report.rounds, tracer.as_mut()).and_then(|run| {
                    let adhoc;
                    let exp = match &fixed {
                        Some(e) => e,
                        None => {
                            adhoc = Expected::compute(&ctx, texts)?;
                            &adhoc
                        }
                    };
                    check_run(&run, exp)?;
                    if let Some(tr) = tracer.as_mut() {
                        tr.extras(&ctx, &run, exp)?;
                    }
                    Ok((run.arms, run.peak_heap, run.wal.bytes, exp.delta_ops))
                });
            match outcome {
                Ok((arms, peak_heap, bytes, ops)) => {
                    ok += 1;
                    heap_bytes += peak_heap;
                    sum.parse_ms += arms.parse_ms;
                    sum.program_ms += arms.program_ms;
                    sum.viewed_ms += arms.viewed_ms;
                    sum.sharded_ms += arms.sharded_ms;
                    sum.durable_ms += arms.durable_ms;
                    sum.recover_ms += arms.recover_ms;
                    wal_bytes += bytes;
                    delta_ops += ops;
                }
                Err(e) => {
                    report.failed += 1;
                    if report.errors.len() < 5 {
                        report.errors.push(format!("round {}: {e}", report.rounds));
                    }
                }
            }
        }
        let speed = reference.speed();
        if ok > 0 {
            let per = |x: f64| x / ok as f64;
            samples.compile.push(per(sum.parse_ms + sum.program_ms));
            samples.viewed.push(per(sum.viewed_ms));
            samples.sharded.push(per(sum.sharded_ms));
            samples.durable.push(per(sum.durable_ms));
            samples.recover.push(per(sum.recover_ms));
            samples.speed.push(speed);
            samples
                .heap_mb
                .push(heap_bytes as f64 / ok as f64 / (1024.0 * 1024.0));
        }
        if let Some(tr) = tracer.as_mut() {
            tr.end_round(ok);
        }
        report.rounds += 1;
    }
    report.host_ref_ms = summarize(reference.timings());

    report.detail = vec![
        ("setup_s", summarize(&setup_s)),
        ("compile_ms", summarize(&samples.scaled(&samples.compile))),
        ("viewed_ms", summarize(&samples.scaled(&samples.viewed))),
        ("sharded_ms", summarize(&samples.scaled(&samples.sharded))),
        ("durable_ms", summarize(&samples.scaled(&samples.durable))),
        ("recover_ms", summarize(&samples.scaled(&samples.recover))),
        ("peak_heap_mb", summarize(&samples.heap_mb)),
        ("viewed_cpu_ms", summarize(&samples.viewed)),
        ("speed", summarize(&samples.speed)),
    ];
    match tracer {
        Some(tr) => {
            report.metrics = tr.finish(&samples.viewed, cfg, &mut report.errors);
        }
        None => {
            let wal_bytes_per_op = wal_bytes as f64 / delta_ops.max(1) as f64;
            report.metrics = END_TO_END
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: match name {
                        "wal_bytes_per_op" => wal_bytes_per_op,
                        _ => report
                            .detail
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map(|(_, s)| s.p50)
                            .expect("every other metric is a median"),
                    },
                })
                .collect();
        }
    }
    report
}
