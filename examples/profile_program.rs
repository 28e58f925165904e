//! EXPLAIN / EXPLAIN ANALYZE end to end: one mixed six-statement program
//! compiled once and run through all three drivers — sequential viewed,
//! sharded, durable — with the static plan tree and a measured profile
//! for each, plus the flight recorder's panic and recovery dumps. The
//! "Profiling a program" quickstart of the README.
//!
//! ```sh
//! # static EXPLAIN only (nothing executes twice):
//! cargo run --example profile_program -- --explain-plan
//! # EXPLAIN ANALYZE on all three drivers, human tree to stderr:
//! cargo run --example profile_program -- --profile
//! # machine-readable round-trips:
//! cargo run --example profile_program -- --explain-json explain.json \
//!     --profile-json profile.json --profile-chrome profile-trace.json
//! # flight recorder: keep the last completed profiles in a crash ring
//! # and dump them from the panic hook:
//! RECEIVERS_FLIGHT=1 RECEIVERS_FLIGHT_DUMP=flight.json \
//!     cargo run --example profile_program -- --profile --panic
//! ```

use std::sync::Arc;

use receivers::core::shard::ShardConfig;
use receivers::obs;
use receivers::relalg::view::DatabaseView;
use receivers::sql::catalog::employee_catalog;
use receivers::sql::scenarios::section7_instance;
use receivers::sql::{compile_program, parse};
use receivers::wal::{DirStorage, DurableStore, WalConfig};

/// The mixed program: every stage kind and every planner pass fires —
/// netting (statement 4 kills statement 2's store), selector CSE
/// (statements 1 and 2 share a guard), the improve rewrite (statement 3
/// becomes one vectorized `par(E)` stage), and a guarded cursor loop.
const MIXED_PROGRAM: &[&str] = &[
    "update Employee set Manager = \
     (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId) \
     where Salary in table Fire",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary in table Fire",
    "for each t in Employee do update t set Salary = \
     (select New from NewSal where Old = Salary)",
    "update Employee set Salary = (select Amount from Fire)",
    "update Employee set Salary = (select New from NewSal where Old = Salary) \
     where Salary not in table Fire",
    "for each t in Employee do if Manager = EmpId update t set Salary = \
     (select New from NewSal where Old = Salary)",
];

fn main() {
    let (cli, rest) = match obs::cli::ObsCli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("profile_program: {e}");
            std::process::exit(2);
        }
    };
    let mut dir: Option<std::path::PathBuf> = None;
    let mut do_panic = false;
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = Some(d.into()),
                None => {
                    eprintln!("profile_program: --dir needs a path");
                    std::process::exit(2);
                }
            },
            "--panic" => do_panic = true,
            _ => {
                eprintln!(
                    "usage: profile_program [--dir <store-dir>] [--panic] \
                     [--explain-plan] [--explain-json <out.json>] [--profile] \
                     [--profile-json <out.json>] [--profile-chrome <out.json>] \
                     [--trace <out.json>] [--metrics] [--metrics-json <out.json>]"
                );
                std::process::exit(2);
            }
        }
    }
    // The flight recorder survives panics: completed root spans and
    // profiles land in the crash ring, and the hook dumps the ring
    // (human to stderr, JSON to $RECEIVERS_FLIGHT_DUMP) on the way down.
    obs::flight::install_panic_hook();

    let keep = dir.is_some();
    let root = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("receivers-profile-{}", std::process::id()))
    });

    let (es, catalog) = employee_catalog();
    let stmts: Vec<_> = MIXED_PROGRAM
        .iter()
        .map(|t| parse(t).expect("pool statement parses"))
        .collect();
    let plan = compile_program(&stmts, &catalog).expect("program compiles");
    let (i0, _) = section7_instance(&es);
    println!(
        "compiled {} statements into {} stages ({} netted, {} sharing a selector)",
        stmts.len(),
        plan.stages().len(),
        plan.stages().iter().filter(|s| s.netted()).count(),
        plan.stages().iter().filter(|s| s.shared_selector()).count(),
    );

    // EXPLAIN: the static plan tree — planner decisions with their
    // proofs and footprints.
    if cli.explain_requested() {
        if let Err(e) = cli.export_explain(&plan.explain()) {
            eprintln!("profile_program: writing explain output: {e}");
            std::process::exit(2);
        }
    }

    // EXPLAIN ANALYZE: the same execution each driver always does, with
    // a per-stage measurement tree collected alongside.
    let mut viewed = i0.clone();
    let mut view = DatabaseView::new(&viewed);
    let (out, viewed_prof) = plan
        .execute_viewed_profiled(&mut viewed, &mut view)
        .expect("viewed driver");
    assert!(out.is_applied());
    assert!(view.matches_rebuild(&viewed));

    let mut sharded = i0.clone();
    let (out, sharded_prof) = plan
        .execute_sharded_profiled(&mut sharded, &ShardConfig::default())
        .expect("sharded driver");
    assert!(out.is_applied());
    assert_eq!(sharded, viewed, "sharded driver is bit-identical");

    let storage = DirStorage::open(&root).expect("store directory");
    let mut store =
        DurableStore::create(storage, Arc::clone(&es.schema), WalConfig::default(), &i0)
            .expect("fresh store");
    let mut durable = i0.clone();
    let mut dview = DatabaseView::new(&durable);
    let (out, durable_prof) = plan
        .execute_durable_profiled(&mut durable, &mut dview, &mut store)
        .expect("durable driver");
    assert!(out.is_applied());
    assert_eq!(durable, viewed, "durable driver is bit-identical");
    let wal = store.stats();
    println!(
        "all three drivers agree; WAL: {} record(s), {} byte(s), {} sync(s)",
        wal.records, wal.bytes, wal.syncs
    );

    // One document for the whole session: the three driver trees under a
    // single root, so the JSON/Chrome outputs compare drivers side by
    // side.
    let mut session = obs::ProfileNode::new("profile_program", "session");
    session.start_ns = viewed_prof.start_ns;
    session.wall_ns = viewed_prof.wall_ns + sharded_prof.wall_ns + durable_prof.wall_ns;
    session.children = vec![viewed_prof, sharded_prof, durable_prof];
    if cli.profile_requested() {
        if let Err(e) = cli.export_profile(&session) {
            eprintln!("profile_program: writing profile output: {e}");
            std::process::exit(2);
        }
    }

    // "Restart": recover the durable run from the files alone. With the
    // flight recorder on, recovery leaves a `wal.recovery` entry in the
    // ring and dumps it to $RECEIVERS_FLIGHT_DUMP.
    drop(store);
    let storage = DirStorage::open(&root).expect("store directory");
    let (_store, recovered, rview, report) =
        DurableStore::open(storage, Arc::clone(&es.schema), WalConfig::default())
            .expect("recovery");
    assert_eq!(recovered, durable, "recovery is bit-identical");
    assert!(rview.matches_rebuild(&recovered));
    println!(
        "recovered: epoch {}, {} record(s) / {} op(s) replayed",
        report.epoch, report.records_replayed, report.ops_replayed
    );

    if keep {
        println!("store kept under {}", root.display());
    } else {
        let _ = std::fs::remove_dir_all(&root);
    }

    if do_panic {
        panic!("deliberate crash: the flight recorder dumps the ring from the panic hook");
    }

    if let Err(e) = cli.finish() {
        eprintln!("profile_program: writing observability output: {e}");
        std::process::exit(2);
    }
}
