//! A durable run end to end: WAL-logged method application over real
//! files, a compacting checkpoint, a simulated restart, and bit-identical
//! recovery — the "Restarting a run" quickstart of the README.
//!
//! ```sh
//! cargo run --example durability
//! # keep the store around and look at the files:
//! cargo run --example durability -- --dir /tmp/receivers-store
//! # with observability output:
//! cargo run --example durability -- --metrics
//! ```

use std::sync::Arc;

use receivers::core::methods::{add_bar, delete_bar};
use receivers::objectbase::examples::{beer_schema, figure2};
use receivers::objectbase::Receiver;
use receivers::relalg::view::DatabaseView;
use receivers::wal::{DirStorage, DurableStore, WalConfig};

fn main() {
    let (obs_cli, rest) = match receivers::obs::cli::ObsCli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("durability: {e}");
            std::process::exit(2);
        }
    };
    let mut dir: Option<std::path::PathBuf> = None;
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = Some(d.into()),
                None => {
                    eprintln!("durability: --dir needs a path");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!(
                    "usage: durability [--dir <store-dir>] [--trace <out.json>] \
                     [--metrics] [--metrics-json <out.json>]"
                );
                std::process::exit(2);
            }
        }
    }
    let keep = dir.is_some();
    let root = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("receivers-durability-{}", std::process::id()))
    });

    let s = beer_schema();
    let (initial, o) = figure2(&s);

    // A store over real files: epoch-1 snapshot of Figure 2, then every
    // applied unit goes through the WAL as one record — the in-memory
    // driver keeps the unit's delta log, and `DurableStore::commit` logs
    // it. A unit that is not applied, or whose record cannot be written,
    // is undone and leaves nothing in the log.
    let cfg = WalConfig {
        group_commit: 2,
        snapshot_every: 0,
    };
    let storage = DirStorage::open(&root).expect("store directory");
    let mut store =
        DurableStore::create(storage, Arc::clone(&s.schema), cfg, &initial).expect("fresh store");
    println!("store created under {}", root.display());
    println!("  epoch {}, wal file {}", store.epoch(), store.wal_file());

    let mut working = initial.clone();
    let mut view = DatabaseView::new(&working);

    // Run 1: Drinker₁ starts frequenting the one bar Figure 2 leaves
    // unfrequented.
    let m = add_bar(&s);
    let order = vec![Receiver::new(vec![o.d1, o.bar3])];
    let mut log = Vec::new();
    assert!(m
        .apply_sequence_logged(&mut working, &mut view, &order, &mut log)
        .is_applied());
    store
        .commit(&log, view.database())
        .expect("durable add_bar");
    println!(
        "after add_bar(d1, bar3): {} bars frequented, last_seq {}",
        working.successors(o.d1, s.frequents).count(),
        store.last_seq()
    );

    // A compacting checkpoint: new-epoch snapshot, manifest swing, old
    // epoch files removed. Recovery after this point replays nothing.
    store.checkpoint(&working).expect("compacting checkpoint");
    println!(
        "checkpointed: epoch {}, wal file {}",
        store.epoch(),
        store.wal_file()
    );

    // Run 2: drop the first of the original bars again — this record
    // lives only in the new epoch's WAL tail.
    let d = delete_bar(&s);
    let order = vec![Receiver::new(vec![o.d1, o.bar1])];
    let mut log = Vec::new();
    assert!(d
        .apply_sequence_logged(&mut working, &mut view, &order, &mut log)
        .is_applied());
    store
        .commit(&log, view.database())
        .expect("durable delete_bar");
    store.sync().expect("force the tail durable");
    println!(
        "after delete_bar(d1, bar1): {} bars frequented, last_seq {}",
        working.successors(o.d1, s.frequents).count(),
        store.last_seq()
    );

    // "Restart": forget everything in memory and recover from the files
    // alone — manifest, snapshot, WAL tail.
    drop(store);
    let storage = DirStorage::open(&root).expect("store directory");
    let (_store, recovered, rview, report) =
        DurableStore::open(storage, Arc::clone(&s.schema), cfg).expect("recovery");
    println!(
        "recovered: epoch {}, last_seq {}, {} records / {} ops replayed",
        report.epoch, report.last_seq, report.records_replayed, report.ops_replayed
    );

    assert_eq!(recovered, working, "recovery is bit-identical");
    assert!(
        rview.matches_rebuild(&recovered),
        "recovered view matches a fresh rebuild"
    );
    recovered.check_index_consistent();
    println!("recovered instance equals the in-memory run: true");
    println!(
        "recovered view matches a fresh relational rebuild: true ({} bars frequented)",
        recovered.successors(o.d1, s.frequents).count()
    );

    if keep {
        println!("store kept under {}", root.display());
    } else {
        let _ = std::fs::remove_dir_all(&root);
    }

    if let Err(e) = obs_cli.finish() {
        eprintln!("durability: writing observability output: {e}");
        std::process::exit(2);
    }
}
