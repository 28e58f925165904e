//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. The
//! line before it (`e2e-detail {...}`) carries sample counts, tails and
//! the host reference timing; a human summary goes to standard error.
//! Exits 1 when any check failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use receivers_e2e_bench::engine::{self, Config, Report};
use receivers_e2e_bench::result_json;
use receivers_e2e_bench::stats::Summary;
use receivers_e2e_bench::workloads::Workload;

const USAGE: &str = "usage: e2e --workload <mixed|adhoc|cursor|correlated> --seed <n> \
                     --seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-out <dir>]";

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Mixed,
        seed: 0,
        seconds: 10.0,
        trace: false,
        employees: None,
        rounds: None,
        work_dir: PathBuf::from(".bench_build/e2e-work"),
        trace_out: Some(PathBuf::from(".bench_build/e2e-trace")),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--work-dir" => cfg.work_dir = value.into(),
            "--trace-out" => cfg.trace_out = Some(value.into()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn summary_json(s: &Summary) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!(", \"tail_pct\": {p}, \"tail\": {v}"),
        None => String::new(),
    };
    format!("{{\"n\": {}, \"p50\": {}{tail}}}", s.n, s.p50)
}

fn print_report(cfg: &Config, report: &Report) {
    eprintln!(
        "e2e {} seed {}{}: {} round(s), {} execution(s), {} failed",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { " (traced)" } else { "" },
        report.rounds,
        report.attempted,
        report.failed
    );
    for (name, s) in &report.detail {
        let tail = s
            .tail
            .map(|(p, v)| format!("  p{p}={v:.4}"))
            .unwrap_or_default();
        eprintln!("  {name:<12} p50={:.4}{tail}  n={}", s.p50, s.n);
    }
    eprintln!(
        "  host_ref_ms  p50={:.4}  n={}  (the reference the timings were rescaled by)",
        report.host_ref_ms.p50, report.host_ref_ms.n
    );
    for m in &report.metrics {
        eprintln!("  {} = {:.6} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("  error: {e}");
    }
    let samples: Vec<String> = report
        .detail
        .iter()
        .map(|(name, s)| format!("\"{name}\": {}", summary_json(s)))
        .collect();
    println!(
        "e2e-detail {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rounds\": {}, \
         \"host_ref_ms\": {}, \"samples\": {{{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        report.rounds,
        summary_json(&report.host_ref_ms),
        samples.join(", ")
    );
    println!("{}", result_json(report));
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = engine::run(&cfg);
    print_report(&cfg, &report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
