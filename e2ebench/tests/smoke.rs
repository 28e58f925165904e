//! Every workload for two rounds at reduced size, untraced and traced,
//! through the same code the benchmark runs: each run is correct, emits
//! exactly the metric names `BENCHMARK.json` declares, and prints a
//! result line of the required shape; each traced run writes a profile
//! that parses back as a closed tree.

use std::path::PathBuf;

use receivers_e2e_bench::engine::{run, Config};
use receivers_e2e_bench::result_json;
use receivers_e2e_bench::trace::check_profile;
use receivers_e2e_bench::workloads::Workload;
use receivers_obs::json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

/// Small enough for a quick test, large enough that every fixed
/// workload keeps its planner shape.
fn small(w: Workload) -> u32 {
    match w {
        Workload::Mixed => 64,
        _ => 32,
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let doc = benchmark_json();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared(&doc, "workloads"), names);

    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    for trace in [false, true] {
        let want = declared(&doc, if trace { "per_layer" } else { "end_to_end" });
        for w in Workload::ALL {
            let cfg = Config {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
                employees: Some(small(w)),
                rounds: Some(2),
                work_dir: tmp.join("work"),
                trace_out: Some(tmp.join("trace")),
            };
            let report = run(&cfg);
            let label = format!("{} (trace {trace})", w.name());
            assert!(report.correct(), "{label}: {:?}", report.errors);
            let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{label}: emitted metrics");

            let line = Value::parse(&result_json(&report)).expect("result line parses");
            let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{label}"
            );
            assert_eq!(
                line.get("failed").and_then(Value::as_u64),
                Some(0),
                "{label}"
            );

            if trace {
                let path = tmp
                    .join("trace")
                    .join(format!("{}-3.profile.json", w.name()));
                let profile = std::fs::read_to_string(&path).expect("traced run writes a profile");
                check_profile(&profile).unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}
