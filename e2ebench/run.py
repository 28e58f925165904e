#!/usr/bin/env python3
"""Build and run the receivers end-to-end benchmark.

Run one workload (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Run a set of runs, one seed each, and summarize their spread:

    python3 e2ebench/run.py sweep --runs 10 --out a.jsonl

Compare two sets against the bounds in BENCHMARK.json:

    python3 e2ebench/run.py compare a.jsonl b.jsonl

Run from the repository root. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default .bench_build); the durable stores and traces
go under that directory too.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ["mixed", "adhoc", "cursor", "correlated"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary (a no-op when up to date); its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, check=True, stdout=sys.stderr)
    return os.path.join(target_dir(), "release", "e2e")


def workload_command(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(target_dir(), "e2e-work"),
            "--trace-out", os.path.join(target_dir(), "e2e-trace")]


def workload_env():
    # One runtime thread. On the two-vCPU VM this was tuned on, waking
    # the runtime's second worker takes 1-5 ms whenever the host is busy,
    # which made compile times bimodal (cursor compile_ms spread 26-48%
    # across runs with two threads); no workload reaches a shard worker
    # lane, so the sharded driver loses nothing.
    return dict(os.environ, RECEIVERS_RT_THREADS="1")


def run_one(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            sys.exit("run.py: unknown argument %r" % flag)
        args[flag] = next(it, None)
        if args[flag] is None:
            sys.exit("run.py: %s needs a value" % flag)
    missing = [f for f in ("--workload", "--seed", "--seconds", "--trace") if f not in args]
    if missing:
        sys.exit("run.py: missing %s" % ", ".join(missing))
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed (%s)" % e)
    cmd = workload_command(binary, args["--workload"], args["--seed"],
                           args["--seconds"], args["--trace"])
    return subprocess.call(cmd, env=workload_env())


def quartile_spread(values):
    """IQR as a share of the median, as statistics.quantiles(n=4) gives it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def load_bounds():
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_set(path):
    """{(workload, metric): [values]} and {workload: [host_ref_ms]}."""
    values, host = {}, {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            w = rec["workload"]
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            host.setdefault(w, []).append(rec["detail"]["host_ref_ms"]["p50"])
    return values, host


def summarize_set(path):
    bounds = load_bounds()
    values, host = load_set(path)
    print("%-11s %-17s %12s %8s %7s" % ("workload", "metric", "median", "iqr/med", "bound"))
    for (w, name), vs in sorted(values.items()):
        b = bounds[name]["bound"]
        spread = quartile_spread(vs)
        flag = "" if name == "setup_s" or spread <= b / 3 else "  > bound/3"
        print("%-11s %-17s %12.4f %7.2f%% %6.0f%%%s" % (
            w, name, statistics.median(vs), 100 * spread, 100 * b, flag))
    for w, hs in sorted(host.items()):
        print("%-11s %-17s %12.4f %7.2f%%" % (w, "host_ref_ms", statistics.median(hs),
                                           100 * quartile_spread(hs)))


def sweep(argv):
    opts = {"--runs": "10", "--seconds": "20", "--trace": "0", "--seed-base": "1",
            "--out": None, "--workloads": ",".join(WORKLOADS)}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit("run.py sweep: unknown argument %r" % flag)
        opts[flag] = next(it, None)
    if not opts["--out"]:
        sys.exit("run.py sweep: --out <file.jsonl> is required")
    binary = build()
    base = int(opts["--seed-base"])
    with open(opts["--out"], "a") as out:
        for k in range(int(opts["--runs"])):
            # Seeds outer, workloads inner: a slow period of the host
            # lands on every workload.
            for w in opts["--workloads"].split(","):
                seed = base + k
                cmd = workload_command(binary, w, seed, opts["--seconds"], opts["--trace"])
                proc = subprocess.run(cmd, env=workload_env(), stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                detail = next((json.loads(l[len("e2e-detail "):]) for l in lines
                               if l.startswith("e2e-detail ")), None)
                result = json.loads(lines[-1]) if lines else None
                rec = {"workload": w, "seed": seed, "trace": opts["--trace"] == "1",
                       "exit": proc.returncode, "detail": detail, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print("%s seed %d: exit %d" % (w, seed, proc.returncode), file=sys.stderr)
    if opts["--trace"] == "0":
        summarize_set(opts["--out"])


def compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare <a.jsonl> <b.jsonl>")
    bounds = load_bounds()
    (a, host_a), (b, host_b) = load_set(argv[0]), load_set(argv[1])
    print("%-11s %-17s %12s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "verdict"))
    verdicts = []
    for key in sorted(set(a) & set(b)):
        w, name = key
        bound = bounds[name]["bound"]
        lower = bounds[name]["better"] == "lower"
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if ma else 0.0
        worse = change if lower else -change
        sa, sb = quartile_spread(a[key]), quartile_spread(b[key])
        if max(sa, sb) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
        else:
            verdict = "ok"
        verdicts.append(verdict)
        print("%-11s %-17s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%%  %s" % (
            w, name, ma, mb, 100 * change, 100 * sa, 100 * sb, verdict))
    for w in sorted(set(host_a) & set(host_b)):
        print("%-11s %-17s %12.4f %12.4f %+7.2f%%  (host reference, diagnostic)" % (
            w, "host_ref_ms", statistics.median(host_a[w]), statistics.median(host_b[w]),
            100 * (statistics.median(host_b[w]) / statistics.median(host_a[w]) - 1)))
    print("%d ok, %d worse, %d unresolved" % (
        verdicts.count("ok"), verdicts.count("worse"), verdicts.count("unresolved")))
    return 1 if "worse" in verdicts else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["sweep"]:
        return sweep(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
