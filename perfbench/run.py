#!/usr/bin/env python3
"""Build and run the repository benchmark, or summarise its results.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload fleet-prod --seed 1 --seconds 20 --trace 0

Run a workload over several seeds and record every report line:

    python3 perfbench/run.py sweep --workload hot-warehouse --seeds 1-10 --out a.jsonl

Compare two recorded result sets metric by metric against the bounds in
BENCHMARK.json:

    python3 perfbench/run.py compare a.jsonl b.jsonl

Self-test: every workload at a tiny size, both trace modes, checking
that every metric BENCHMARK.json names is emitted:

    python3 perfbench/run.py selftest

The Go program builds from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build); the Go build cache
lives there too, so nothing is written outside the checkout.
"""

import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-prod", "hot-warehouse", "fleet-wide"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env():
    b = build_dir()
    env = dict(os.environ)
    os.makedirs(os.path.join(b, "tmp"), exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(b, "gocache"),
        "GOTMPDIR": os.path.join(b, "tmp"),
        "TMPDIR": os.path.join(b, "tmp"),
        "GOPATH": os.path.join(b, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(b, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
        "PPROF_TMPDIR": os.path.join(b, "tmp"),
    })
    return env


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: run from a checkout of the repository" % ROOT)
    exe = os.path.join(build_dir(), "perfbench", "perfbench")
    os.makedirs(os.path.dirname(exe), exist_ok=True)
    res = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=go_env(),
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    return exe


def run_once(exe, args):
    """Runs the benchmark program and returns (exit code, stdout lines).
    For a traced run it adds the CPU-by-layer metrics, split from the
    traced rounds' profiles, to the report and result lines."""
    state = os.path.join(build_dir(), "perfbench-state")
    profiles = os.path.join(state, "profiles")  # where the program writes them
    shutil.rmtree(profiles, ignore_errors=True)
    res = subprocess.run([exe, "-state", state] + args, cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    traced = flag(args, "-trace") == "1"
    if not traced or not lines or not lines[-1].startswith("{"):
        return res.returncode, lines
    paths = sorted(glob.glob(os.path.join(profiles, "*.pb.gz")))
    if not paths:
        return 1, lines[:-1] + ["perfbench: the traced run wrote no CPU profile"]
    cpu = split_profiles(paths)
    if cpu is None:
        return 1, lines[:-1] + ["perfbench: go tool pprof failed"]
    result = json.loads(lines[-1])
    for i, line in enumerate(lines):
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
            report["per_layer"].update(cpu)
            lines[i] = "report " + json.dumps(report)
    result["metrics"].update(cpu)
    table = ["layer  %-36s %14.6g %s" % (k, cpu[k]["value"], "s") for k in sorted(cpu)]
    ops = next(i for i, l in enumerate(lines) if l.startswith("operations "))
    return res.returncode, lines[:ops] + table + lines[ops:-1] + [json.dumps(result)]


# A traced round's CPU samples are charged to the innermost frame in one
# of these layers (the packages under kwo/internal/), so allocation and
# other runtime work counts for the layer that asked for it.
CPU_LAYERS = ["fleet", "experiments", "workload", "simclock", "cdw", "telemetry", "monitor",
              "costmodel", "core", "rl", "ml", "actuator", "obs"]


def split_profiles(paths):
    """Splits the CPU samples of the given profiles by layer, per
    profile (round): {layer}.cpu_s, other.cpu_s (no layer frame: GC
    workers, the scheduler), profile.cpu_s (the total) and
    obs.read_cpu_s (the scraper goroutine, i.e. the server's read work).
    Samples labelled perfbench=shadow are the benchmark's own work and
    are skipped."""
    res = subprocess.run(["go", "tool", "pprof", "-traces", "-unit=ns"] + paths, cwd=ROOT,
                         env=go_env(), stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        return None
    out = res.stdout
    secs = dict.fromkeys([l + ".cpu_s" for l in CPU_LAYERS + ["other", "profile"]] + ["obs.read_cpu_s"], 0.0)
    for block in out.split("-----------+")[1:]:
        labels, value, frames = {}, None, []
        for line in block.splitlines()[1:]:
            m = re.match(r"\s*([0-9.]+)ns\s+(\S.*)$", line)
            if value is None and m:
                value = float(m.group(1)) / 1e9
                frames.append(m.group(2))
            elif value is None:
                key, _, val = line.strip().partition(":")
                labels[key] = val.strip()
            else:
                frames.append(line.strip())
        if value is None or labels.get("perfbench") == "shadow":
            continue
        secs["profile.cpu_s"] += value
        if labels.get("perfbench") == "scrape":
            secs["obs.read_cpu_s"] += value
        secs[next((l for l in map(layer_of, frames) if l), "other") + ".cpu_s"] += value
    return {k: {"value": v / len(paths), "unit": "s"} for k, v in secs.items()}


def layer_of(frame):
    """Maps "kwo/internal/rl.(*Agent).trainStep" to "rl", or to None
    when the frame is outside the layers."""
    m = re.match(r"kwo/internal/([a-z0-9_]+)", frame)
    return m.group(1) if m and m.group(1) in CPU_LAYERS else None


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        return args[i + 1]
    return default


def sweep(args):
    """Runs one workload once per seed and appends each run's report
    (all metrics it measured, plus the result line) to --out."""
    workload = flag(args, "--workload")
    seeds = parse_seeds(flag(args, "--seeds", "1-10"))
    seconds = flag(args, "--seconds", str(load_bench()["run_seconds"]))
    trace = flag(args, "--trace", "0")
    out = flag(args, "--out")
    exe = build()
    with open(out, "a") as f:
        for seed in seeds:
            code, lines = run_once(exe, ["-workload", workload, "-seed", str(seed), "-seconds", seconds,
                                         "-trace", trace])
            report = next((json.loads(l[len("report "):]) for l in lines if l.startswith("report ")), None)
            if code != 0 or report is None:
                print("\n".join(lines))
                sys.exit("perfbench: %s seed %d failed (exit %d)" % (workload, seed, code))
            report["result"] = json.loads(lines[-1])
            f.write(json.dumps(report) + "\n")
            f.flush()
            print("%s seed %d: %s" % (workload, seed, json.dumps(report["result"]["metrics"])))
    return 0


def load_results(path):
    """Returns {(workload, trace, metric): [values]} and units."""
    vals, units = {}, {}
    with open(path) as f:
        for line in f:
            rep = json.loads(line)
            section = "per_layer" if rep["trace"] else "end_to_end"
            for name, m in rep[section].items():
                key = (rep["workload"], rep["trace"], name)
                vals.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
    return vals, units


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[1], q[2]


# The end-to-end metrics only some workloads report. BENCHMARK.json's
# end_to_end list can hold only metrics every workload reports, never as
# 0, so compare takes these bounds from here. billing_error_pct is
# reported as measured and never gated.
WORKLOAD_METRICS = [
    {"name": "train_epoch_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "resume_s", "better": "lower", "bound": 0.25},
    {"name": "scrape_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "scrape_ms_tail", "better": "lower", "bound": 0.25},
    {"name": "billing_error_pct", "better": "lower"},
    {"name": "savings_pct", "better": "higher"},
    {"name": "query_p99_s", "better": "lower"},
]


def compare(args):
    """Prints, per (workload, metric), both sides' median and quartiles
    and a verdict against the metric's bound (BENCHMARK.json, or
    WORKLOAD_METRICS). Exits 1 when a bounded metric is worse by more
    than its bound."""
    a, units = load_results(args[0])
    b, _ = load_results(args[1])
    bench = load_bench()
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"] + WORKLOAD_METRICS}
    worse = 0
    print("%-14s %-34s %-10s %28s %28s %8s  %s" % ("workload", "metric", "unit",
          "A q1/median/q3", "B q1/median/q3", "B/A-1", "verdict"))
    for key in sorted(set(a) & set(b)):
        workload, _, name = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        m = meta.get(name, {})
        better = m.get("better", "lower")
        change = (qb[1] / qa[1] - 1) if qa[1] else float("nan")
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("nan")
        if "bound" not in m:
            verdict = "info"
        else:
            worse_by = change if better == "lower" else -change
            if worse_by > m["bound"]:
                verdict = "WORSE (bound %.2f)" % m["bound"]
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved (A spread %.3f > bound)" % spread
            else:
                verdict = "ok (bound %.2f, A spread %.3f)" % (m["bound"], spread)
        print("%-14s %-34s %-10s %28s %28s %+8.3f  %s" % (workload, name, units[key],
              "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb, change, verdict))
    return 1 if worse else 0


def selftest():
    """Runs every workload at a tiny size in both trace modes and checks
    the result line names every metric BENCHMARK.json lists."""
    bench = load_bench()
    exe = build()
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            want = bench["per_layer"] if trace == "1" else bench["end_to_end"]
            code, lines = run_once(exe, ["-workload", workload, "-seed", "7", "-seconds", "1",
                                         "-trace", trace, "-tiny"])
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                result = {}
            missing = [m["name"] for m in want if m["name"] not in result.get("metrics", {})]
            ok = code == 0 and result.get("correct") is True and not missing
            print("selftest %-14s trace %s: %s%s" % (workload, trace, "ok" if ok else "FAIL",
                  " missing %s" % missing if missing else ""))
            if not ok:
                failures.append((workload, trace))
                print("\n".join(lines))
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] == "sweep":
        return sweep(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest()
    exe = build()
    args = []
    for name in ("--workload", "--seed", "--seconds", "--trace"):
        v = flag(argv, name)
        if v is None:
            sys.exit("perfbench: missing %s" % name)
        args += ["-" + name.lstrip("-"), v]
    if "--tiny" in argv:
        args.append("-tiny")
    code, lines = run_once(exe, args)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
