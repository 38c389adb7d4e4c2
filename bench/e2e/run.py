#!/usr/bin/env python3
"""End-to-end benchmark of the qoc stack (stdlib only; see README.md).

One workload, one process (the interface BENCHMARK.json declares):
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
Every workload, untraced and traced; prints `workload metric value unit`
lines and writes BENCH_e2e.json:
  python3 bench/e2e/run.py [--seed N] [--seconds S] [--repeat R] [--out F]
Every workload at about 1/20 length with all checks:
  python3 bench/e2e/run.py --smoke
Label each (metric, workload) pair of two suite results under the
bounds in BENCHMARK.json; exits 1 if any is worse:
  python3 bench/e2e/run.py --compare A.json B.json

The runner configures and builds bench/e2e (which builds the library
from this checkout) into --build, clears the environment knobs that
would resize a workload, and pins QOC_THREADS.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["pgp_train", "vqe_solve", "serve_closed", "serve_open"]
# Outcome metrics compared per seed (training and VQE are bitwise
# deterministic per seed): absolute bounds, not shares.
QUALITY = {
    "pgp_train": ("val_acc", "ratio", "higher", 0.02),
    "vqe_solve": ("energy_gap", "J", "lower", 0.05),
}
RUN_TIMEOUT_S = 175
CLEARED_ENV = ("QOC_BATCH_LANES", "QOC_LANE_CALIBRATION")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json missing at the repository root")
    with open(path) as f:
        return json.load(f)


def threads():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def bench_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QOC_BENCH_") and k not in CLEARED_ENV}
    env["QOC_THREADS"] = str(threads())
    return env


def check_checkout():
    for rel in ("CMakeLists.txt", "src", "include", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} missing: run from a full checkout of the repository")


def build(build_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    check_checkout()
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            raise BenchError("configure failed:\n" + p.stdout + p.stderr)
    cmd = [cmake, "--build", build_dir, "--target", "bench_e2e", "-j", str(threads())]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout[-4000:] + p.stderr[-4000:])
    return os.path.join(build_dir, "bench_e2e")


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--threads", str(threads())]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=bench_env(),
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited {p.returncode}: {p.stderr.strip()}")
    return json.loads(lines[-1])


def host_context():
    ctx = {"nproc": os.cpu_count(), "threads": threads(),
           "machine": platform.machine(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and "cpu_model" not in ctx:
                    ctx["cpu_model"] = value.strip()
                elif key == "cpu MHz" and "cpu_mhz" not in ctx:
                    ctx["cpu_mhz"] = float(value)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                def read(name):
                    with open(os.path.join(base, idx, name)) as f:
                        return f.read().strip()
                caches[f"L{read('level')}{read('type')[0].lower()}"] = read("size")
            except OSError:
                continue
    ctx["caches"] = caches
    ctx["revision"] = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                   capture_output=True, text=True).stdout.strip()
            ctx["revision"] = p.stdout.strip() + ("-dirty" if dirty else "")
    return ctx


def declared_metrics(spec, report, trace):
    """The metrics BENCHMARK.json names, in its units. A per-layer metric
    the workload never exercises (say, serve.* on pgp_train) reads 0."""
    names = spec["per_layer" if trace else "end_to_end"]
    source = report["layers" if trace else "metrics"]
    out = {}
    for m in names:
        v = source.get(m["name"])
        if v is None:
            if not trace:
                raise BenchError(f"{report['workload']}: metric {m['name']} missing")
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if v["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {v['unit']} != {m['unit']}")
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def print_lines(workload, metrics):
    for name, v in metrics.items():
        print(f"{workload} {name} {v['value']:.6g} {v['unit']}")


def failed_checks(report):
    return [k for k, ok in report["checks"].items() if not ok]


# ---- modes -----------------------------------------------------------------

def single(args, spec):
    binary = build(args.build)
    report = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    metrics = declared_metrics(spec, report, args.trace)
    print_lines(args.workload, metrics)
    for name in failed_checks(report):
        log(f"check failed: {name}")
    if int(report["attempted"]) < 1:
        raise BenchError(f"{args.workload}: no operation attempted")
    print(json.dumps({"correct": report["check_failures"] == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def suite(args, spec):
    binary = build(args.build)
    seeds = [args.seed + r for r in range(args.repeat)]
    runs = {w: [] for w in WORKLOADS}
    for r, seed in enumerate(seeds):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            log(f"[{time.strftime('%H:%M:%S')}] {w} seed {seed}")
            runs[w].append(run_workload(binary, w, seed, args.seconds, False))
    traced = {}
    for w in WORKLOADS:
        log(f"[{time.strftime('%H:%M:%S')}] {w} traced")
        traced[w] = run_workload(binary, w, args.seed, args.seconds, True)

    doc = {"context": {"host": host_context(), "build": traced[WORKLOADS[0]]["context"],
                       "seconds": args.seconds, "seeds": seeds},
           "bounds": spec["end_to_end"], "workloads": {}}
    failures = 0
    for w in WORKLOADS:
        entry = {"metrics": {}, "attempted": [], "failed": [],
                 "checks": {}, "check_failures": 0}
        for m in spec["end_to_end"]:
            vals = [rep["metrics"][m["name"]]["value"] for rep in runs[w]]
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "runs": vals, "median": statistics.median(vals),
                "spread": spread(vals),
                "samples": [rep["metrics"][m["name"]]["samples"] for rep in runs[w]]}
            print(f"{w} {m['name']} {statistics.median(vals):.6g} {m['unit']}")
        entry["extra"] = {k: [rep["extra"].get(k) for rep in runs[w]]
                          for k in runs[w][0]["extra"]}
        if w in QUALITY:
            name, unit = QUALITY[w][:2]
            print(f"{w} {name} {statistics.median(entry['extra'][name]):.6g} {unit}")
        for rep in runs[w] + [traced[w]]:
            entry["attempted"].append(rep["attempted"])
            entry["failed"].append(rep["failed"])
            entry["check_failures"] += rep["check_failures"]
            for k, ok in rep["checks"].items():
                entry["checks"][k] = entry["checks"].get(k, True) and ok
        # The lane calibration is measured per process (QOC_LANE_CALIBRATION
        # is cleared), so each run records the table it used.
        entry["lane_calibration"] = [rep["context"]["lane_calibration"]
                                     for rep in runs[w] + [traced[w]]]
        entry["layers"] = traced[w]["layers"]
        entry["layer_extra"] = traced[w]["extra"]
        failures += entry["check_failures"] + sum(entry["failed"])
        doc["workloads"][w] = entry
    out = args.out or os.path.join(ROOT, "BENCH_e2e.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {out}")
    for w in WORKLOADS:
        e = doc["workloads"][w]
        log(f"{w:13s} " + "  ".join(
            f"{k}={v['median']:.4g}(±{100 * v['spread']:.1f}%)" for k, v in e["metrics"].items()))
    return 1 if failures else 0


def smoke(args, spec):
    binary = build(args.build)
    t0 = time.time()
    measured = set()
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            rep = run_workload(binary, w, args.seed, 1, trace, smoke=True)
            bad = failed_checks(rep)
            if bad or rep["failed"]:
                ok = False
                log(f"{w} trace={int(trace)}: failed checks {bad}, failed ops {rep['failed']}")
            metrics = declared_metrics(spec, rep, trace)
            if trace:
                measured.update(rep["layers"])
            print_lines(w, metrics)
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if unmeasured:
        ok = False
        log(f"per-layer metrics no workload measures: {unmeasured}")
    log(f"smoke {'passed' if ok else 'FAILED'} in {time.time() - t0:.1f} s")
    return 0 if ok else 1


def classify(a, b, better, bound):
    """improved / unchanged / worse / unresolved for medians of runs a -> b."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * x > sign * y for x in b for y in a):
            return "improved"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "improved"
    return "unchanged"


def classify_paired(a, b, better, bound, paired):
    """Deterministic per-seed outcomes: median per-seed change, absolute.
    Runs on different seeds cannot be paired."""
    if not paired or len(a) != len(b):
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = statistics.median(sign * (y - x) for x, y in zip(a, b))
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "improved"
    return "unchanged"


def compare(args, spec):
    with open(args.compare[0]) as f:
        A = json.load(f)
    with open(args.compare[1]) as f:
        B = json.load(f)
    worse = 0
    for w in WORKLOADS:
        if w not in A["workloads"] or w not in B["workloads"]:
            print(f"{w:13s} missing from one side: unresolved")
            continue
        a, b = A["workloads"][w], B["workloads"][w]
        rows = []
        # The bound is one per metric across workloads; A's own spread
        # shows where a change within the bound is still a real shift.
        for m in spec["end_to_end"]:
            ra, rb = a["metrics"][m["name"]]["runs"], b["metrics"][m["name"]]["runs"]
            ma, mb = statistics.median(ra), statistics.median(rb)
            rows.append((m["name"], ma, mb, f"{100 * (mb - ma) / ma:+.1f}%",
                         f"{100 * spread(ra):.1f}%",
                         classify(ra, rb, m["better"], m["bound"])))
        if w in QUALITY:
            name, _, better, bound = QUALITY[w]
            ra, rb = a["extra"][name], b["extra"][name]
            ma, mb = statistics.median(ra), statistics.median(rb)
            paired = A["context"]["seeds"] == B["context"]["seeds"]
            rows.append((name, ma, mb, f"{mb - ma:+.3f}", "-",
                         classify_paired(ra, rb, better, bound, paired)))
        for name, ma, mb, change, spread_a, label in rows:
            print(f"{w:13s} {name:16s} {ma:12.6g} -> {mb:12.6g} {change:>8s}"
                  f"  (A spread {spread_a:>6s})  {label}")
            worse += label == "worse"
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--out")
    ap.add_argument("--build", default=os.path.join(ROOT, ".bench_build", "e2e"))
    args = ap.parse_args()
    args.build = os.path.abspath(args.build)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.compare:
            return compare(args, spec)
        if args.smoke:
            return smoke(args, spec)
        if args.workload:
            return single(args, spec)
        return suite(args, spec)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
