#!/usr/bin/env python3
"""Builds and runs the FlexCore access-point benchmark (see README.md).

One run:
    python3 apbench/run.py --workload coherent --seed 1 --seconds 20 --trace 0

builds apbench/ (CMake, Release) into $CARGO_TARGET_DIR/apbench, default
.bench_build/apbench, runs one workload and prints the benchmark's JSON
result as the last line of stdout.  With --trace 1 the spans are written to
the build directory and checked with the tree's trace_dump --validate.

Steadiness mode:
    python3 apbench/run.py --steadiness --runs 10 --seconds 20

runs every workload --runs times, alternating between workloads, with seed
r + 1 in round r, and prints each metric's median, quartiles and spread
(interquartile range over median) next to the bound in BENCHMARK.json.
Add --design to finish with one traced run per workload and check the
workload design claims of the README.

Run from the root of the source tree.  Exits non-zero, without a result
line, when the build, a run or a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["coherent", "mobile", "multicell"]
# Environment knobs of the program that would change what is measured
# (span tracing, ISA pinning); the benchmark always runs without them.
SCRUBBED_ENV = ("FLEXCORE_OBS_TRACE", "FLEXCORE_OBS_SAMPLE",
                "FLEXCORE_OBS_RING", "FLEXCORE_I16_ISA")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "apbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "apbench",
                  "trace_dump", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             check=False)
        if res.returncode != 0:
            log("apbench: build step failed: " + " ".join(cmd))
            sys.exit(res.returncode or 1)
    return bdir


def run_once(bdir, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed result object or None."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    trace_out = os.path.join(bdir, "trace_%s.json" % workload)
    cmd = [os.path.join(bdir, "apbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", trace_out]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, check=False,
                         text=True)
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if res.returncode != 0 or not lines:
        log("apbench: run failed (exit %d): %s" % (res.returncode, " ".join(cmd)))
        return None
    result = json.loads(lines[-1])
    if trace:
        # trace_dump is a target of the tree's own CMakeLists.txt, built
        # in the "flexcore" subdirectory of the build.
        check = subprocess.run([os.path.join(bdir, "flexcore", "trace_dump"),
                                "--validate", trace_out], stdout=sys.stderr,
                               stderr=sys.stderr, check=False)
        if check.returncode != 0:
            log("apbench: trace_dump --validate rejected " + trace_out)
            return None
    return result


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def design_check(bdir, seconds):
    """One traced run per workload (seed 1); checks the README's design
    claims."""
    layers = {}
    for w in WORKLOADS:
        res = run_once(bdir, w, 1, seconds, True)
        if res is None or not res["correct"]:
            return False
        m = {k: v["value"] for k, v in res["metrics"].items()}
        frame = m["bench.frame_us"]
        layers[w] = {
            "preprocess": 1000.0 * m["core.preprocess_ms"] / frame,
            "grid": 1000.0 * m["detect.grid_ms"] / frame,
            "api_overhead": m["api.overhead_us"] / frame,
            "unattributed": m["bench.unattributed_share"],
        }
    print("\nshares of the one-in-flight frame time (traced runs):")
    print("%-10s %11s %8s %13s %13s" % ("workload", "preprocess", "grid",
                                         "api_overhead", "unattributed"))
    for w, s in layers.items():
        print("%-10s %11.3f %8.3f %13.3f %13.3f" % (
            w, s["preprocess"], s["grid"], s["api_overhead"],
            s["unattributed"]))
    mob, coh, mc = layers["mobile"], layers["coherent"], layers["multicell"]
    claims = [
        ("preprocess is mobile's largest layer share",
         mob["preprocess"] > max(mob["grid"], mob["api_overhead"])),
        ("preprocess is a negligible share of coherent (under 0.1)",
         abs(coh["preprocess"]) < 0.1),
        ("api overhead share is largest on multicell",
         mc["api_overhead"] > max(coh["api_overhead"], mob["api_overhead"])),
    ]
    ok = True
    for text, holds in claims:
        print("%-4s %s" % ("ok" if holds else "FAIL", text))
        ok = ok and holds
    return ok


def steadiness(args):
    bdir = build()
    bounds = load_bounds()
    values = {w: {} for w in WORKLOADS}
    failed_share = {w: set() for w in WORKLOADS}
    for r in range(args.runs):
        seed = r + 1
        for w in WORKLOADS:
            res = run_once(bdir, w, seed, args.seconds, False)
            if res is None or not res["correct"]:
                log("apbench: steadiness run failed: %s seed %d" % (w, seed))
                return 1
            failed_share[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("round %d/%d %s: %s" % (r + 1, args.runs, w, ", ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())))
    print("%-10s %-18s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in WORKLOADS:
        for name, vals in values[w].items():
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            print("%-10s %-18s %12.5g %12.5g %12.5g %8.4f %6s" % (
                w, name, med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound))
        print("%-10s failed share: %s" % (w, sorted(failed_share[w])))
    if args.design and not design_check(bdir, args.seconds):
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--design", action="store_true")
    args = ap.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        ap.error("--workload is required (or --steadiness)")
    bdir = build()
    res = run_once(bdir, args.workload, args.seed, args.seconds, args.trace == 1)
    if res is None:
        return 1
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
