#!/usr/bin/env python3
"""Builds and runs the starfish benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selfcheck

The first form builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build) if needed, then runs one workload from
perfbench/workloads.json. The last line of stdout is the JSON result.
--trace 1 runs the traced variant and reports the per-layer metrics instead.

--selfcheck is the fast, tiny-size mode: every workload with tracing off and
on, the metric names against BENCHMARK.json, and the correctness gate (an
injected divergence must fail the run and name its seed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind: the next run starts over.
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, "perfbench")


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def param_args(params):
    out = []
    for key, value in params.items():
        out += ["--param", "%s=%s" % (key, value)]
    return out


def run_workload(binary, workload, seed, seconds, trace, extra=(), tiny=False,
                 capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    params = dict(workload["params"])
    if tiny:
        params.update(workload["tiny"])
    bdir = build_dir()
    # Stores live in a directory of this process's own, removed at the end.
    data_dir = os.path.join(bdir, "data", str(os.getpid()))
    cmd = [binary, "--workload", workload["name"], "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data_dir,
           "--out-dir", os.path.join(bdir, "traces")]
    cmd += list(extra) + param_args(params)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log("workload %s timed out after %d s" % (workload["name"],
                                                  RUN_TIMEOUT_S))
        return 3, None
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    text = proc.stdout.decode() if capture else None
    return proc.returncode, text


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selfcheck(binary):
    bench = load_json("../BENCHMARK.json")
    spec = load_json("workloads.json")
    problems = []

    def expect_names(kind, listed, got):
        want = {m["name"]: m["unit"] for m in listed}
        have = {k: v["unit"] for k, v in got.items()}
        if want != have:
            problems.append("%s metrics differ from BENCHMARK.json: "
                            "missing %s, extra %s, units %s" % (
                                kind, sorted(set(want) - set(have)),
                                sorted(set(have) - set(want)),
                                sorted(k for k in want.keys() & have.keys()
                                       if want[k] != have[k])))

    names = [w["name"] for w in spec["workloads"]]
    if names != [w["name"] for w in bench["workloads"]]:
        problems.append("workloads.json and BENCHMARK.json list different "
                        "workloads")
    for kind in ("end_to_end", "per_layer"):
        if [m["name"] for m in spec[kind]] != [m["name"] for m in bench[kind]]:
            problems.append("workloads.json and BENCHMARK.json list different "
                            "%s metrics" % kind)

    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_workload(binary, w, 7, 1, trace, tiny=True,
                                     capture=True)
            result = last_json(out)
            label = "%s --trace %d" % (w["name"], trace)
            if code != 0 or not result or not result.get("correct"):
                problems.append("%s: exit %s, result %s" % (label, code,
                                                            result))
                continue
            expect_names(label, bench[kind], result["metrics"])
            log("%s ok: %d ops" % (label, result["attempted"]))

    # The correctness gate must catch a wrong status and a wrong final state.
    w = spec["workloads"][0]
    for inject in ("status", "state"):
        code, out = run_workload(binary, w, 7, 1, 0, ["--inject", inject],
                                 tiny=True, capture=True)
        result = last_json(out)
        caught = (code == 1 and result is not None and not result["correct"]
                  and "reproduce with --seed 7" in out)
        if not caught:
            problems.append("injected %s divergence not caught (exit %s)" %
                            (inject, code))
        else:
            log("gate catches an injected %s divergence" % inject)

    for p in problems:
        log("SELFCHECK FAILED: " + p)
    print(json.dumps({"selfcheck": "fail" if problems else "ok",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.selfcheck:
        return selfcheck(binary)

    workloads = {w["name"]: w for w in load_json("workloads.json")["workloads"]}
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" % (args.workload,
                                                ", ".join(workloads)))
        return 2
    code, _ = run_workload(binary, workloads[args.workload], args.seed,
                           args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
