#!/usr/bin/env python3
"""Repository benchmark: builds the library, the fvc_sim daemon and the
measuring program from source, then runs one workload.

  python3 perfbench/run.py --workload mc_phase|region_scan|serve_mix|all
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke            # self-check, all workloads, tiny
  python3 perfbench/run.py --record-reference 0-40 [--workload mc_phase|region_scan]

Run from the repository root.  Builds go to $CARGO_TARGET_DIR (default
.bench_build)/perfbench; records, span files, sockets and deployment files
go to .bench_build/perfbench-out.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit status
is nonzero when any output check failed or the build failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc_phase", "region_scan", "serve_mix"]
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build the two targets; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("repository sources not found next to perfbench/", 2)
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "perfbench", "fvc_sim_tool",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (log: %s)" % log_path, 3)
    return (os.path.join(bdir, "perfbench"),
            os.path.join(bdir, "fvc", "tools", "fvc_sim"))


def source_digest():
    """Content digest of everything the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, echo=True):
    """Run the measuring program in its own process group; returns
    (exit code, stdout lines).  A child past the deadline is killed with
    its whole group, daemons included."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out" % cmd[2:4], 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray daemons, if any
        except ProcessLookupError:
            pass
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def base_cmd(binary, fvc_sim, workload, seed, seconds, trace, digest, rev):
    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--fvc-sim", fvc_sim,
            # Relative to the repository root: keeps socket paths short.
            "--out-dir", os.path.relpath(out_dir, ROOT), "--reference", REFERENCE,
            "--source-digest", digest, "--git-rev", rev]


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(binary, fvc_sim, digest, rev):
    """Every workload at tiny size, traced and untraced: every metric
    present with its unit, and a corrupted reference reported as failure."""
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_child(base_cmd(binary, fvc_sim, w, 1, 1, trace, digest, rev)
                                    + ["--smoke"], echo=False)
            res = last_json(lines)
            tag = "%s trace=%d" % (w, trace)
            if code != 0 or res is None or not res.get("correct"):
                problems.append("%s: run failed (exit %d)" % (tag, code))
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            for name, unit in expected_metrics(trace).items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif got[name] != unit:
                    problems.append("%s: metric %s unit %s != %s" % (tag, name, got[name], unit))
            for name in got:
                if name not in expected_metrics(trace):
                    problems.append("%s: metric %s not in BENCHMARK.json" % (tag, name))
            print("smoke %-24s ok  (%d metrics, %d checks)" % (tag, len(got), res["attempted"]))
        code, lines = run_child(base_cmd(binary, fvc_sim, w, 1, 1, 0, digest, rev)
                                + ["--smoke", "--corrupt-reference"], echo=False)
        res = last_json(lines)
        if code == 0 or res is None or res.get("correct") or res.get("failed", 0) < 1:
            problems.append("%s: corrupted reference NOT reported as a failure" % w)
        else:
            print("smoke %-24s ok  (corrupted reference fails: %d of %d)"
                  % (w + " corrupt", res["failed"], res["attempted"]))
    for p in problems:
        print("smoke FAIL " + p, file=sys.stderr)
    ok = not problems
    print(json.dumps({"correct": ok, "attempted": 3 * len(WORKLOADS),
                      "failed": len(problems), "metrics": {}}))
    return 0 if ok else 1


def record_reference(binary, fvc_sim, seeds, workloads, digest, rev):
    """Record this commit's event tallies / region stats per seed, replacing
    the entries of `workloads` and keeping the others."""
    entries = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as f:
            entries = {k: v for k, v in json.load(f).items()
                       if k.split(".")[0] not in workloads}
    for smoke_flag in ([], ["--smoke"]):
        for w in workloads:
            for seed in seeds if not smoke_flag else [1]:
                # Without a reference the run checks its values against an
                # independent recomputation; only a passing run is recorded.
                code, lines = run_child(base_cmd(binary, fvc_sim, w, seed, 0.001, 0, digest,
                                                 rev) + smoke_flag +
                                        ["--record-reference", "--reference", ""],
                                        echo=False)
                if code != 0:
                    die("%s seed %d failed its checks; nothing recorded" % (w, seed), 1)
                for line in lines:
                    if line.startswith("reference "):
                        key, values = line[len("reference "):].split(": ", 1)
                        entries[json.loads(key)] = json.loads(values)
                print("recorded %s seed %d%s" % (w, seed, " (smoke)" if smoke_flag else ""),
                      file=sys.stderr)
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join('"%s": %s' % (k, json.dumps(v))
                                   for k, v in sorted(entries.items())) + "\n}\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", metavar="LO-HI")
    args = ap.parse_args()

    os.chdir(ROOT)
    binary, fvc_sim = build()
    digest, rev = source_digest(), git_rev()
    if args.smoke:
        return smoke(binary, fvc_sim, digest, rev)
    if args.record_reference:
        lo, hi = (int(x) for x in args.record_reference.split("-"))
        batch = ["mc_phase", "region_scan"]
        workloads = batch if args.workload in (None, "all") else [args.workload]
        if not set(workloads) <= set(batch):
            ap.error("only %s have references" % " and ".join(batch))
        return record_reference(binary, fvc_sim, range(lo, hi + 1), workloads, digest, rev)
    if not args.workload:
        ap.error("--workload is required")
    if args.workload != "all":
        code, _ = run_child(base_cmd(binary, fvc_sim, args.workload, args.seed, args.seconds,
                                     args.trace, digest, rev))
        return code
    # All workloads in one command: each one's block, then one summary line.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines = run_child(base_cmd(binary, fvc_sim, w, args.seed, args.seconds,
                                         args.trace, digest, rev))
        res = last_json(lines) or {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        worst = worst or code
        total["correct"] = total["correct"] and bool(res["correct"]) and code == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][w + "." + name] = m
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
