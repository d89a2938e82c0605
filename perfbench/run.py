#!/usr/bin/env python3
"""The repository benchmark: builds the query server and the load
generator from source, then runs one workload and relays its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Run from the root of a checkout. The last line printed by a run is one
JSON object with the keys correct, attempted, failed and metrics; with
--out, the run's metadata and result are also appended to FILE as one
JSON line, the input of `compare`. See perfbench/README.md for the
workloads and metrics.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
WORK = os.path.join(ROOT, "_perfbench")
BUILD = os.path.join(ROOT, "_build", "default")
SERVER = os.path.join(BUILD, "bin", "xsb_serverd.exe")
XSBPERF = os.path.join(BUILD, "perfbench", "xsbperf.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the server and the load generator with dune, in the checkout."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2",
         "./bin/xsb_serverd.exe", "./perfbench/xsbperf.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed", 1)


def git_rev():
    """The checked-out revision, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def run_child(argv):
    """Run xsbperf in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode()


def run(args):
    opts = dict(zip(args[0::2], args[1::2]))
    for k in ("--workload", "--seed", "--seconds", "--trace"):
        if k not in opts:
            fail("missing " + k)
    build()
    workdir = os.path.join(WORK, "%s-%s-%d" % (opts["--workload"], opts["--seed"], os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    code, out = run_child([
        XSBPERF, "run",
        "--workload", opts["--workload"], "--seed", opts["--seed"],
        "--seconds", opts["--seconds"], "--trace", opts["--trace"],
        "--server", SERVER, "--workdir", workdir, "--rev", git_rev()])
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        sys.stdout.write(out)
        fail("xsbperf exited with code %d" % code, 1)
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "--out" in opts:
        with open(opts["--out"], "a") as f:
            f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    # the data dirs are scratch; a traced run keeps its trace file
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    if not os.listdir(workdir):
        os.rmdir(workdir)
    sys.stdout.write(out)
    sys.stdout.flush()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    """Per workload and end-to-end metric: each side's median and
    quartiles, and a verdict against the metric's bound."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        bench = json.load(f)

    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if rec["meta"].get("trace"):
                    continue
                w = rec["meta"]["workload"]
                for name, m in rec["result"]["metrics"].items():
                    runs.setdefault((w, name), []).append(m["value"])
        return runs

    old, new = load(old_path), load(new_path)
    print("%-16s %-20s %28s %28s  %s" % ("workload", "metric", "old median [q1, q3]",
                                         "new median [q1, q3]", "verdict"))
    for w in [x["name"] for x in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            key = (w, metric["name"])
            if key not in old or key not in new:
                continue
            (oq1, om, oq3), (nq1, nm, nq3) = quartiles(old[key]), quartiles(new[key])
            bound = metric["bound"]
            spread = max((oq3 - oq1) / om if om else 0, (nq3 - nq1) / nm if nm else 0)
            change = (nm - om) / om if om else 0.0
            worse = change > bound if metric["better"] == "lower" else -change > bound
            better = -change > bound if metric["better"] == "lower" else change > bound
            if spread > bound:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            elif worse:
                verdict = "WORSE %+.1f%%" % (100 * change)
            elif better:
                verdict = "better %+.1f%%" % (100 * change)
            else:
                verdict = "within bound %+.1f%%" % (100 * change)
            fmt = "%.4g [%.4g, %.4g]"
            print("%-16s %-20s %28s %28s  %s" % (w, metric["name"], fmt % (om, oq1, oq3),
                                                 fmt % (nm, nq1, nq3), verdict))


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"] and len(args) == 3:
        compare(args[1], args[2])
    elif args == ["selftest"]:
        build()
        code, out = run_child([XSBPERF, "selftest"])
        sys.stdout.write(out)
        sys.exit(code)
    elif len(args) % 2 == 0 and args:
        run(args)
    else:
        fail(__doc__.strip())


if __name__ == "__main__":
    main()
