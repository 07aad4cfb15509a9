#!/usr/bin/env python3
"""Gate the working tree's serving performance against a base commit.

    python3 scripts/perf_gate.py --base REF [--workload NAME ...]
                                 [--pairs N] [--seconds S]
    python3 scripts/perf_gate.py --self-test
    PERF_GATE=REF ./ci.sh

Runs perfbench (the one benchmark of the real signer) as alternated
pairs: the base side is `git archive REF`, extracted under
.bench_build/perf_gate/base (re-extracted only when REF's commit
changes); the change side is the working tree. Each side builds and
runs through its own perfbench/run.py with its own CARGO_TARGET_DIR
(the base's inside the extracted tree, so a new REF rebuilds clean).
Pair i runs seed i on both sides with --trace 0, the base first on
odd pairs. Every run is appended to .bench_build/perf_gate/runs.jsonl.
Defaults: every BENCHMARK.json workload, 10 pairs, its run_seconds.

For each workload and end-to-end metric, BENCHMARK.json gives `better`
and `bound`. Medians and quartiles use linear interpolation between
order statistics: the q-quantile of n sorted values x[0..n-1] is
x[h] interpolated at h = (n - 1) * q (type 7, numpy's default), and
the IQR is Q3 - Q1. A pair is a win for the side whose value is
better; ties count for neither side.

  regressed   the change's median is worse than the base's by more
              than bound * base median AND by more than the base IQR.
  unresolved  not regressed, but the base IQR exceeds bound * its
              median, so the bound cannot be told from noise; unless
              every change run beats every base run.
  ok          otherwise.

The gate fails (exit 1) on any regression, on any run that exits
non-zero or prints "correct": false, and when the change side's share
of failed requests exceeds the base's. --self-test checks these rules
on fixtures and builds nothing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE_DIR = os.path.join(ROOT, ".bench_build", "perf_gate")
BASE_DIR = os.path.join(GATE_DIR, "base")
# run.py builds under $CARGO_TARGET_DIR/perfbench: one per side, or
# both sides would share one binary.
SIDES = {
    "base": (BASE_DIR, os.path.join(BASE_DIR, ".bench_build")),
    "change": (ROOT, os.path.join(GATE_DIR, "change_build")),
}


def quantile(xs, q):
    """Type-7 quantile: linear between order statistics."""
    s = sorted(xs)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def judge_metric(base, change, paired, better, bound):
    """Verdict for one metric. base/change: values of the successful
    runs; paired: (base, change) values of pairs where both ran."""
    b_med, c_med = quantile(base, 0.5), quantile(change, 0.5)
    b_q1, b_q3 = quantile(base, 0.25), quantile(base, 0.75)
    c_q1, c_q3 = quantile(change, 0.25), quantile(change, 0.75)
    iqr = b_q3 - b_q1
    worse = c_med - b_med if better == "lower" else b_med - c_med
    limit = bound * abs(b_med)
    dominates = all(beats(c, b, better) for c in change for b in base)
    if worse > limit and worse > iqr:
        verdict = "regressed"
    elif iqr > limit and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "base": (b_med, b_q1, b_q3), "change": (c_med, c_q1, c_q3),
        "ratio": c_med / b_med if b_med else float("inf"),
        "wins": sum(beats(c, b, better) for b, c in paired),
        "pairs": len(paired), "verdict": verdict,
    }


def run_ok(rec):
    res = rec.get("result")
    return (rec["exit"] == 0 and res is not None
            and res.get("correct") is True)


def failed_share(recs):
    attempted = sum(r["result"].get("attempted", 0)
                    for r in recs if r.get("result"))
    failed = sum(r["result"].get("failed", 0)
                 for r in recs if r.get("result"))
    return failed, attempted


def judge_workload(recs, end_to_end):
    """Rows (metric name, verdict dict) and problems for one workload's
    run records: {"side", "pair", "exit", "result"}."""
    problems = []
    for r in recs:
        if r["exit"] != 0:
            problems.append(f"{r['side']} pair {r['pair']} exited "
                            f"{r['exit']}")
        elif not run_ok(r):
            problems.append(f"{r['side']} pair {r['pair']} printed no "
                            f"\"correct\": true result")
    shares = {}
    for side in ("base", "change"):
        failed, attempted = failed_share(
            [r for r in recs if r["side"] == side])
        shares[side] = (failed, attempted,
                        failed / attempted if attempted else 0.0)
    if shares["change"][2] > shares["base"][2]:
        problems.append("change side failed {}/{} requests, base "
                        "{}/{}".format(*shares["change"][:2],
                                       *shares["base"][:2]))

    def values(side, name):
        return {r["pair"]: r["result"]["metrics"][name]["value"]
                for r in recs
                if r["side"] == side and run_ok(r)
                and name in r["result"].get("metrics", {})}

    rows = []
    for m in end_to_end:
        b, c = values("base", m["name"]), values("change", m["name"])
        if not b or not c:
            problems.append(f"{m['name']}: no successful run on "
                            f"{'the base' if not b else 'the change'}")
            continue
        paired = [(b[i], c[i]) for i in sorted(b) if i in c]
        row = judge_metric(list(b.values()), list(c.values()), paired,
                           m["better"], m["bound"])
        if row["verdict"] == "regressed":
            problems.append(f"{m['name']} regressed: median "
                            f"{row['base'][0]:.4g} -> "
                            f"{row['change'][0]:.4g}")
        rows.append((m["name"], row))
    return rows, shares, problems


def fmt(med_q):
    med, q1, q3 = med_q
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"


def report(workload, rows, shares):
    print(f"\n{workload}")
    print(f"  {'metric':<14} {'base median [Q1-Q3]':<28} "
          f"{'change median [Q1-Q3]':<28} {'ratio':>6} {'wins':>6}  "
          f"verdict")
    for name, r in rows:
        print(f"  {name:<14} {fmt(r['base']):<28} {fmt(r['change']):<28} "
              f"{r['ratio']:>6.3f} {r['wins']:>3}/{r['pairs']:<2}  "
              f"{r['verdict']}")
    print("  failed requests: base {}/{}, change {}/{}".format(
        *shares["base"][:2], *shares["change"][:2]))


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def extract_base(ref):
    """Extract REF into BASE_DIR unless that commit is already there."""
    sha = git("rev-parse", "--verify", ref + "^{commit}",
              text=True).strip()
    stamp = os.path.join(BASE_DIR, ".perf_gate_commit")
    if os.path.exists(stamp) and open(stamp).read().strip() == sha:
        return sha
    shutil.rmtree(BASE_DIR, ignore_errors=True)
    os.makedirs(BASE_DIR)
    tar = git("archive", "--format=tar", sha)
    subprocess.run(["tar", "-x", "-C", BASE_DIR], input=tar, check=True)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def run_side(side, workload, seed, seconds, log):
    """One perfbench run; returns its record. Build output and the
    run's report go to the log, the result line into the record."""
    tree, target = SIDES[side]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=tree, env=env, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.monotonic() - t0
    log.write(f"=== {side} {workload} seed {seed} exit {p.returncode}\n")
    log.write(p.stderr + p.stdout)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        result = None
    return {"side": side, "workload": workload, "pair": seed,
            "exit": p.returncode, "wall_s": round(wall, 2),
            "result": result}


def gate(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        print(f"perf_gate: unknown workload(s) {unknown}; BENCHMARK.json "
              f"has {names}", file=sys.stderr)
        return 2
    seconds = args.seconds or bench["run_seconds"]
    sha = extract_base(args.base)
    print(f"perf_gate: base {args.base} ({sha[:12]}) vs working tree; "
          f"{args.pairs} pairs x {seconds:g} s per workload")

    os.makedirs(GATE_DIR, exist_ok=True)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    failed = False
    with open(os.path.join(GATE_DIR, "runs.jsonl"), "a") as runs, \
            open(os.path.join(GATE_DIR, "runs.log"), "a") as log:
        for w in workloads:
            recs = []
            for i in range(1, args.pairs + 1):
                order = ("base", "change") if i % 2 else ("change", "base")
                for side in order:
                    rec = run_side(side, w, i, seconds, log)
                    rec.update(gate=stamp, base=sha)
                    runs.write(json.dumps(rec) + "\n")
                    runs.flush()
                    log.flush()
                    recs.append(rec)
                    print(f"  {w} pair {i} {side}: exit {rec['exit']}, "
                          f"{rec['wall_s']:.1f} s", flush=True)
            rows, shares, problems = judge_workload(recs,
                                                    bench["end_to_end"])
            report(w, rows, shares)
            for p in problems:
                print(f"  FAIL: {p}")
            failed |= bool(problems)
    print("\nperf_gate: " + ("FAIL" if failed else "PASS") +
          f" (runs in {os.path.relpath(GATE_DIR, ROOT)}/runs.jsonl)")
    return 1 if failed else 0


def self_test():
    """The verdict rules on fixtures; builds and runs nothing."""
    e2e = [{"name": "tput", "better": "higher", "bound": 0.25},
           {"name": "p50", "better": "lower", "bound": 0.25}]

    def recs(base, change, base_exit=0, failed=(0, 0)):
        out = []
        for side, vals in (("base", base), ("change", change)):
            for i, (tput, p50) in enumerate(vals, 1):
                out.append({"side": side, "pair": i,
                            "exit": base_exit if side == "base" else 0,
                            "result": {
                                "correct": True, "attempted": 100,
                                "failed": failed[side == "change"],
                                "metrics": {
                                    "tput": {"value": tput},
                                    "p50": {"value": p50}}}})
        return out

    def verdicts(r):
        rows, _, problems = judge_workload(r, e2e)
        return {n: row["verdict"] for n, row in rows}, problems

    tight = [(100, 10), (101, 10.1), (99, 9.9), (102, 10.2), (98, 9.8)]
    checks = []

    v, p = verdicts(recs(tight, tight))
    checks.append(("identical samples pass",
                   v == {"tput": "ok", "p50": "ok"} and not p))

    slow = [(t * 0.6, l) for t, l in tight]
    v, p = verdicts(recs(tight, slow))
    checks.append(("regression beyond bound and IQR fails",
                   v["tput"] == "regressed" and p))

    near = [(t * 0.85, l * 1.15) for t, l in tight]
    v, p = verdicts(recs(tight, near))
    checks.append(("move inside the bound passes",
                   v == {"tput": "ok", "p50": "ok"} and not p))

    wide = [(60, 10), (100, 10), (140, 10), (80, 10), (120, 10)]
    lower = [(t * 0.7, l) for t, l in wide]
    v, p = verdicts(recs(wide, lower))
    checks.append(("move beyond the bound inside a wider base IQR is "
                   "unresolved and passes",
                   v["tput"] == "unresolved" and not p))

    v, p = verdicts(recs(wide, [(t * 2.5, l) for t, l in wide]))
    checks.append(("a change beating every base run is resolved",
                   v["tput"] == "ok" and not p))

    rise = [(t, l * 1.4) for t, l in tight]
    v, p = verdicts(recs(tight, rise))
    checks.append(("lower-is-better metric rising beyond both fails",
                   v["p50"] == "regressed" and v["tput"] == "ok" and p))

    _, p = verdicts(recs(tight, tight, base_exit=1))
    checks.append(("a run that exits non-zero fails", bool(p)))

    bad = recs(tight, tight)
    bad[-1]["result"]["correct"] = False
    _, p = verdicts(bad)
    checks.append(("a run printing correct: false fails", bool(p)))

    _, p = verdicts(recs(tight, tight, failed=(0, 1)))
    checks.append(("a higher failed share fails", bool(p)))

    _, p = verdicts(recs(tight, tight, failed=(2, 1)))
    checks.append(("a lower failed share passes", not p))

    checks.append(("type-7 quartiles",
                   quantile([1, 2, 3, 4], 0.25) == 1.75
                   and quantile([1, 2, 3, 4], 0.5) == 2.5
                   and quantile([7], 0.75) == 7))

    for name, ok in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    bad_checks = [n for n, ok in checks if not ok]
    print("perf_gate self-test " +
          ("passed" if not bad_checks else f"FAILED: {bad_checks}"))
    return 1 if bad_checks else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git ref of the base side")
    ap.add_argument("--workload", action="append",
                    help="BENCHMARK.json workload (repeatable; "
                         "default: all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternated pairs per workload (default 10)")
    ap.add_argument("--seconds", type=float,
                    help="seconds per run (default: run_seconds)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdict rules on fixtures and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("--base is required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return gate(args)


if __name__ == "__main__":
    sys.exit(main())
