#!/usr/bin/env python3
"""Diff two BENCH_*.json snapshots and flag throughput regressions.

The bench binaries emit machine-readable tables via ``--json <path>``
(see bench/bench_util.hh): a JSON array of
``{title, note, headers, rows: [{header: value}]}`` objects. This
script compares the throughput-like columns of two such snapshots —
the committed per-PR trajectory under bench/snapshots/ — and exits
non-zero when any matched row regressed by more than the threshold
(default 10%).

Two kinds of columns are gated: "higher is better" headers matching
KOPS, sigs/sec, rate or speedup (a drop regresses), and "lower is
better" tail-latency headers matching ``p99 ms`` (a rise regresses —
p50/p95 are reported but deliberately not gated; the tail is the SLO).
Rows are matched within same-titled tables by their first (label)
column; rows or columns present in only one snapshot are reported as
informational and never fail the run.

Usage:
  bench_trend.py --baseline OLD.json --current NEW.json [--threshold F]
  bench_trend.py --snapshot-dir DIR [--bench NAME] [--threshold F]
      Compare the two lexicographically newest ``*.json`` snapshots
      (optionally filtered by NAME in the filename). With fewer than
      two snapshots there is nothing to diff: prints a notice, exits 0.
  bench_trend.py --self-test
      Run the embedded fixtures (the CTest hook bench_trend_selftest).

Exit codes: 0 ok / nothing to compare, 1 regression found, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Headers whose columns are throughput-like (higher is better). Times
# and sizes are deliberately not matched: wall-clock columns regress
# when machines differ, and the snapshots track one host.
THROUGHPUT_RE = re.compile(r"KOPS|sigs/s|sig/s|/sec|speedup|rate|ops",
                           re.IGNORECASE)

# Tail-latency headers (lower is better). Only the p99 column is
# gated: medians wobble with scheduling noise, but a tail regression
# is exactly what the stage-timing telemetry exists to catch.
LATENCY_RE = re.compile(r"p99\s*ms", re.IGNORECASE)

# The pseudo-table bench_util.hh's emitJson prepends to every
# snapshot: the recording host's fingerprint. Never compared as a
# table; used to decide whether two snapshots are comparable at all.
META_TITLE = "__meta__"

# Fingerprint fields that make measurements host-specific. Any other
# fingerprint field is ignored for comparability.
HOST_FP_FIELDS = ("cpu", "cores", "dispatch")


def split_meta(doc):
    """Strip the __meta__ entry: (fingerprint_or_None, tables)."""
    fp = None
    tables = []
    for table in doc:
        if table.get("title") == META_TITLE:
            fp = table.get("fingerprint") or {}
        else:
            tables.append(table)
    return fp, tables


def fingerprint_mismatch(a, b):
    """Human-readable list of differing host-fingerprint fields."""
    diffs = []
    for field in HOST_FP_FIELDS:
        if a.get(field) != b.get(field):
            diffs.append(f"{field}: {a.get(field)!r} -> "
                         f"{b.get(field)!r}")
    return diffs


def parse_number(cell):
    """Float value of a table cell, or None when not numeric."""
    if cell is None:
        return None
    text = str(cell).strip().rstrip("x").replace(",", "")
    try:
        return float(text)
    except ValueError:
        return None


def load_snapshot(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_trend: cannot read {path}: {e}")
    if not isinstance(doc, list):
        raise SystemExit(f"bench_trend: {path}: expected a JSON array")
    fp, doc = split_meta(doc)
    tables = {}
    for table in doc:
        title = table.get("title", "")
        headers = table.get("headers", [])
        rows = {}
        label_col = headers[0] if headers else None
        for row in table.get("rows", []):
            label = row.get(label_col, "") if label_col else ""
            rows[label] = row
        tables[title] = {"headers": headers, "rows": rows}
    return fp, tables


def compare(baseline, current, threshold):
    """Return (regressions, notes): lists of human-readable strings."""
    regressions = []
    notes = []
    for title, cur_table in current.items():
        base_table = baseline.get(title)
        if base_table is None:
            notes.append(f"new table (not in baseline): {title!r}")
            continue
        headers = [h for h in cur_table["headers"]
                   if THROUGHPUT_RE.search(h)]
        lat_headers = [h for h in cur_table["headers"]
                       if LATENCY_RE.search(h)
                       and not THROUGHPUT_RE.search(h)]
        # Rows/columns that vanished from the current snapshot can
        # hide a regression (e.g. the fastest backend's row dropping
        # off on a less capable host) — surface them loudly.
        for h in base_table["headers"]:
            if (THROUGHPUT_RE.search(h) or LATENCY_RE.search(h)) \
                    and h not in cur_table["headers"]:
                notes.append(f"column dropped from current: "
                             f"{title!r} / {h!r}")
        for label in base_table["rows"]:
            if label not in cur_table["rows"]:
                notes.append(f"row dropped from current: "
                             f"{title!r} / {label!r}")
        for label, cur_row in cur_table["rows"].items():
            base_row = base_table["rows"].get(label)
            if base_row is None:
                notes.append(f"new row (not in baseline): "
                             f"{title!r} / {label!r}")
                continue
            for h in headers:
                cur_v = parse_number(cur_row.get(h))
                base_v = parse_number(base_row.get(h))
                if cur_v is None or base_v is None or base_v <= 0:
                    # A measured number degrading to "n/a" (backend
                    # unavailable on the recording host) must not
                    # vanish from the gate silently.
                    if base_v is not None and cur_v is None:
                        notes.append(
                            f"cell no longer numeric: {title!r} / "
                            f"{label!r} / {h!r} ({base_row.get(h)!r} "
                            f"-> {cur_row.get(h)!r})")
                    continue
                ratio = cur_v / base_v
                if ratio < 1.0 - threshold:
                    regressions.append(
                        f"{title!r} / {label!r} / {h!r}: "
                        f"{base_v:g} -> {cur_v:g} "
                        f"({(1.0 - ratio) * 100.0:.1f}% slower)")
            for h in lat_headers:
                cur_v = parse_number(cur_row.get(h))
                base_v = parse_number(base_row.get(h))
                if cur_v is None or base_v is None or base_v <= 0:
                    if base_v is not None and cur_v is None:
                        notes.append(
                            f"cell no longer numeric: {title!r} / "
                            f"{label!r} / {h!r} ({base_row.get(h)!r} "
                            f"-> {cur_row.get(h)!r})")
                    continue
                ratio = cur_v / base_v
                if ratio > 1.0 + threshold:
                    regressions.append(
                        f"{title!r} / {label!r} / {h!r}: "
                        f"{base_v:g} -> {cur_v:g} ms "
                        f"({(ratio - 1.0) * 100.0:.1f}% higher tail "
                        f"latency)")
    for title in baseline:
        if title not in current:
            notes.append(f"table dropped from current: {title!r}")
    return regressions, notes


def pick_snapshots(directory, bench):
    d = Path(directory)
    if not d.is_dir():
        raise SystemExit(f"bench_trend: no such directory: {d}")
    snaps = sorted(p for p in d.glob("*.json")
                   if bench is None or bench in p.name)
    return snaps


def run_diff(baseline_path, current_path, threshold):
    base_fp, baseline = load_snapshot(baseline_path)
    cur_fp, current = load_snapshot(current_path)
    regressions, notes = compare(baseline, current, threshold)

    # Snapshots from different hosts (or SIMD tiers) are not
    # comparable: a "regression" there is a machine change, not a code
    # change — warn instead of failing. Gate normally when either
    # snapshot predates fingerprints (the conservative default).
    demote = None
    if base_fp is not None and cur_fp is not None:
        diffs = fingerprint_mismatch(base_fp, cur_fp)
        if diffs:
            demote = "differing host fingerprints (" + \
                "; ".join(diffs) + ")"

    for n in notes:
        print(f"note: {n}")
    if regressions and demote:
        print(f"bench_trend: WARNING: {demote}; "
              f"{len(regressions)} would-be regression(s) reported "
              f"as warnings ({baseline_path} -> {current_path}):")
        for r in regressions:
            print(f"  warning: {r}")
        return 0
    if regressions:
        print(f"bench_trend: {len(regressions)} regression(s) over "
              f"{threshold * 100:.0f}% "
              f"({baseline_path} -> {current_path}):")
        for r in regressions:
            print(f"  REGRESSION {r}")
        return 1
    if demote:
        print(f"bench_trend: note: {demote}")
    print(f"bench_trend: no throughput regression over "
          f"{threshold * 100:.0f}% ({baseline_path} -> {current_path})")
    return 0


def self_test():
    """Deterministic fixtures for the CTest hook."""
    import copy
    import tempfile

    base = [{
        "title": "Table X: CPU comparison (KOPS)",
        "note": "",
        "headers": ["Implementation", "128f KOPS", "note col"],
        "rows": [
            {"Implementation": "x16 AVX-512 (measured)",
             "128f KOPS": "0.150", "note col": "text"},
            {"Implementation": "x8 AVX2 (measured)",
             "128f KOPS": "0.100", "note col": "text"},
        ],
    }]

    failures = []

    def check(name, cond):
        print(f"  {'ok' if cond else 'FAIL'}: {name}")
        if not cond:
            failures.append(name)

    # Identical snapshots: no regression.
    regs, _ = compare(load_obj(base), load_obj(base), 0.10)
    check("identical snapshots pass", regs == [])

    # 20% drop on a KOPS column: flagged.
    cur = copy.deepcopy(base)
    cur[0]["rows"][0]["128f KOPS"] = "0.120"
    regs, _ = compare(load_obj(base), load_obj(cur), 0.10)
    check("20% drop flagged", len(regs) == 1 and "x16" in regs[0])

    # 5% drop under a 10% threshold: allowed.
    cur = copy.deepcopy(base)
    cur[0]["rows"][0]["128f KOPS"] = "0.143"
    regs, _ = compare(load_obj(base), load_obj(cur), 0.10)
    check("5% drop under threshold passes", regs == [])

    # Improvements never flag.
    cur = copy.deepcopy(base)
    cur[0]["rows"][0]["128f KOPS"] = "0.500"
    regs, _ = compare(load_obj(base), load_obj(cur), 0.10)
    check("improvement passes", regs == [])

    # Non-throughput and non-numeric columns are ignored.
    cur = copy.deepcopy(base)
    cur[0]["rows"][0]["note col"] = "different text"
    regs, _ = compare(load_obj(base), load_obj(cur), 0.10)
    check("non-throughput column ignored", regs == [])

    # A measured cell degrading to "n/a" (e.g. the x16 row recorded on
    # a host without AVX-512) surfaces as a note.
    cur = copy.deepcopy(base)
    cur[0]["rows"][0]["128f KOPS"] = "n/a"
    regs, notes = compare(load_obj(base), load_obj(cur), 0.10)
    check("numeric-to-n/a cell surfaces a note",
          regs == [] and any("no longer numeric" in n for n in notes))

    # A row vanishing from the current snapshot (e.g. the x16 row on
    # a host without AVX-512) must at least be surfaced as a note.
    cur = copy.deepcopy(base)
    del cur[0]["rows"][0]
    regs, notes = compare(load_obj(base), load_obj(cur), 0.10)
    check("dropped row surfaces a note",
          regs == [] and any("row dropped" in n for n in notes))

    # Same for a throughput column disappearing.
    cur = copy.deepcopy(base)
    cur[0]["headers"] = ["Implementation", "note col"]
    for row in cur[0]["rows"]:
        row.pop("128f KOPS", None)
    regs, notes = compare(load_obj(base), load_obj(cur), 0.10)
    check("dropped column surfaces a note",
          regs == [] and any("column dropped" in n for n in notes))

    # New rows/tables are notes, not failures.
    cur = copy.deepcopy(base)
    cur[0]["rows"].append({"Implementation": "new row",
                           "128f KOPS": "0.001"})
    cur.append({"title": "new table", "headers": ["a"], "rows": []})
    regs, notes = compare(load_obj(base), load_obj(cur), 0.10)
    check("new rows/tables are notes", regs == [] and len(notes) == 2)

    # --- Latency-column gating (lower is better, p99 only) ---
    lat_base = [{
        "title": "Mixed traffic latency",
        "note": "",
        "headers": ["mode", "ops/s", "p50 ms", "p95 ms", "p99 ms"],
        "rows": [
            {"mode": "closed", "ops/s": "100.0", "p50 ms": "1.00",
             "p95 ms": "2.00", "p99 ms": "4.00"},
        ],
    }]

    # A 25% p99 rise over a 10% threshold is flagged.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["p99 ms"] = "5.00"
    regs, _ = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("p99 rise flagged",
          len(regs) == 1 and "tail latency" in regs[0])

    # A 5% rise under the threshold passes.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["p99 ms"] = "4.20"
    regs, _ = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("p99 rise under threshold passes", regs == [])

    # Latency improvements never flag.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["p99 ms"] = "1.00"
    regs, _ = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("p99 improvement passes", regs == [])

    # p50/p95 wobble is deliberately not gated.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["p50 ms"] = "9.00"
    cur[0]["rows"][0]["p95 ms"] = "9.00"
    regs, _ = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("p50/p95 not gated", regs == [])

    # Simultaneous throughput drop and p99 rise yields two findings.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["ops/s"] = "50.0"
    cur[0]["rows"][0]["p99 ms"] = "8.00"
    regs, _ = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("both gates fire independently", len(regs) == 2)

    # A p99 cell degrading to non-numeric surfaces a note.
    cur = copy.deepcopy(lat_base)
    cur[0]["rows"][0]["p99 ms"] = "n/a"
    regs, notes = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("p99 numeric-to-n/a surfaces a note",
          regs == [] and any("no longer numeric" in n for n in notes))

    # A dropped p99 column surfaces a note.
    cur = copy.deepcopy(lat_base)
    cur[0]["headers"] = ["mode", "ops/s", "p50 ms", "p95 ms"]
    for row in cur[0]["rows"]:
        row.pop("p99 ms", None)
    regs, notes = compare(load_obj(lat_base), load_obj(cur), 0.10)
    check("dropped p99 column surfaces a note",
          regs == [] and any("column dropped" in n for n in notes))

    # "1.41x"-style speedup cells parse.
    check("speedup cell parses", parse_number("1.41x") == 1.41)
    check("text cell skipped", parse_number("n/a") is None)

    # --- Host-fingerprint handling (__meta__ pseudo-table) ---
    fp_a = {"title": META_TITLE,
            "fingerprint": {"cpu": "Xeon 2.10GHz", "cores": 1,
                            "dispatch": "avx512"}}
    fp_b = {"title": META_TITLE,
            "fingerprint": {"cpu": "EPYC 3.00GHz", "cores": 64,
                            "dispatch": "avx2"}}

    # The __meta__ entry is stripped, never diffed as a table.
    cur = [copy.deepcopy(fp_a)] + copy.deepcopy(base)
    regs, notes = compare(load_obj(base), load_obj(cur), 0.10)
    check("__meta__ entry ignored in table diff",
          regs == [] and notes == [])
    check("fingerprint fields compared",
          fingerprint_mismatch(fp_a["fingerprint"],
                               fp_b["fingerprint"]) != [] and
          fingerprint_mismatch(fp_a["fingerprint"],
                               dict(fp_a["fingerprint"],
                                    build="deadbeef")) == [])

    # End-to-end through real files and the CLI path.
    with tempfile.TemporaryDirectory() as td:
        a = Path(td) / "0001-t.json"
        b = Path(td) / "0002-t.json"
        a.write_text(json.dumps(base))
        worse = copy.deepcopy(base)
        worse[0]["rows"][1]["128f KOPS"] = "0.050"
        b.write_text(json.dumps(worse))
        check("file diff flags regression",
              run_diff(str(a), str(b), 0.10) == 1)
        check("snapshot-dir picks two newest",
              pick_snapshots(td, "t") == [a, b])

        # Same host fingerprint on both sides: still gated.
        a.write_text(json.dumps([fp_a] + base))
        b.write_text(json.dumps([copy.deepcopy(fp_a)] + worse))
        check("regression across same fingerprint still fails",
              run_diff(str(a), str(b), 0.10) == 1)

        # Differing host fingerprints: the regression is demoted to a
        # warning (a machine change is not a code regression).
        b.write_text(json.dumps([fp_b] + worse))
        check("regression across differing fingerprints warns only",
              run_diff(str(a), str(b), 0.10) == 0)

        # One-sided fingerprint (old snapshot predates them): the
        # conservative default is to gate normally.
        a.write_text(json.dumps(base))
        check("regression with one-sided fingerprint still fails",
              run_diff(str(a), str(b), 0.10) == 1)

    if failures:
        print(f"bench_trend --self-test: {len(failures)} failure(s)")
        return 1
    print("bench_trend --self-test: all checks passed")
    return 0


def load_obj(doc):
    """load_snapshot for an in-memory document (self-test helper),
    returning tables only (any __meta__ entry stripped)."""
    _, doc = split_meta(doc)
    tables = {}
    for table in doc:
        headers = table.get("headers", [])
        label_col = headers[0] if headers else None
        rows = {}
        for row in table.get("rows", []):
            rows[row.get(label_col, "") if label_col else ""] = row
        tables[table.get("title", "")] = {"headers": headers,
                                          "rows": rows}
    return tables


def main(argv):
    ap = argparse.ArgumentParser(
        description="Diff BENCH_*.json snapshots for regressions")
    ap.add_argument("--baseline", help="older snapshot file")
    ap.add_argument("--current", help="newer snapshot file")
    ap.add_argument("--snapshot-dir",
                    help="directory of accumulated snapshots; the two "
                         "lexicographically newest are compared")
    ap.add_argument("--bench",
                    help="with --snapshot-dir: only files whose name "
                         "contains this substring")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative drop that counts as a regression "
                         "(default 0.10)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixtures and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.snapshot_dir:
        snaps = pick_snapshots(args.snapshot_dir, args.bench)
        if len(snaps) < 2:
            print(f"bench_trend: {len(snaps)} snapshot(s) in "
                  f"{args.snapshot_dir}; nothing to compare")
            return 0
        return run_diff(str(snaps[-2]), str(snaps[-1]), args.threshold)
    if args.baseline and args.current:
        return run_diff(args.baseline, args.current, args.threshold)
    ap.print_usage(sys.stderr)
    print("bench_trend: need --self-test, --snapshot-dir, or "
          "--baseline + --current", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
