#!/usr/bin/env python3
"""Gate the wall time of dvfs-bench-v1 reports against checked-in baselines.

Usage:
    bench_compare.py --baseline DIR_OR_FILE --candidate DIR_OR_FILE
                     [--candidate DIR_OR_FILE ...]
                     [--wall-tolerance 0.25] [--min-wall-ns 1e6]
                     [--markdown-out summary.md]
    bench_compare.py --self-test

--markdown-out additionally writes the comparison as a Markdown table
(one row per gated benchmark with its wall-time delta and a pass/fail
verdict); CI appends it to $GITHUB_STEP_SUMMARY.

Repeat --candidate to pass several runs of the same suites; rows are
merged by taking the per-row minimum of wall_ns. Min-of-N is the standard
way to strip scheduler noise from wall-clock numbers, and CI runs each
gated bench twice for exactly that reason.

Rows are matched across the two reports by (name, params). A matched row
fails if candidate wall_ns exceeds baseline by more than --wall-tolerance
(relative), but only when the baseline is at least --min-wall-ns:
sub-millisecond timings are noise on shared CI runners and are never
gated. The figures a report carries (cost, energy, counters) are not
gated here: each deterministic bench's ctest compares its whole report
with a golden under bench/goldens/ exactly.

Rows present only in the baseline fail (coverage loss), and so do rows
(or whole suites) present only in the candidate: a benchmark without a
baseline is not gated at all, so it must get one in the same change that
adds it. Exit status: 0 clean, 1 regression, 2 usage or I/O error.
"""

import argparse
import json
import os
import sys

SCHEMA = "dvfs-bench-v1"


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    if not isinstance(doc.get("rows"), list):
        raise ValueError(f"{path}: missing rows[]")
    return doc


def row_key(row):
    params = row.get("params", {})
    return (row["name"], json.dumps(params, sort_keys=True))


def index_rows(doc, path):
    out = {}
    for row in doc["rows"]:
        key = row_key(row)
        if key in out:
            raise ValueError(f"{path}: duplicate row {key}")
        out[key] = row
    return out


def collect_reports(path):
    """Yield (suite, filepath) for a single report file or a directory."""
    if os.path.isdir(path):
        for entry in sorted(os.listdir(path)):
            if entry.endswith(".json"):
                yield entry[: -len(".json")], os.path.join(path, entry)
    else:
        yield os.path.splitext(os.path.basename(path))[0], path


def compare_reports(base_doc, cand_doc, suite, opts, failures, notes,
                    table):
    base = index_rows(base_doc, f"{suite} (baseline)")
    cand = index_rows(cand_doc, f"{suite} (candidate)")

    for key, brow in base.items():
        crow = cand.get(key)
        label = f"{suite}:{brow['name']} {key[1]}"
        if crow is None:
            failures.append(f"{label}: row missing from candidate")
            table.append({"label": label, "bwall": None, "cwall": None,
                          "ok": False})
            continue
        bwall = float(brow.get("wall_ns", 0.0))
        cwall = float(crow.get("wall_ns", 0.0))
        ok = True
        # The wall gate applies only when BOTH sides sit at or above the
        # row floor: sub-floor baselines are noise, and a candidate that
        # *drops* below the floor is an improvement to note (and refresh
        # baselines for), never a missing row or a regression.
        if bwall >= opts.min_wall_ns and cwall < opts.min_wall_ns:
            notes.append(
                f"{label}: wall_ns {bwall:.3g} -> {cwall:.3g} fell below "
                f"the {opts.min_wall_ns:.0f} ns row floor (improvement; "
                f"consider refreshing baselines)"
            )
        elif (bwall >= opts.min_wall_ns and
              cwall > bwall * (1.0 + opts.wall_tolerance)):
            ok = False
            failures.append(
                f"{label}: wall_ns {bwall:.3g} -> {cwall:.3g} "
                f"(+{(cwall / bwall - 1.0) * 100.0:.1f}% > "
                f"{opts.wall_tolerance * 100.0:.0f}% allowed)"
            )
        table.append({"label": label, "bwall": bwall, "cwall": cwall,
                      "ok": ok})

    for key in cand:
        if key not in base:
            label = f"{suite}:{key[0]} {key[1]}"
            failures.append(f"{label}: row has no baseline (add one to "
                            f"the baseline report)")
            table.append({"label": label, "bwall": None,
                          "cwall": float(cand[key].get("wall_ns", 0.0)),
                          "ok": False})


def merge_min(docs):
    """Merge repeated runs of one suite: per-row min of wall_ns (noise
    only ever adds time)."""
    merged = docs[0]
    rows = {row_key(r): r for r in merged["rows"]}
    for doc in docs[1:]:
        for row in doc["rows"]:
            prev = rows.get(row_key(row))
            if prev is None:
                rows[row_key(row)] = row
                merged["rows"].append(row)
            else:
                prev["wall_ns"] = min(float(prev.get("wall_ns", 0.0)),
                                      float(row.get("wall_ns", 0.0)))
    return merged


def _fmt_wall(ns):
    return "—" if ns is None else f"{ns / 1e6:.3g} ms"


def _fmt_delta(bwall, cwall):
    if bwall is None or cwall is None or bwall == 0.0:
        return "—"
    return f"{cwall / bwall - 1.0:+.1%}"


def render_markdown(table, notes, failures):
    """The same comparison as a Markdown document — pasted into CI job
    summaries ($GITHUB_STEP_SUMMARY) so a red gate explains itself
    without digging through logs."""
    lines = ["## Bench regression gate", ""]
    verdict = (f"**FAIL** — {len(failures)} regression(s)" if failures
               else "**PASS** — no regressions")
    lines += [verdict, ""]
    if table:
        lines += [
            "| benchmark | baseline wall | candidate wall | Δ wall "
            "| status |",
            "|---|---:|---:|---:|:---:|",
        ]
        for e in table:
            status = "✅" if e["ok"] else "❌"
            lines.append(
                f"| `{e['label']}` | {_fmt_wall(e['bwall'])} "
                f"| {_fmt_wall(e['cwall'])} "
                f"| {_fmt_delta(e['bwall'], e['cwall'])} | {status} |"
            )
        lines.append("")
    if failures:
        lines += ["### Regressions", ""]
        lines += [f"- {f}" for f in failures]
        lines.append("")
    if notes:
        lines += ["### Notes", ""]
        lines += [f"- {n}" for n in notes]
        lines.append("")
    return "\n".join(lines)


def run_compare(opts):
    base_files = dict(collect_reports(opts.baseline))
    cand_files = {}
    for cand in opts.candidate:
        for suite, path in collect_reports(cand):
            cand_files.setdefault(suite, []).append(path)

    failures = []
    notes = []
    table = []
    for suite, bpath in sorted(base_files.items()):
        cpaths = cand_files.get(suite)
        if not cpaths:
            failures.append(f"{suite}: candidate report missing")
            table.append({"label": suite, "bwall": None, "cwall": None,
                          "ok": False})
            continue
        cand_doc = merge_min([load_report(p) for p in cpaths])
        compare_reports(load_report(bpath), cand_doc, suite, opts,
                        failures, notes, table)
    for suite in sorted(set(cand_files) - set(base_files)):
        failures.append(f"{suite}: suite has no baseline report")
        table.append({"label": suite, "bwall": None, "cwall": None,
                      "ok": False})

    if opts.markdown_out:
        with open(opts.markdown_out, "w") as f:
            f.write(render_markdown(table, notes, failures))

    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    matched = len(base_files)
    print(f"OK: {matched} suite(s) compared, no regressions")
    return 0


# --------------------------------------------------------------- self-test

def _mk_report(rows):
    return {"schema": SCHEMA, "suite": "t", "rows": rows}


def _mk_row(name, params=None, wall_ns=0.0):
    return {"name": name, "params": params or {}, "wall_ns": wall_ns}


def self_test():
    import copy
    import tempfile

    def check(desc, base_rows, cand_runs, want_exit, argv_extra=()):
        # cand_runs: one row-list per repeated run (a single list means
        # one run).
        if cand_runs and isinstance(cand_runs[0], dict):
            cand_runs = [cand_runs]
        with tempfile.TemporaryDirectory() as tmp:
            bdir = os.path.join(tmp, "base")
            os.mkdir(bdir)
            with open(os.path.join(bdir, "t.json"), "w") as f:
                json.dump(_mk_report(base_rows), f)
            argv = ["--baseline", bdir]
            for i, rows in enumerate(cand_runs):
                cdir = os.path.join(tmp, f"cand{i}")
                os.mkdir(cdir)
                with open(os.path.join(cdir, "t.json"), "w") as f:
                    json.dump(_mk_report(rows), f)
                argv += ["--candidate", cdir]
            opts = parse_args(argv + list(argv_extra))
            got = run_compare(opts)
            assert got == want_exit, f"{desc}: exit {got}, wanted {want_exit}"
            print(f"self-test ok: {desc}")

    base = [
        _mk_row("a", {"n": 4}, wall_ns=2e6),
        _mk_row("a", {"n": 8}, wall_ns=4e6),
        _mk_row("tiny", wall_ns=1e3),
    ]

    check("identical reports pass", base, copy.deepcopy(base), 0)

    worse_wall = copy.deepcopy(base)
    worse_wall[0]["wall_ns"] = 2e6 * 2.0  # injected 2x wall regression
    check("2x wall regression fails", base, worse_wall, 1)

    slightly_slower = copy.deepcopy(base)
    slightly_slower[0]["wall_ns"] = 2e6 * 1.10  # within 25%
    check("10% wall drift passes", base, slightly_slower, 0)

    tiny_slower = copy.deepcopy(base)
    tiny_slower[2]["wall_ns"] = 1e3 * 100.0  # below --min-wall-ns floor
    check("sub-millisecond rows never gate", base, tiny_slower, 0)

    # A large speedup can push a previously-gated row below the floor
    # (e.g. memoizing an O(n) construction into a cache hit). That is an
    # improvement, not a missing baseline: it must pass.
    now_sub_floor = copy.deepcopy(base)
    now_sub_floor[0]["wall_ns"] = 5e5  # 2 ms baseline -> 0.5 ms candidate
    check("candidate dropping below the row floor passes", base,
          now_sub_floor, 0)

    better = copy.deepcopy(base)
    better[0]["wall_ns"] = 1e6
    check("improvements pass", base, better, 0)

    missing = copy.deepcopy(base)[:2]
    check("dropped row fails", base, missing, 1)

    # A row without a baseline is not gated at all; it fails until the
    # change that adds it also adds its baseline, even in one run of
    # several.
    extra = copy.deepcopy(base) + [_mk_row("new", wall_ns=5e6)]
    check("row without a baseline fails", base, extra, 1)
    check("row without a baseline in one of two runs fails", base,
          [copy.deepcopy(base), copy.deepcopy(extra)], 1)
    check("row with its baseline added passes", extra, copy.deepcopy(extra),
          0)

    noisy_run = copy.deepcopy(base)
    noisy_run[0]["wall_ns"] = 2e6 * 3.0  # one flaky run...
    check("min-of-N candidate runs strips noise", base,
          [noisy_run, copy.deepcopy(base)], 0)
    check("regression in every run still fails", base,
          [worse_wall, copy.deepcopy(worse_wall)], 1)

    # The Markdown summary mirrors the verdict in both directions: a
    # clean run renders PASS with every row checked, a regression renders
    # FAIL with the offending row crossed and the reason listed.
    with tempfile.TemporaryDirectory() as tmp:
        md = os.path.join(tmp, "summary.md")
        check("markdown summary written on pass", base, copy.deepcopy(base),
              0, argv_extra=("--markdown-out", md))
        with open(md) as f:
            text = f.read()
        assert "**PASS**" in text, text
        assert "| benchmark |" in text, text
        assert "`t:a" in text and "✅" in text, text
        assert "❌" not in text, text

        check("markdown summary written on fail", base, worse_wall, 1,
              argv_extra=("--markdown-out", md))
        with open(md) as f:
            text = f.read()
        assert "**FAIL** — 1 regression(s)" in text, text
        assert "❌" in text and "### Regressions" in text, text
        assert "+100.0%" in text, text

        check("markdown summary lists a row without a baseline", base,
              extra, 1, argv_extra=("--markdown-out", md))
        with open(md) as f:
            text = f.read()
        assert "`t:new {}`" in text and "no baseline" in text, text
        print("self-test ok: markdown summaries")

    # A whole suite without a baseline report fails the same way.
    with tempfile.TemporaryDirectory() as tmp:
        bdir = os.path.join(tmp, "base")
        cdir = os.path.join(tmp, "cand")
        os.mkdir(bdir)
        os.mkdir(cdir)
        for d in (bdir, cdir):
            with open(os.path.join(d, "t.json"), "w") as f:
                json.dump(_mk_report(base), f)
        with open(os.path.join(cdir, "u.json"), "w") as f:
            json.dump(_mk_report(base), f)
        got = run_compare(parse_args(["--baseline", bdir,
                                      "--candidate", cdir]))
        assert got == 1, f"suite without a baseline: exit {got}, wanted 1"
        print("self-test ok: suite without a baseline fails")

    print("self-test: all cases passed")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="baseline report file or directory")
    p.add_argument("--candidate", action="append", default=[],
                   help="candidate report file or directory; repeat for "
                        "multiple runs (per-row minimum is gated)")
    p.add_argument("--wall-tolerance", type=float, default=0.25,
                   help="allowed relative wall_ns growth (default 0.25)")
    p.add_argument("--min-wall-ns", type=float, default=1e6,
                   help="ignore wall regressions below this baseline (ns)")
    p.add_argument("--markdown-out",
                   help="also write the comparison as a Markdown summary "
                        "table (for CI job summaries)")
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args(argv)
    if not opts.self_test and (not opts.baseline or not opts.candidate):
        p.error("--baseline and --candidate are required")
    return opts


def main(argv):
    opts = parse_args(argv)
    if opts.self_test:
        return self_test()
    try:
        return run_compare(opts)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
