#!/usr/bin/env python3
"""CI regression gate for the perf smoke benchmarks.

Checks one smoke capture against the rule table in bench/baseline_smoke.json
and exits nonzero when the capture is empty or malformed, or when any rule
fails. The table has two parts:

  * `qps`, a QPS floor per point. Each floor is the rule
    `qps >= (1 - tolerance) * floor`, so the floor map also lists the points
    a run must contain.
  * `rules`, checks of one field of one point: `{bench, field, op, bound}`
    with op one of <=, >=, > and ==. A string bound names another field of
    the same point (`chi2 <= chi2_critical`).

Every rule is checked in one loop. A field missing from a point fails its
rule; a point missing from the run fails all of its rules in one report.
Span lines (one per emitted trace span, bench name "span/<phase>") fold into
one `span/<phase>` record whose `p50_us` is the median positive span
duration, so the per-phase publish budgets are ordinary rules.

Absolute QPS varies across runner hardware, so the floors are recorded 40%
below the lowest QPS of several runs, and the gate only fires on large
relative drops. The smoke capture concatenates perf_serve, perf_net,
perf_bai and perf_fault (one JSONL feed, disjoint bench names). Capture and
gate it, or rewrite the floors (and nothing else) from several captures:

    { perf_serve --smoke; perf_net --smoke; perf_bai --smoke; \\
      perf_fault --smoke; } | grep '^{' > smoke.jsonl
    tools/check_bench.py smoke.jsonl
    tools/check_bench.py r1.jsonl r2.jsonl r3.jsonl --update

tools/check_bench_test.py shows that every rule in the table fires.
"""

import argparse
import json
import operator
import sys

# Fraction shaved off the lowest measured QPS when --update writes a floor.
HEADROOM = 0.40

OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt,
       "==": operator.eq}


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def load_jsonl(path):
    """Parses one capture into ({bench_name: fields}, errors).

    A later line wins for a repeated name, except span lines: every span of
    one name folds into a single record carrying the median positive
    duration as p50_us.
    """
    records = {}
    spans = {}
    errors = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line.startswith("{"):
                continue  # human-oriented table output mixed into the capture
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: malformed JSON ({exc})")
                continue
            name = record.get("bench")
            if not name:
                errors.append(f'line {lineno}: missing "bench" key')
            elif name.startswith("span/"):
                if record.get("dur_us", 0) > 0:
                    spans.setdefault(name, []).append(record["dur_us"])
            else:
                records[name] = record
    for name, durs in spans.items():
        records[name] = {"bench": name, "p50_us": median(durs)}
    return records, errors


def fmt(value):
    if isinstance(value, str):
        return value
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def gate_rules(baseline):
    """The baseline's rules, led by one QPS rule per floor."""
    keep = 1.0 - baseline["tolerance"]
    floors = [{"bench": name, "field": "qps", "op": ">=", "bound": keep * qps}
              for name, qps in sorted(baseline["qps"].items())]
    return floors + baseline["rules"]


def check(records, baseline):
    """Returns (failures, rows); rows feed the markdown summary."""
    failures = []
    rows = []
    missing = {}
    for rule in gate_rules(baseline):
        bench, field, bound = rule["bench"], rule["field"], rule["bound"]
        text = f"{field} {rule['op']} {fmt(bound)}"
        record = records.get(bench)
        if record is None:
            missing.setdefault(bench, []).append(text)
            rows.append((bench, text, None, "MISSING"))
            continue
        value = record.get(field)
        limit = record.get(bound) if isinstance(bound, str) else bound
        if value is None or limit is None:
            status = "MISSING"
            failures.append(f"{bench} {text}: the point has no "
                            f"{field if value is None else bound} field")
        elif OPS[rule["op"]](value, limit):
            status = "ok"
        else:
            status = "FAIL"
            against = f" against {fmt(limit)}" if isinstance(bound, str) else ""
            failures.append(f"{bench} {text}: run has {fmt(value)}{against}")
        rows.append((bench, text, value, status))
    for bench, texts in missing.items():
        failures.append(f"{bench}: missing from run ({'; '.join(texts)})")
    return failures, rows


def write_summary(path, rows, failures):
    lines = ["### perf smoke vs bench/baseline_smoke.json", "",
             "| bench | rule | run | status |", "|---|---|---|---|"]
    for bench, text, value, status in rows:
        run = "—" if value is None else fmt(value)
        mark = "✅" if status == "ok" else "❌"
        lines.append(f"| {bench} | {text} | {run} | {mark} {status} |")
    lines.append("")
    lines.append("**GATE FAILED**" if failures else
                 f"**gate passed** (all {len(rows)} rules held)")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text)


def update_floors(runs, baseline, path):
    """Rewrites the floor map from the lowest QPS of each point."""
    lowest = {}
    for records in runs:
        for name, record in records.items():
            qps = record.get("qps", 0)
            if qps > 0:
                lowest[name] = min(qps, lowest.get(name, qps))
    baseline["qps"] = {name: round(qps * (1.0 - HEADROOM), 1)
                       for name, qps in sorted(lowest.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"floors written to {path}: {len(lowest)} points")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "jsonl", nargs="+",
        help="JSONL smoke capture(s); the gate checks exactly one, --update "
        "accepts several")
    parser.add_argument("--baseline", default="bench/baseline_smoke.json")
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline's QPS floors from these runs")
    parser.add_argument(
        "--summary", default=None, help="markdown file to append the report to")
    args = parser.parse_args()

    if not args.update and len(args.jsonl) != 1:
        print("ERROR: the gate checks exactly one run", file=sys.stderr)
        return 2

    runs = []
    for path in args.jsonl:
        records, errors = load_jsonl(path)
        for error in errors:
            print(f"ERROR: {path}: {error}", file=sys.stderr)
        if not records:
            print(f"ERROR: {path}: no JSONL records found", file=sys.stderr)
            return 1
        if errors:
            return 1
        runs.append(records)

    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: cannot load baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 1

    if args.update:
        update_floors(runs, baseline, args.baseline)
        return 0

    failures, rows = check(runs[0], baseline)
    write_summary(args.summary, rows, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
