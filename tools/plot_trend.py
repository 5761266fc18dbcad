#!/usr/bin/env python3
"""Perf-trend renderer for the per-commit perf_serve JSONL artifacts.

The CI perf job archives every commit's smoke run as an artifact named
perf-smoke-<sha> (see .github/workflows/ci.yml). This tool pulls a range of
those artifacts — or takes already-downloaded JSONL files — and renders the
QPS and p99 trajectory per commit as a markdown or CSV table, one row per
commit and one column pair per bench, so a regression's first bad commit is
visible at a glance.

Each input is one run. The commit label is taken from, in order: the
parent directory when it matches perf-smoke-<sha> (the layout `gh run
download` produces), the file stem when it isn't the generic perf_smoke
name, else a positional index. Inputs are rendered in the order given, so
pass oldest first for a chronological trend.

Fetching artifacts needs the GitHub CLI (not available inside the perf job
itself, which instead feeds the tool its own fresh JSONL as a single-point
smoke invocation):

    gh run download --dir trend/ --pattern 'perf-smoke-*'   # a range of runs
    tools/plot_trend.py trend/perf-smoke-*/perf_smoke.jsonl

Usage:
    plot_trend.py JSONL [JSONL ...] [--bench NAME ...] [--format md|csv]
                  [--metric qps|p99_us|hist_p50_us|hist_p99_us|both]
                  [--summary PATH]
"""

import argparse
import json
import os
import re
import sys

# Default bench panel: the headline serving paths. Kept short so the
# markdown table stays readable; --bench overrides.
DEFAULT_BENCHES = [
    "serve/threads:8",
    "serve/batch:16",
    "serve/policy:selective(r=0.10,k=2)",
    "serve/policy:plackett-luce(T=0.05)",
    "serve/obs:on",
]


def load_run(path):
    """Parses one perf JSONL capture into {bench_name: fields}."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            name = record.get("bench")
            if name:
                records[name] = record
    return records


def run_label(path, index):
    """Commit label for one input: artifact dir sha > file stem > index."""
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    match = re.match(r"perf-smoke-([0-9a-f]{7,40})$", parent)
    if match:
        return match.group(1)[:10]
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem not in ("perf_smoke", "smoke"):
        return stem[:24]
    return f"run{index}"


def pick_benches(runs, requested):
    if requested:
        return requested
    # Keep the default panel, restricted to benches at least one run has —
    # older commits predate some sweeps, and a fully absent column is noise.
    present = set()
    for records in runs:
        present.update(records)
    chosen = [b for b in DEFAULT_BENCHES if b in present]
    return chosen if chosen else sorted(present)[:4]


def fmt(value, metric):
    if value is None:
        return "—"
    # qps columns are whole numbers; latency columns (p99_us and the
    # histogram-derived hist_p50_us/hist_p99_us) keep one decimal.
    return f"{value:,.0f}" if metric == "qps" else f"{value:.1f}"


def render(labels, runs, benches, metrics, out_format):
    lines = []
    columns = [(b, m) for b in benches for m in metrics]
    if out_format == "csv":
        header = ["commit"] + [f"{b} {m}" for b, m in columns]
        lines.append(",".join(header))
        for label, records in zip(labels, runs):
            row = [label]
            for bench, metric in columns:
                value = records.get(bench, {}).get(metric)
                row.append("" if value is None else f"{value:g}")
            lines.append(",".join(row))
    else:
        lines.append("### perf trend (QPS and p99 per commit)")
        lines.append("")
        header = "| commit | " + " | ".join(f"{b} {m}" for b, m in columns) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (len(columns) + 1))
        for label, records in zip(labels, runs):
            cells = [
                fmt(records.get(bench, {}).get(metric), metric)
                for bench, metric in columns
            ]
            lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "jsonl", nargs="+", help="perf JSONL captures, oldest commit first"
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        help="bench name(s) to plot (repeatable; default: the headline panel)",
    )
    parser.add_argument("--format", choices=("md", "csv"), default="md")
    parser.add_argument(
        "--metric",
        choices=("qps", "p99_us", "hist_p50_us", "hist_p99_us", "both"),
        default="both",
        help="which metric column(s) to render per bench; hist_p50_us/"
        "hist_p99_us are the serve-histogram-derived percentiles points "
        "with an obs registry attach (e.g. serve/obs:on)",
    )
    parser.add_argument(
        "--summary",
        default=None,
        help="file to append the rendered table to (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args()

    runs = []
    labels = []
    for index, path in enumerate(args.jsonl):
        try:
            records = load_run(path)
        except OSError as exc:
            print(f"ERROR: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        if not records:
            print(f"ERROR: {path}: no JSONL records found", file=sys.stderr)
            return 1
        runs.append(records)
        labels.append(run_label(path, index))

    benches = pick_benches(runs, args.bench)
    metrics = ["qps", "p99_us"] if args.metric == "both" else [args.metric]
    text = render(labels, runs, benches, metrics, args.format)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
