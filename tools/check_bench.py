#!/usr/bin/env python3
"""CI regression gate for the perf_serve smoke benchmark.

Compares a perf_serve --smoke JSONL run against the checked-in baseline
(bench/baseline_smoke.json) and exits nonzero on:

  * unparseable or empty JSONL (a crashed bench must not pass),
  * any baseline bench missing from the run (a silently shrunk sweep),
  * QPS regression beyond the tolerance on any baseline bench,
  * statistical drift between the served lists and the
    Ranker::MaterializeList reference (the serve/equivalence record: chi2
    must stay under its critical value, and the r=0 served list must equal
    the deterministic order exactly),
  * a policy family missing from the serve/policy: sweep (the baseline's
    policy_families list records which ranking families the run must
    cover; bench names embed the policy label, e.g.
    "serve/policy:plackett-luce(T=0.05)", so points are keyed by the
    exact policy string and parse back via MakePolicyFromLabel),
  * a missing serve/epoch_publish point, or one without positive publish
    latencies (the epoch_publish list records the Update()-latency
    coverage: snapshot rebuild + BuildEpochState + cache build is the
    unit cost of an online policy hot-swap, so it must stay measured),
  * a missing serve/obs:{on,off} ablation point, or an instrumented-path
    QPS ratio (the on point's qps_vs_off, the best pairwise on/off ratio
    over alternating reps) under min_obs_qps_ratio — the observability
    layer's <= 5% overhead acceptance criterion, gated hardware-
    independently like the other within-run ratios,
  * a missing perf_net point (the net list records the socket-vs-in-process
    coverage), or a net/socket point without a positive network_tax ratio
    against a positive inprocess_qps — the daemon's wire-cost measurement
    must stay measured, not just present,
  * a missing serve/fault:{off,on,armed} point, or an armed-injector QPS
    ratio (the on point's qps_vs_off, best pairwise over alternating reps
    like the obs ablation) under min_fault_qps_ratio — the fault-injection
    framework's <= 1% hot-path overhead acceptance criterion: compiled-in
    fault sites must stay free when no plan mentions them,
  * a missing publish-phase span family, or one whose median duration blows
    its per-phase budget (publish_phase_budget_us records a generous
    multiple of the observed span/publish/{shards,merge,epoch_state,
    rcu_publish} medians — a budget alert for order-of-magnitude publish
    regressions, phase by phase, not just the total),
  * a missing perf_bai point (the bai list records the adaptive-
    experimentation coverage), a bai/decide point without a positive
    decision latency, or a bai/epoch_overhead whose adaptive-vs-fixed
    overhead exceeds max_bai_epoch_overhead_pct (the decision machinery
    must stay a rounding error next to serving the epoch's queries).

Absolute QPS varies across runner hardware, so baseline values are
recorded deliberately low (see --headroom at --update time) and the gate
only fires on large relative drops. The smoke capture concatenates
perf_serve, perf_net, perf_bai, and perf_fault (one JSONL feed, disjoint
bench names). Refresh the baseline with:

    { perf_serve --smoke; perf_net --smoke; perf_bai --smoke; \
      perf_fault --smoke; } | grep '^{' > smoke.jsonl
    tools/check_bench.py smoke.jsonl --update

Usage:
    check_bench.py SMOKE_JSONL [--baseline PATH] [--tolerance F]
                   [--update] [--headroom F] [--summary PATH]
"""

import argparse
import json
import sys


def load_jsonl(path):
    """Parses the JSONL lines of a perf run.

    Returns ({bench_name: fields}, {span_name: [fields, ...]}, errors).
    Perf records are unique per name (later lines win); span lines
    ("span/..." bench names, one per emitted trace span) repeat, so they
    are collected into per-name lists for the phase-budget checks.
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
                continue
            if name.startswith("span/"):
                spans.setdefault(name[len("span/"):], []).append(record)
            else:
                records[name] = record
    return records, spans, errors


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def policy_family(bench_name):
    """Family slug of a serve/policy: bench name, or None for other benches.

    The suffix after "serve/policy:" is the exact policy label
    ("selective(r=0.10,k=2)", "plackett-luce(T=0.05)", ...); the family is
    the label up to its parameter list.
    """
    prefix = "serve/policy:"
    if not bench_name.startswith(prefix):
        return None
    label = bench_name[len(prefix):]
    return label.split("(", 1)[0]


def check(records, spans, baseline, tolerance):
    """Returns (failures, rows) where rows feed the markdown summary."""
    failures = []
    rows = []
    tol = tolerance if tolerance is not None else baseline.get("tolerance", 0.30)

    for name, base in sorted(baseline.get("qps", {}).items()):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: present in baseline but missing from run")
            rows.append((name, None, base, None, "MISSING"))
            continue
        qps = record.get("qps")
        if qps is None:
            failures.append(f"{name}: run record has no qps field")
            rows.append((name, None, base, None, "NO QPS"))
            continue
        floor = (1.0 - tol) * base
        ratio = qps / base if base > 0 else float("inf")
        ok = qps >= floor
        rows.append((name, qps, base, ratio, "ok" if ok else "REGRESSION"))
        if not ok:
            failures.append(
                f"{name}: qps {qps:.0f} fell below {floor:.0f} "
                f"(baseline {base:.0f}, tolerance {tol:.0%})"
            )

    # Observability-overhead ablation: the serve/obs pair must be present and
    # the instrumented point must retain at least min_obs_qps_ratio of the
    # bare point's QPS (its qps_vs_off field — measured as the best pairwise
    # on/off ratio over alternating reps, so CI-runner noise bursts do not
    # masquerade as instrumentation cost).
    min_obs = baseline.get("min_obs_qps_ratio", 0.0)
    for name in baseline.get("obs_ablation", []):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: obs-ablation record missing from run")
            rows.append((name, None, None, None, "MISSING"))
            continue
        if name.endswith(":on") and min_obs > 0.0:
            ratio = record.get("qps_vs_off", 0.0)
            ok = ratio >= min_obs
            rows.append((f"{name} qps_vs_off", ratio, min_obs, None,
                         "ok" if ok else "REGRESSION"))
            if not ok:
                failures.append(
                    f"obs overhead: instrumented QPS ratio {ratio:.3f} fell "
                    f"below {min_obs:.2f} of the uninstrumented point"
                )
        else:
            rows.append((name, record.get("qps"), None, None, "ok"))

    # Epoch-publish coverage: the Update()-latency point must be present and
    # carry positive latency fields (a point that lost its latency metrics —
    # e.g. a refactor dropping the timing — must not pass silently). The QPS
    # floor above already gates its publish rate like any other bench.
    for name in baseline.get("epoch_publish", []):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: epoch-publish record missing from run")
            rows.append((name, None, None, None, "MISSING"))
            continue
        p50 = record.get("p50_us", 0.0)
        swap_p50 = record.get("swap_p50_us", 0.0)
        ok = p50 > 0.0 and swap_p50 > 0.0
        rows.append((f"{name} p50_us", p50, None, None,
                     "ok" if ok else "MISSING"))
        if not ok:
            failures.append(
                f"{name}: publish latencies missing or non-positive "
                f"(p50_us={p50}, swap_p50_us={swap_p50})"
            )

    # Network-tax coverage: the perf_net points must be present, and each
    # socket point must carry the within-run network_tax ratio against a
    # positive in-process baseline (a run that lost the socket path, or the
    # baseline it is measured against, must not pass silently). The ratio is
    # hardware-independent; absolute socket QPS is gated by the floors above
    # like any other bench.
    for name in baseline.get("net", []):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: net record missing from run")
            rows.append((name, None, None, None, "MISSING"))
            continue
        if name.startswith("net/socket"):
            tax = record.get("network_tax", 0.0)
            inproc = record.get("inprocess_qps", 0.0)
            ok = tax > 0.0 and inproc > 0.0
            rows.append((f"{name} network_tax", tax, None, None,
                         "ok" if ok else "MISSING"))
            if not ok:
                failures.append(
                    f"{name}: network_tax/inprocess_qps missing or "
                    f"non-positive (network_tax={tax}, "
                    f"inprocess_qps={inproc})"
                )
        else:
            rows.append((name, record.get("qps"), None, None, "ok"))

    # Fault-point overhead ablation: the serve/fault points must be present
    # and the armed-injector point (serve/fault:on — installed, but its plan
    # never mentions serve.query) must retain at least min_fault_qps_ratio
    # of the bare point's QPS. Compiled-in fault sites are on the query hot
    # path permanently; this gate is what keeps them effectively free in
    # production, where no plan is armed. serve/fault:armed (an inert rule
    # naming serve.query) is coverage-checked but its ratio is not gated.
    min_fault = baseline.get("min_fault_qps_ratio", 0.0)
    for name in baseline.get("fault", []):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: fault-ablation record missing from run")
            rows.append((name, None, None, None, "MISSING"))
            continue
        if name == "serve/fault:on" and min_fault > 0.0:
            ratio = record.get("qps_vs_off", 0.0)
            ok = ratio >= min_fault
            rows.append((f"{name} qps_vs_off", ratio, min_fault, None,
                         "ok" if ok else "REGRESSION"))
            if not ok:
                failures.append(
                    f"fault-point overhead: armed-injector QPS ratio "
                    f"{ratio:.3f} fell below {min_fault:.2f} of the bare point"
                )
        else:
            rows.append((name, record.get("qps"), None, None, "ok"))

    # Publish-phase budgets: perf_serve's obs:on rep drains its TraceLog into
    # the JSONL feed, so every epoch publish contributes one span per phase
    # (span/publish/{shards,merge,epoch_state,rcu_publish,...}). The baseline
    # records a generous per-phase budget (a multiple of the medians observed
    # at --update time); the gate fires on a missing phase family or a run
    # median over budget — a per-phase alert that catches one publish stage
    # regressing by an order of magnitude even when publish/total still looks
    # plausible.
    for phase, budget in sorted(
            baseline.get("publish_phase_budget_us", {}).items()):
        phase_spans = spans.get(phase, [])
        durs = [s["dur_us"] for s in phase_spans if s.get("dur_us", 0) > 0]
        if not durs:
            failures.append(
                f"span/{phase}: no spans in run (publish-phase trace "
                "coverage lost)"
            )
            rows.append((f"span/{phase} p50_us", None, budget, None, "MISSING"))
            continue
        p50 = median(durs)
        ok = p50 <= budget
        rows.append((f"span/{phase} p50_us", p50, budget, None,
                     "ok" if ok else "OVER BUDGET"))
        if not ok:
            failures.append(
                f"span/{phase}: median {p50:.1f}us blew the per-phase "
                f"budget {budget:.1f}us over {len(durs)} spans"
            )

    # Adaptive-experimentation coverage: the perf_bai points must be present,
    # each bai/decide point must carry a positive decision latency, and the
    # epoch-overhead point must show the adaptive loop (BaiController::Step)
    # staying within max_bai_epoch_overhead_pct of the fixed A/B loop — a
    # hardware-independent within-run ratio, like the obs and fault gates.
    max_overhead = baseline.get("max_bai_epoch_overhead_pct", 0.0)
    for name in baseline.get("bai", []):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: bai record missing from run")
            rows.append((name, None, None, None, "MISSING"))
            continue
        if name.startswith("bai/decide"):
            us = record.get("us_per_decision", 0.0)
            ok = us > 0.0
            rows.append((f"{name} us_per_decision", us, None, None,
                         "ok" if ok else "MISSING"))
            if not ok:
                failures.append(
                    f"{name}: us_per_decision missing or non-positive ({us})"
                )
        elif name == "bai/epoch_overhead":
            fixed_ms = record.get("fixed_ms_per_epoch", 0.0)
            adaptive_ms = record.get("adaptive_ms_per_epoch", 0.0)
            overhead = record.get("overhead_pct", 0.0)
            measured = fixed_ms > 0.0 and adaptive_ms > 0.0
            within = max_overhead <= 0.0 or overhead <= max_overhead
            status = "ok" if measured and within else (
                "MISSING" if not measured else "REGRESSION")
            rows.append((f"{name} overhead_pct", overhead,
                         max_overhead if max_overhead > 0.0 else None, None,
                         status))
            if not measured:
                failures.append(
                    f"{name}: epoch timings missing or non-positive "
                    f"(fixed_ms={fixed_ms}, adaptive_ms={adaptive_ms})"
                )
            elif not within:
                failures.append(
                    f"{name}: adaptive epoch overhead {overhead:.1f}% "
                    f"exceeds {max_overhead:.0f}% of the fixed loop"
                )
        else:
            rows.append((name, record.get("qps"), None, None, "ok"))

    # Policy-sweep coverage: every ranking family the baseline records must
    # still emit at least one serve/policy: point (a family silently dropped
    # from the sweep is a gate failure, like a shrunk sweep).
    covered = {policy_family(name) for name in records} - {None}
    for family in baseline.get("policy_families", []):
        ok = family in covered
        rows.append((f"policy family {family}", None, None, None,
                     "ok" if ok else "MISSING"))
        if not ok:
            failures.append(
                f"policy family {family}: no serve/policy:{family}(...) "
                "record in the run"
            )

    equiv = records.get("serve/equivalence")
    if equiv is None:
        failures.append("serve/equivalence record missing from run")
        rows.append(("serve/equivalence", None, None, None, "MISSING"))
    else:
        chi2 = equiv.get("chi2")
        critical = equiv.get("chi2_critical")
        det_exact = equiv.get("det_exact")
        drifted = chi2 is None or critical is None or chi2 > critical
        inexact = det_exact != 1
        if drifted:
            failures.append(
                f"serve/equivalence: chi2 {chi2} exceeds critical {critical} "
                "(served tail distribution drifted from MaterializeList)"
            )
        if inexact:
            failures.append(
                "serve/equivalence: the r=0 served list no longer matches "
                "the deterministic order exactly"
            )
        status = "ok" if not (drifted or inexact) else "DRIFT"
        rows.append(("serve/equivalence", chi2, critical, None, status))
    return failures, rows


def write_summary(path, rows, failures):
    lines = ["### perf_serve smoke vs baseline", ""]
    lines.append("| bench | run | baseline | ratio | status |")
    lines.append("|---|---|---|---|---|")
    for name, run, base, ratio, status in rows:
        fmt = lambda v: f"{v:,.0f}" if isinstance(v, (int, float)) else "—"
        ratio_s = f"{ratio:.2f}x" if isinstance(ratio, float) else "—"
        mark = "✅" if status == "ok" else "❌"
        lines.append(
            f"| {name} | {fmt(run)} | {fmt(base)} | {ratio_s} | {mark} {status} |"
        )
    lines.append("")
    lines.append(
        "**GATE FAILED**" if failures else "**gate passed** "
        "(QPS within tolerance, served distribution matches the reference)"
    )
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text)


PUBLISH_PHASES = (
    "publish/shards",
    "publish/merge",
    "publish/epoch_state",
    "publish/rcu_publish",
)


def update_baseline(records, spans, path, tolerance, headroom):
    qps = {
        name: round(record["qps"] * (1.0 - headroom), 1)
        for name, record in sorted(records.items())
        if "qps" in record and record.get("qps", 0) > 0
    }
    # Per-phase publish budgets: 25x the observed median (floor 50us) — a
    # budget *alert* for order-of-magnitude regressions, not a tight bound,
    # so runner-hardware variance never trips it.
    phase_budget = {}
    for phase in PUBLISH_PHASES:
        durs = [s["dur_us"] for s in spans.get(phase, [])
                if s.get("dur_us", 0) > 0]
        if durs:
            phase_budget[phase] = round(max(median(durs) * 25.0, 50.0), 1)
        else:
            print(f"WARNING: no span/{phase} lines in run; phase budget "
                  "not recorded", file=sys.stderr)
    baseline = {
        "comment": (
            "perf_serve --smoke QPS floors for tools/check_bench.py. Values "
            f"are a recorded run scaled down by {headroom:.0%} headroom; the "
            "gate fires when a run drops more than `tolerance` below them. "
            "Absolute QPS depends on runner hardware — record the baseline "
            "on (or conservatively below) the hardware the gate runs on, "
            "from the min of several runs: tools/check_bench.py r1.jsonl "
            "r2.jsonl r3.jsonl --update. The distribution-drift, "
            "policy_families coverage, and bai epoch-overhead checks are "
            "hardware-independent; "
            "publish_phase_budget_us records 25x the observed per-phase "
            "median, a budget alert rather than a tight bound."
        ),
        "tolerance": tolerance if tolerance is not None else 0.30,
        "min_obs_qps_ratio": 0.95,
        "min_fault_qps_ratio": 0.99,
        "max_bai_epoch_overhead_pct": 50.0,
        "publish_phase_budget_us": phase_budget,
        "bai": sorted(
            name for name in records if name.startswith("bai/")
        ),
        "obs_ablation": sorted(
            name for name in records if name.startswith("serve/obs:")
        ),
        "fault": sorted(
            name for name in records if name.startswith("serve/fault:")
        ),
        "epoch_publish": sorted(
            name for name in records if name.startswith("serve/epoch_publish")
        ),
        "net": sorted(
            name for name in records if name.startswith("net/")
        ),
        "policy_families": sorted(
            {policy_family(name) for name in records} - {None}
        ),
        "qps": qps,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"baseline written to {path}: {len(qps)} benches")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "jsonl",
        nargs="+",
        help="JSONL capture(s) of perf_serve --smoke runs; the gate checks "
        "exactly one, --update accepts several and keeps elementwise "
        "minimum QPS (absorbing run-to-run noise)",
    )
    parser.add_argument("--baseline", default="bench/baseline_smoke.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional QPS drop (default: value stored in baseline)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline from this run"
    )
    parser.add_argument(
        "--headroom",
        type=float,
        default=0.40,
        help="fraction shaved off measured QPS when writing a baseline, "
        "absorbing runner-hardware variance (default 0.40)",
    )
    parser.add_argument(
        "--summary", default=None, help="markdown file to append the report to"
    )
    args = parser.parse_args()

    if not args.update and len(args.jsonl) != 1:
        print("ERROR: the gate checks exactly one run", file=sys.stderr)
        return 2

    merged = {}
    merged_spans = {}
    for path in args.jsonl:
        records, spans, errors = load_jsonl(path)
        for error in errors:
            print(f"ERROR: {path}: {error}", file=sys.stderr)
        if not records:
            print(f"ERROR: {path}: no JSONL records found", file=sys.stderr)
            return 1
        if errors:
            return 1
        for name, record in records.items():
            kept = merged.get(name)
            if kept is None or record.get("qps", 0) < kept.get("qps", 0):
                merged[name] = record
        for name, span_list in spans.items():
            merged_spans.setdefault(name, []).extend(span_list)
    records = merged
    spans = merged_spans

    if args.update:
        update_baseline(records, spans, args.baseline, args.tolerance,
                        args.headroom)
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
        return 1

    failures, rows = check(records, spans, baseline, args.tolerance)
    write_summary(args.summary, rows, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
