#!/usr/bin/env python3
"""Fail CI when the docs drift from the code they document.

Two mechanical checks, both run by default:

  --protocol   docs/PROTOCOL.md vs src/net/protocol.h. Every enumerator of
               FrameType / ErrorCode / HealthStatus (parsed as `kName = value`)
               must appear in the doc as its UPPER_SNAKE wire name on one line
               with its value, and every framing constant (kMagic,
               kProtocolVersion, kHeaderSize, kMaxPayload) must appear with
               its literal. The reverse direction is checked from the doc's
               tables: any backticked UPPER_SNAKE row whose second cell is a
               number must name a real enumerator with the right value — a
               stale id in the doc fails even after the header forgot it.

  --metrics    docs/METRICS.md vs the live registry. Runs the dump_metrics
               tool (one registry exercising serve + net + fault + exp) and
               diffs its `kind name` inventory against the doc's tables in
               both directions. Doc names may contain <placeholder> segments,
               matched as one path component ([^/]+), so `exp/arm:<arm>/split`
               covers every arm.

Usage:
  tools/lint_docs.py                      # both checks, default paths
  tools/lint_docs.py --protocol
  tools/lint_docs.py --metrics --dump ./build/tools/dump_metrics
"""

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

PROTOCOL_ENUMS = ("FrameType", "ErrorCode", "HealthStatus")
PROTOCOL_CONSTANTS = ("kMagic", "kProtocolVersion", "kHeaderSize",
                      "kMaxPayload")


def camel_to_wire(name):
    """kQueryReply -> QUERY_REPLY (the doc's wire-name convention)."""
    assert name.startswith("k")
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name[1:]).upper()


def parse_enum(header_text, enum_name):
    """-> {wire_name: int_value} for one `enum class` block."""
    block = re.search(
        r"enum class %s[^{]*\{(.*?)\};" % enum_name, header_text, re.S)
    if not block:
        raise SystemExit(f"lint_docs: enum {enum_name} not found in header")
    out = {}
    for m in re.finditer(r"(k[A-Za-z0-9]+)\s*=\s*(0x[0-9a-fA-F]+|\d+)",
                         block.group(1)):
        out[camel_to_wire(m.group(1))] = int(m.group(2), 0)
    return out


def parse_constants(header_text):
    """-> {kName: literal_text} with the `u` suffix stripped."""
    out = {}
    for m in re.finditer(
            r"inline constexpr \w+ (k\w+) = ([^;]+);", header_text):
        literal = re.sub(r"\bu\b", "", re.sub(r"(\d)u\b", r"\1", m.group(2)))
        out[m.group(1)] = " ".join(literal.split())
    return out


def check_protocol(header_path, doc_path):
    failures = []
    header = header_path.read_text()
    doc_lines = doc_path.read_text().splitlines()

    enums = {name: parse_enum(header, name) for name in PROTOCOL_ENUMS}

    # Header -> doc: each enumerator's wire name and value share a line.
    for enum_name, entries in enums.items():
        for wire, value in entries.items():
            # Frame ids are documented in hex, small codes in decimal.
            rendered = f"0x{value:02X}" if enum_name == "FrameType" \
                else str(value)
            pat_name = re.compile(rf"\b{wire}\b")
            pat_value = re.compile(rf"(?<![\w.]){re.escape(rendered)}(?![\w.])")
            if not any(pat_name.search(l) and pat_value.search(l)
                       for l in doc_lines):
                failures.append(
                    f"PROTOCOL.md: {enum_name}::{wire} = {rendered} "
                    f"has no line naming both")

    # Constants: name and literal share a line.
    constants = parse_constants(header)
    for name in PROTOCOL_CONSTANTS:
        if name not in constants:
            failures.append(f"protocol.h: constant {name} not found")
            continue
        literal = constants[name]
        if not any(name in l and literal in l for l in doc_lines):
            failures.append(
                f"PROTOCOL.md: constant {name} = {literal} "
                f"has no line naming both")

    # Doc -> header: every backticked UPPER_SNAKE table row with a numeric
    # second cell must be a real enumerator with that value. A wire name may
    # legally repeat across enums (DRAINING is ErrorCode 5 and HealthStatus
    # 2), so match against the set of values it carries anywhere.
    known = {}
    for entries in enums.values():
        for wire, value in entries.items():
            known.setdefault(wire, set()).add(value)
    for line in doc_lines:
        m = re.match(r"\|\s*`([A-Z][A-Z0-9_]*)`\s*\|\s*`?(0x[0-9a-fA-F]+|\d+)`?\s*\|",
                     line)
        if not m:
            continue
        name, value = m.group(1), int(m.group(2), 0)
        if name not in known:
            failures.append(f"PROTOCOL.md: `{name}` is not in protocol.h")
        elif value not in known[name]:
            failures.append(
                f"PROTOCOL.md: `{name}` documented as {m.group(2)} but "
                f"protocol.h says {sorted(known[name])}")
    return failures


def parse_metric_doc(doc_path):
    """-> [(name_pattern_text, kind)] from rows `| `name` | kind | ...`."""
    rows = []
    for line in doc_path.read_text().splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|\s*(counter|gauge|histogram)\s*\|",
                     line)
        if m:
            rows.append((m.group(1), m.group(2)))
    return rows


def doc_pattern(name):
    """`exp/arm:<arm>/split` -> anchored regex, <...> = one path segment."""
    return re.compile(
        "^" + re.sub(r"<[^>]+>", r"[^/]+", re.escape(name).replace(
            re.escape("<"), "<").replace(re.escape(">"), ">")) + "$")


def check_metrics(dump_path, doc_path):
    failures = []
    try:
        inventory_text = subprocess.run(
            [str(dump_path)], capture_output=True, text=True, check=True,
            timeout=120).stdout
    except (OSError, subprocess.SubprocessError) as err:
        return [f"metrics: failed to run {dump_path}: {err}"]

    live = []  # (kind, name)
    for line in inventory_text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("counter", "gauge", "histogram"):
            live.append((parts[0], parts[1]))
    if not live:
        return [f"metrics: {dump_path} printed no inventory"]

    rows = parse_metric_doc(doc_path)
    if not rows:
        return [f"metrics: no `| \\`name\\` | kind |` rows in {doc_path}"]
    compiled = [(name, kind, doc_pattern(name)) for name, kind in rows]

    # Live -> doc: every registered metric is documented with its kind.
    for kind, name in live:
        hits = [k for _, k, pat in compiled if pat.match(name)]
        if not hits:
            failures.append(f"METRICS.md: live {kind} `{name}` undocumented")
        elif kind not in hits:
            failures.append(
                f"METRICS.md: live `{name}` is a {kind} but documented "
                f"as {'/'.join(sorted(set(hits)))}")

    # Doc -> live: every documented row matches something dump_metrics saw.
    for name, kind, pat in compiled:
        if not any(k == kind and pat.match(n) for k, n in live):
            failures.append(
                f"METRICS.md: documented {kind} `{name}` matches no live "
                f"metric (stale row, or dump_metrics no longer exercises it)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--protocol", action="store_true")
    ap.add_argument("--metrics", action="store_true")
    ap.add_argument("--header", default=str(REPO / "src/net/protocol.h"))
    ap.add_argument("--protocol-doc", default=str(REPO / "docs/PROTOCOL.md"))
    ap.add_argument("--dump", default=str(REPO / "build/tools/dump_metrics"))
    ap.add_argument("--metrics-doc", default=str(REPO / "docs/METRICS.md"))
    args = ap.parse_args()

    run_all = not (args.protocol or args.metrics)
    failures = []
    if args.protocol or run_all:
        failures += check_protocol(pathlib.Path(args.header),
                                   pathlib.Path(args.protocol_doc))
    if args.metrics or run_all:
        failures += check_metrics(pathlib.Path(args.dump),
                                  pathlib.Path(args.metrics_doc))

    if failures:
        print(f"lint_docs: {len(failures)} failure(s)")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("lint_docs: docs match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
