#!/usr/bin/env python3
"""Self-test for tools/check_bench.py: every gate in the baseline fires.

Builds a smoke feed that passes every rule of bench/baseline_smoke.json.
Then, for each rule, it builds a feed that breaks the rule and one that
drops the rule's point, and asserts that the gate fails with exactly one
report, which names the rule. Uses only the standard library and writes only
temporary files. Run: python3 tools/check_bench_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(TOOLS, os.pardir, "bench", "baseline_smoke.json")
sys.path.insert(0, TOOLS)

import check_bench  # noqa: E402


def passing_value(op, limit):
    return limit + 1 if op == ">" else limit


def breaking_value(op, limit):
    return {">=": limit * 0.5 - 1, "<=": limit * 2 + 1, ">": limit,
            "==": limit + 1}[op]


class GateTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(BASELINE, encoding="utf-8") as fh:
            cls.baseline = json.load(fh)
        cls.rules = check_bench.gate_rules(cls.baseline)

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def passing_records(self):
        """{bench: fields} that every rule accepts; a string bound gets 1.0."""
        records = {}
        for rule in self.rules:
            record = records.setdefault(rule["bench"], {})
            bound = rule["bound"]
            limit = record.setdefault(bound, 1.0) if isinstance(bound, str) \
                else bound
            record[rule["field"]] = passing_value(rule["op"], limit)
        return records

    def write_feed(self, records, name="feed.jsonl"):
        """Writes records as a capture; span points become one span line."""
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("perf banner and table lines are ignored\n")
            for bench, fields in records.items():
                if bench.startswith("span/"):
                    fields = {"dur_us": fields["p50_us"], "epoch": 1}
                fh.write(json.dumps({"bench": bench, **fields}) + "\n")
        return path

    def gate(self, records):
        loaded, errors = check_bench.load_jsonl(self.write_feed(records))
        self.assertEqual(errors, [])
        failures, _ = check_bench.check(loaded, self.baseline)
        return failures

    def run_tool(self, *args):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_bench.py"), *args],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stderr

    def test_passing_feed_passes(self):
        self.assertEqual(self.gate(self.passing_records()), [])

    def test_each_broken_rule_fails_once_by_name(self):
        for rule in self.rules:
            records = self.passing_records()
            record = records[rule["bench"]]
            bound = rule["bound"]
            limit = record[bound] if isinstance(bound, str) else bound
            record[rule["field"]] = breaking_value(rule["op"], limit)
            name = f"{rule['bench']} {rule['field']} {rule['op']} " \
                   f"{check_bench.fmt(bound)}"
            with self.subTest(rule=name):
                failures = self.gate(records)
                self.assertEqual(len(failures), 1, failures)
                self.assertIn(name, failures[0])

    def test_each_missing_point_fails_once_naming_its_rules(self):
        for bench in {rule["bench"] for rule in self.rules}:
            records = self.passing_records()
            del records[bench]
            with self.subTest(bench=bench):
                failures = self.gate(records)
                self.assertEqual(len(failures), 1, failures)
                self.assertTrue(failures[0].startswith(f"{bench}: missing"))
                for rule in self.rules:
                    if rule["bench"] == bench:
                        text = f"{rule['field']} {rule['op']} " \
                               f"{check_bench.fmt(rule['bound'])}"
                        self.assertIn(text, failures[0])

    def test_missing_field_fails_its_rule(self):
        for rule in self.baseline["rules"]:
            records = self.passing_records()
            if rule["bench"].startswith("span/"):
                continue  # a span line carries only its duration
            del records[rule["bench"]][rule["field"]]
            with self.subTest(rule=rule):
                failures = self.gate(records)
                self.assertEqual(len(failures), 1, failures)
                self.assertIn(f"no {rule['field']} field", failures[0])

    def test_floor_fires_at_tolerance(self):
        keep = 1.0 - self.baseline["tolerance"]
        for bench, floor in self.baseline["qps"].items():
            records = self.passing_records()
            with self.subTest(bench=bench):
                records[bench]["qps"] = (keep + 0.01) * floor
                self.assertEqual(self.gate(records), [])
                records[bench]["qps"] = (keep - 0.01) * floor
                self.assertEqual(len(self.gate(records)), 1)

    def test_large_m_rule_per_family_fires(self):
        """Each family of the policy sweep has a large-m rule that fires
        just past its bound and carries the spread it was recorded from."""
        families = {name.split(":", 1)[1] for name in self.baseline["qps"]
                    if name.startswith("serve/policy:")}
        large_m = [rule for rule in self.baseline["rules"]
                   if rule["bench"].startswith("serve/large_m:")]
        self.assertEqual({rule["bench"].split(":", 1)[1] for rule in large_m},
                         families)
        for rule in large_m:
            with self.subTest(bench=rule["bench"]):
                self.assertEqual((rule["field"], rule["op"]),
                                 ("per_slot_vs_base", "<="))
                self.assertIn("spread", rule)
                records = self.passing_records()
                records[rule["bench"]]["per_slot_vs_base"] = \
                    rule["bound"] * 1.01
                failures = self.gate(records)
                self.assertEqual(len(failures), 1, failures)
                self.assertIn(f"{rule['bench']} per_slot_vs_base <=",
                              failures[0])

    def test_span_lines_fold_to_median(self):
        path = os.path.join(self.tmp.name, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for dur in (5.0, 1.0, 0.0, 3.0):
                fh.write(json.dumps({"bench": "span/publish/merge",
                                     "dur_us": dur}) + "\n")
        records, errors = check_bench.load_jsonl(path)
        self.assertEqual(errors, [])
        self.assertEqual(records["span/publish/merge"]["p50_us"], 3.0)

    def test_exit_codes(self):
        passing = self.write_feed(self.passing_records())
        self.assertEqual(self.run_tool(passing, "--baseline", BASELINE)[0], 0)
        broken = self.passing_records()
        broken["serve/equivalence"]["det_exact"] = 0
        rc, err = self.run_tool(self.write_feed(broken), "--baseline",
                                BASELINE)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL: serve/equivalence det_exact == 1", err)
        empty = os.path.join(self.tmp.name, "empty.jsonl")
        open(empty, "w", encoding="utf-8").close()
        self.assertEqual(self.run_tool(empty, "--baseline", BASELINE)[0], 1)
        malformed = os.path.join(self.tmp.name, "malformed.jsonl")
        with open(passing, encoding="utf-8") as src, \
                open(malformed, "w", encoding="utf-8") as dst:
            dst.write(src.read() + '{"bench":"serve/threads:1","qps":\n')
        self.assertEqual(self.run_tool(malformed, "--baseline", BASELINE)[0],
                         1)
        self.assertEqual(self.run_tool(passing, passing)[0], 2)

    def test_update_rewrites_only_the_floors(self):
        path = os.path.join(self.tmp.name, "baseline.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.baseline, fh)
        low = {"serve/threads:1": {"qps": 1000.0}, "serve/r:0.00": {"qps": 7.0}}
        high = {"serve/threads:1": {"qps": 3000.0}}
        rc, _ = self.run_tool(self.write_feed(low, "low.jsonl"),
                              self.write_feed(high, "high.jsonl"),
                              "--update", "--baseline", path)
        self.assertEqual(rc, 0)
        with open(path, encoding="utf-8") as fh:
            updated = json.load(fh)
        expected = copy.deepcopy(self.baseline)
        expected["qps"] = {"serve/r:0.00": 4.2, "serve/threads:1": 600.0}
        self.assertEqual(updated, expected)


if __name__ == "__main__":
    unittest.main()
