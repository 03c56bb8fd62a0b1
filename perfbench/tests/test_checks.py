"""Tests for the benchmark's own checkers, references and inputs.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The literal outputs are the examples in the repository README.  Every checker
must accept them and reject a copy with one value altered.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
from checks import RenderChecker, check_farey, check_query, check_verify  # noqa: E402
from inputs import LONG_PER_ROUND, ROUND, ROUND_SIZE, lookup_round, render_commands  # noqa: E402

README_VERIFY_12 = {
    "theorem": {"depth": 12, "nodes": 8191, "cw_failures": 0, "farey_failures": 0,
                "elapsed_s": 0.057},
    "topograph": {"depth": 12, "frames": 8191, "conjugation_failures": 0, "label_failures": 0,
                  "mobius_failures": 0, "frame_failures": 0, "elapsed_s": 0.179},
}


def render_check(name, argv, stdout):
    return RenderChecker([(name, argv)]).check(name, stdout)


class VerifyCheck(unittest.TestCase):
    def test_accepts_readme_report(self):
        self.assertIsNone(check_verify(json.dumps(README_VERIFY_12, indent=2), 12))

    def test_rejects_one_altered_value(self):
        for part, key, value in (("theorem", "nodes", 8190), ("theorem", "cw_failures", 1),
                                 ("topograph", "frames", 8192), ("topograph", "label_failures", 2),
                                 ("topograph", "depth", 11)):
            doc = json.loads(json.dumps(README_VERIFY_12))
            doc[part][key] = value
            with self.subTest(key=key):
                self.assertIsNotNone(check_verify(json.dumps(doc), 12))

    def test_rejects_wrong_depth_and_garbage(self):
        self.assertIsNotNone(check_verify(json.dumps(README_VERIFY_12), 13))
        self.assertIsNotNone(check_verify("Traceback (most recent call last):", 12))


class RenderCheck(unittest.TestCase):
    CW2 = ["tree", "--kind", "cw", "--depth", "2"]

    def test_accepts_readme_cw_tree(self):
        self.assertIsNone(render_check("tree-cw-text", self.CW2, "1/1\n1/2 2/1\n1/3 3/2 2/3 3/1\n"))

    def test_rejects_altered_cw_tree(self):
        self.assertIsNotNone(render_check("tree-cw-text", self.CW2, "1/1\n1/2 2/1\n1/3 3/2 2/3 3/2\n"))
        self.assertIsNotNone(render_check("tree-cw-text", self.CW2, "1/1\n1/2 2/1\n"))

    def test_sb_json(self):
        argv = ["tree", "--kind", "sb", "--depth", "1", "--format", "json"]
        good = [{"path": "", "value": "1/1"}, {"path": "L", "value": "1/2"},
                {"path": "R", "value": "2/1"}]
        self.assertIsNone(render_check("tree-sb-json", argv, json.dumps(good, indent=2)))
        good[2]["value"] = "3/1"
        self.assertIsNotNone(render_check("tree-sb-json", argv, json.dumps(good)))

    def test_matrix_dot(self):
        argv = ["tree", "--kind", "matrix", "--depth", "1", "--format", "dot"]
        good = ('digraph matrix {\n  "root" [label="[[1,0],[0,1]]"];\n'
                '  "L" [label="[[1,0],[1,1]]"];\n  "R" [label="[[1,1],[0,1]]"];\n'
                '  "root" -> "L";\n  "root" -> "R";\n}\n')
        self.assertIsNone(render_check("tree-matrix-dot", argv, good))
        self.assertIsNotNone(render_check("tree-matrix-dot", argv, good.replace("[[1,1],[0,1]]", "[[1,1],[1,1]]")))

    def test_topograph_json(self):
        argv = ["topograph", "--depth", "1", "--format", "json"]
        good = [{"path": "", "left": "0/1", "right": "1/0", "forward": "1/1"},
                {"path": "L", "left": "0/1", "right": "1/1", "forward": "1/2"},
                {"path": "R", "left": "1/1", "right": "1/0", "forward": "2/1"}]
        self.assertIsNone(render_check("topograph-json", argv, json.dumps(good)))
        good[1]["right"] = "1/2"
        self.assertIsNotNone(render_check("topograph-json", argv, json.dumps(good)))

    def test_stern(self):
        argv = ["stern", "--count", "6"]
        self.assertIsNone(render_check("stern", argv, "0\n1\n1\n2\n1\n3\n"))
        self.assertIsNotNone(render_check("stern", argv, "0\n1\n1\n2\n2\n3\n"))

    def test_farey(self):
        good = ["0/1", "1/3", "1/2", "2/3", "1/1"]
        self.assertIsNone(check_farey(json.dumps(good), 3))
        for bad in (["0/1", "1/3", "1/2", "3/4", "1/1"], ["0/1", "1/3", "1/2", "1/1"],
                    ["0/1", "1/2", "1/3", "2/3", "1/1"], ["0/1", "1/4", "1/2", "2/3", "1/1"]):
            with self.subTest(bad=bad):
                self.assertIsNotNone(check_farey(json.dumps(bad), 3))


class LookupCheck(unittest.TestCase):
    def test_accepts_readme_locate(self):
        self.assertIsNone(check_query("cw_locate", (4, 3), ("LLR", 8)))

    def test_rejects_altered_locate(self):
        self.assertIsNotNone(check_query("cw_locate", (4, 3), ("LLR", 9)))
        self.assertIsNotNone(check_query("cw_locate", (4, 3), ("LRR", 8)))
        self.assertIsNotNone(check_query("sb_locate", (4, 3), ("LLR", 8)))

    def test_sb_locate(self):
        self.assertIsNone(check_query("sb_locate", (4, 3), ("RLL", 11)))
        self.assertIsNone(check_query("sb_locate", (1, 1), ("", 0)))

    def test_accepts_readme_approx(self):
        self.assertIsNone(check_query("approx", ("3.14159", 10), (22, 7)))

    def test_rejects_altered_approx(self):
        self.assertIsNotNone(check_query("approx", ("3.14159", 10), (23, 7)))
        self.assertIsNotNone(check_query("approx", ("3.14159", 10), (25, 8)))

    def test_approx_tie_rule(self):
        # 1/4 is as far from 0/1 as from 1/2: the smaller denominator wins.
        self.assertIsNone(check_query("approx", ("1/4", 2), (0, 1)))
        self.assertIsNotNone(check_query("approx", ("1/4", 2), (1, 2)))
        # 1/2 is as far from 0/1 as from 1/1: same denominator, the smaller numerator wins.
        self.assertEqual(ref.best_approximation(ref.parse_target("1/2"), 1), (0, 1))

    def test_readme_library_examples(self):
        for n, q in enumerate(["1/1", "1/2", "2/1", "1/3", "3/2", "2/3"]):
            self.assertIsNone(check_query("cw_unrank", n, tuple(map(int, q.split("/")))))
        self.assertIsNotNone(check_query("cw_unrank", 5, (3, 2)))
        self.assertIsNone(check_query("fusc", 8, 4))
        self.assertIsNotNone(check_query("fusc", 8, 5))
        self.assertIsNone(check_query("from_path", "LRR", (3, 2, 1, 1)))
        self.assertIsNotNone(check_query("from_path", "LRR", (3, 2, 1, 2)))
        self.assertIsNone(check_query("decompose", ("LRR", (3, 2, 1, 1)), "LRR"))
        self.assertIsNotNone(check_query("decompose", ("LRR", (3, 2, 1, 1)), "LRL"))
        self.assertIsNone(check_query("cw_value", "LLR", (4, 3)))
        self.assertIsNone(check_query("sb_node", "RL", ((1, 1), (2, 1), (3, 2))))
        self.assertIsNotNone(check_query("sb_node", "RL", ((1, 1), (2, 1), (3, 1))))


class References(unittest.TestCase):
    def test_stern_forms_agree(self):
        table = ref.stern_list(4096)
        self.assertEqual(table[:10], [0, 1, 1, 2, 1, 3, 2, 3, 1, 4])
        self.assertEqual(table, [ref.stern_bitwalk(n) for n in range(4096)])

    def test_rows_and_walks_agree(self):
        for rows, walk in ((ref.cw_rows(6), ref.cw_walk), (ref.matrix_rows(6), ref.matrix_walk)):
            for row in rows:
                for path, state in row:
                    self.assertEqual(state, walk(path))
        for index, (path, _) in enumerate(p for row in ref.cw_rows(6) for p in row):
            self.assertEqual(ref.bfs_index(path), index)

    def test_farey_count(self):
        self.assertEqual([ref.farey_count(n) for n in range(1, 8)], [2, 3, 5, 7, 11, 13, 19])


class Inputs(unittest.TestCase):
    def test_rounds_are_seeded_and_whole(self):
        self.assertEqual(lookup_round(7, 3), lookup_round(7, 3))
        self.assertNotEqual(lookup_round(7, 3), lookup_round(8, 3))
        for index in range(10):
            queries = lookup_round(5, index)
            self.assertEqual(len(queries), ROUND_SIZE)
            self.assertEqual(sum(long for *_, long in queries), LONG_PER_ROUND)
            for kind, count, _ in ROUND:
                self.assertEqual(sum(k == kind for k, *_ in queries), count)

    def test_long_runs_have_the_stated_length(self):
        for kind, arg, long in lookup_round(2, 0):
            if kind in ("cw_value", "sb_node", "from_path"):
                longest = max(len(run) for run in arg.replace("LR", "L R").replace("RL", "R L").split())
                self.assertEqual(long, longest >= 1000)
                self.assertLess(longest, 10_001)

    def test_render_commands_are_seeded(self):
        self.assertEqual(render_commands(4), render_commands(4))
        self.assertEqual([n for n, _ in render_commands(4)], [n for n, _ in render_commands(5)])


class HostSpeedScale(unittest.TestCase):
    def test_scales_by_the_median_probe_nearby(self):
        host = calibrate.HostSpeed()
        ref_s = calibrate.REF_S
        host.probes = [(0.0, ref_s), (1.0, 2 * ref_s), (2.0, 2 * ref_s), (100.0, 10 * ref_s)]
        self.assertAlmostEqual(host.scale(0.5, 1.0), 0.5)  # slow spell: half the time
        self.assertAlmostEqual(host.scale(100.0, 1.0), 0.1)  # far probes are left out

    def test_probe_takes_time(self):
        self.assertGreater(calibrate.probe(), 0)


class RunWithoutPackage(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as empty:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
