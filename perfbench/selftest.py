"""Checks of the benchmark itself: every output check can fail, and a
failing or raising request is counted without stopping the run.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/selftest.py
"""

import dataclasses
import json
import unittest
from unittest import mock

import run
import tracing
import workloads
from bgg import orbits, parabolic, verma, weyl


def _request(universe, key):
    return next(req for req in universe if req.key == key)


def _run_once(requests, golden):
    return workloads.run_loop(iter([[(req, 1) for req in requests]]), golden, pass_count=1)


class ChecksCanFail(unittest.TestCase):
    def setUp(self):
        self.golden = workloads.load_golden()

    def test_genuine_outputs_pass(self):
        reqs = [
            _request(workloads.figures(), "figures: singular n=8 k=7"),
            _request(workloads.verify(), "verify: row n=3 k=1 sign=+"),
        ]
        self.assertEqual(_run_once(reqs, self.golden)["failures"], [])

    def test_corrupted_digest(self):
        req = _request(workloads.figures(), "figures: singular n=8 k=7")
        golden = dict(self.golden, **{req.key: "0" * 64})
        result = _run_once([req], golden)
        self.assertEqual(len(result["failures"]), 1)
        self.assertIn("output digest differs from golden", result["failures"][0]["problems"])

    def test_perturbed_row_treated_as_genuine(self):
        genuine_row = verma.singular_vector_row

        def perturbed_row(n, k, sign="+"):
            row = genuine_row(n, k, sign)
            (coeff, ys, f), *rest = reversed(row.terms)
            terms = tuple(reversed(rest)) + ((-coeff, ys, f),)
            return dataclasses.replace(row, terms=terms)

        req = _request(workloads.verify(), "verify: row n=3 k=1 sign=+")
        with mock.patch.object(workloads.verma, "singular_vector_row", perturbed_row):
            result = _run_once([req], self.golden)
        self.assertEqual(len(result["failures"]), 1)
        problems = result["failures"][0]["problems"]
        self.assertTrue(any(p.startswith("genuine row not verified") for p in problems))
        self.assertIn("perturbed row is still maximal", problems)

    def test_wrong_expected_exit_code(self):
        req = workloads.cli_request("hasse --n 4", 1, workloads.GOLDEN)
        result = _run_once([req], self.golden)
        self.assertEqual(len(result["failures"]), 1)
        self.assertIn("exit 0, expected 1", result["failures"][0]["problems"])

    def test_request_that_raises_is_counted_and_the_run_goes_on(self):
        good = _request(workloads.figures(), "figures: singular n=8 k=7")
        raises = workloads.figure_request(8, 9)  # k out of range
        result = _run_once([good, raises, good], self.golden)
        self.assertEqual(len(result["latencies"]), 3)
        self.assertEqual(len(result["failures"]), 1)
        self.assertEqual(result["failures"][0]["key"], raises.key)
        self.assertTrue(result["failures"][0]["problems"][0].startswith("raised ValueError"))

    def test_fixture_mismatch(self):
        fx = json.loads((workloads.FIXTURES / "figure_singular_n8_k1.json").read_text())
        d = orbits.singular_orbit(8, 1)
        self.assertEqual(workloads.fixture_problems(d, fx), [])
        fx["equals"] = fx["equals"][1:]
        self.assertEqual(workloads.fixture_problems(d, fx), ["fixture: identity arrows"])


class Definitions(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in tracing.METRICS],
        )
        fake = {"keys": ["a", "b"], "latencies": [0.1, 0.2], "wall_s": 1.0, "peak_rss_kb": 1024}
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(name, unit) for name, (_, unit) in run._end_to_end(fake, [1.0]).items()],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_known_defects_are_cli_requests_without_digests(self):
        by_key = {req.key: req for req in workloads.cli()}
        for key in workloads.KNOWN_DEFECTS:
            self.assertIsNone(by_key[key].text)

    def test_every_digest_is_recorded(self):
        keys = {
            req.key
            for build in workloads.UNIVERSES.values()
            for req in build()
            if req.text is not None
        }
        self.assertEqual(keys, set(workloads.load_golden()))


class Tracing(unittest.TestCase):
    def test_spans_and_counts(self):
        original = weyl.length
        tracer = tracing.Tracer()
        tracer.install()
        try:
            hd = parabolic.hasse_diagram(parabolic.parabolic(3, (2,)))
        finally:
            tracer.uninstall()
        self.assertIs(weyl.length, original)
        m = {k: v["value"] for k, v in tracer.metrics().items()}
        self.assertEqual(m["parabolic.hasse_diagram.calls"], 1)
        self.assertEqual(len(hd.nodes), 12)
        self.assertEqual(m["parabolic.hasse_nodes"], 12)
        self.assertEqual(m["weyl.length.calls"], 12)
        self.assertEqual(m["parabolic.hasse_edges"], len(hd.edges))
        self.assertGreater(m["parabolic.hasse_diagram.self_s"], 0)
        self.assertGreaterEqual(m["parabolic.self_s"], m["parabolic.hasse_diagram.self_s"])


if __name__ == "__main__":
    unittest.main()
