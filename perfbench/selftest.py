"""Self-tests of the benchmark itself (about 30 s).  From the repository
root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
from oracle import Oracle, load_expected  # noqa: E402
from run import OUT, ROOT, spawn  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_perturbed_closed_form_counts_as_failure(self):
        import workloads
        from toruscovers import formulas

        original = formulas.closed_N_M
        formulas.closed_N_M = lambda d, family: (original(d, family)[0] + 1,
                                                 original(d, family)[1])
        try:
            oracle = Oracle(load_expected())
            workloads.closed_measure({}, {"jobs": ["g2_31"]}, oracle, None)
        finally:
            formulas.closed_N_M = original
        self.assertGreater(oracle.attempted, 0)
        self.assertEqual(oracle.failed, oracle.attempted)

    def test_perturbed_frozen_value_counts_as_failure(self):
        oracle = Oracle(load_expected())
        key = "brute-d9/3/N_M"
        oracle.frozen(key, oracle.expected[key])
        N, M = oracle.expected[key]
        oracle.frozen(key, [N + 1, M])
        self.assertEqual((oracle.attempted, oracle.failed), (2, 1))

    def test_csv_key_order_is_tallied_apart_and_nothing_else(self):
        import workloads
        from oracle import sha256_of

        argv = ["counts", "--d", "5", "--sigma", "3", "--format", "csv"]
        miss = 'N,types\r\n3,"[{""type"": ""a"", ""n"": 1}]"\r\n'
        hit = 'N,types\r\n3,"[{""n"": 1, ""type"": ""a""}]"\r\n'
        wrong = 'N,types\r\n3,"[{""n"": 2, ""type"": ""a""}]"\r\n'
        key = " ".join(argv)
        oracle = Oracle({
            f"cli-cache/stdout/{key}": sha256_of(miss),
            f"cli-cache/stdout-sorted/{key}": sha256_of(workloads.sorted_json_cells(miss)),
        })
        for out in (miss, hit, wrong):
            workloads.check_cli_stdout(oracle, argv, out)
        for a, out in ((argv, hit), (argv, wrong), (argv[:-1] + ["json"], hit)):
            workloads.check_cli_replay(oracle, a, 0, out, miss)
        self.assertEqual((oracle.attempted, oracle.failed), (6, 3))
        self.assertEqual(oracle.known_defects, {workloads.CSV_KEY_ORDER: 2})

    def test_exception_counts_as_failure(self):
        oracle = Oracle({})
        with oracle.guard("job"):
            raise ArithmeticError("perturbed")
        self.assertEqual((oracle.attempted, oracle.failed), (1, 1))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(inputs.digest(inputs.generate(workload, 7)),
                             inputs.digest(inputs.generate(workload, 7)))

    def test_seed_changes_the_inputs(self):
        for workload in ("twist-d9", "cli-cache"):
            self.assertNotEqual(inputs.digest(inputs.generate(workload, 1)),
                                inputs.digest(inputs.generate(workload, 2)))

    def test_work_totals_do_not_depend_on_seed(self):
        OUT.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
        try:
            totals = []
            for seed in (1, 2):
                res = spawn("cli-cache", seed, work_dir, trace=True)
                self.assertEqual(res["exit"], 0, res.get("error"))
                layers = res["layers"]
                totals.append({k: layers[k] for k in (
                    "covers.classes", "covers.enumerate_classes.calls",
                    "cli.commands", "cli.cache_records", "cli.cache_hits")})
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        self.assertEqual(totals[0], totals[1])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / BENCH.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            spec = json.loads((bare / "BENCHMARK.json").read_text())
            proc = subprocess.run(
                spec["command"] + ["--workload", "brute-d9", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
