"""Benchmark of toruscovers: four workloads, each layer timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload brute-d9 --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen): brute-d9,
twist-d9, closed-forms, cli-cache.  Every pass runs in a fresh, single-
threaded interpreter (``child.py``), because the package's process-wide
caches start cold on every command-line invocation.  Passes repeat while
another one fits in ``--seconds``; timings are medians over passes.

With ``--trace 0`` the result carries the end-to-end metrics: ``run_s``
(measured phase), ``setup_s`` (interpreter start to end of set-up),
``peak_rss_mb`` and ``pass_rate`` (checked operations that gave the
reference answer, over those attempted; answers that differ only by a
documented defect of the program are listed in the report, not failed).  Times are reference seconds:
wall time rescaled to a fixed machine speed by ``speedclock.py``, because
the speed of a shared machine drifts far more than any useful bound; the
plain wall times are printed alongside.  With ``--trace 1`` passes
alternate between traced and untraced; the result carries the per-layer
metrics of the traced ones, the tracing overhead and the line count of
each source module.  Spans of traced passes go to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5  # cheap set-ups are repeated up to this many times
# settings that would move bytecode out of the checkout, stop it being
# written, or change what the child imports and reports
DROPPED_ENV = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
               "PYTHONPROFILEIMPORTTIME", "PYTHONSTARTUP", "PYTHONOPTIMIZE")

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402


def child_env() -> dict:
    """The environment of every child: the checkout's sources only, no
    cache or worker settings from the caller, fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TORUSCOVERS_") and k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, work_dir: Path, mode: str = "pass",
          trace: bool = False, spans: Path | None = None,
          freeze: bool = False, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion; returns its result, with ``wall_s``,
    ``exit`` and, for traced passes, ``import_s`` added."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--work-dir", str(work_dir)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if freeze:
        cmd.append("--freeze")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit": None, "wall_s": time.monotonic() - t0,
                "error": f"{mode} pass timed out after {timeout:.0f} s"}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["exit"] = proc.returncode
    except (IndexError, json.JSONDecodeError):
        result = {"error": proc.stderr.strip()[-2000:] or "no result",
                  "exit": proc.returncode or -1}
    result["wall_s"] = wall
    if trace:
        result["import_s"] = import_seconds(proc.stderr)
    return result


def import_seconds(stderr: str) -> float:
    """Cumulative import time of the package's top-level imports, from the
    ``-X importtime`` report."""
    entries = []  # (indent, name, cumulative microseconds)
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        if not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    # the package entry and its submodules imported alongside it (at the
    # same nesting depth); deeper entries are already in their cumulative
    depth = next((i for i, n, _ in entries if n == "toruscovers"), None)
    return sum(us for i, n, us in entries
               if i == depth and n.split(".")[0] == "toruscovers") / 1e6


def src_lines() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "toruscovers").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[f"src.{path.stem}.lines"] = sum(1 for _ in fh)
    out["src.total.lines"] = sum(out.values())
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """All passes of one run; returns the result object and report lines."""
    start = time.monotonic()
    want = inputs.digest(inputs.generate(workload, seed))
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    problems: list[str] = []
    passes: list[dict] = []
    setups: list[float] = []
    setup_walls: list[float] = []
    try:
        warm = spawn(workload, seed, work_dir, mode="warmup")
        if warm["exit"] != 0:
            problems.append(f"warm-up import failed: {warm.get('error')}")
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, problems
        while True:
            traced = trace and len(passes) % 2 == 0
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.jsonl"
            left = CHILD_TIMEOUT_S - (time.monotonic() - start)
            res = spawn(workload, seed, work_dir, trace=traced,
                        spans=spans if traced else None, timeout=left)
            res["traced"] = traced
            passes.append(res)
            if res["exit"] != 0:
                break
            if not traced:
                setups.append(res["setup_s"])
                setup_walls.append(res["wall_setup_s"])
            if trace and len(passes) < 2:
                continue  # one traced and one untraced pass at least
            longest = max(p["wall_s"] for p in passes)
            if time.monotonic() - start + longest > seconds:
                break
        while not trace and 0 < len(setups) < SETUP_SAMPLES:
            if time.monotonic() - start + 1.5 * max(setup_walls) > seconds:
                break
            res = spawn(workload, seed, work_dir, mode="setup")
            if res["exit"] != 0:
                passes.append(res)
                break
            setups.append(res["setup_s"])
            setup_walls.append(res["wall_setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = failed = 0
    known: dict[str, int] = {}  # documented program defects, not failures
    for i, p in enumerate(passes):
        if p["exit"] != 0:
            attempted += 1
            failed += 1
            problems.append(f"pass {i}: exit {p['exit']}: {p.get('error', '')}")
            continue
        if p["digest"] != want:
            problems.append(f"pass {i}: input digest {p['digest']} != {want}")
        attempted += p["attempted"]
        failed += p["failed"]
        problems += [f"pass {i}: {m}" for m in p["messages"]]
        for defect, n in p["known"].items():
            known[defect] = known.get(defect, 0) + n
    good = [p for p in passes if p["exit"] == 0]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]

    def med_run(ps: list[dict]) -> float | None:
        times = [t for p in ps for t in p["run_s"]]
        return statistics.median(times) if times else None

    def med_wall(ps: list[dict]) -> float | None:
        times = [t for p in ps for t in p["wall_run_s"]]
        return statistics.median(times) if times else None

    spec = load_spec()
    metrics: dict[str, dict] = {}
    if not trace and untraced:
        values = {
            "run_s": med_run(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "pass_rate": (attempted - failed) / max(attempted, 1),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if trace and traced:
        values = {}
        for name in {k for p in traced for k in p["layers"]}:
            values[name] = statistics.median(p["layers"].get(name, 0) for p in traced)
        values["import.s"] = statistics.median(p["import_s"] for p in traced)
        values["oracle.known_defects"] = statistics.median(
            sum(p["known"].values()) for p in traced)
        values["process.slowdown"] = statistics.median(p["slowdown"] for p in good)
        values["trace.run_s"] = med_run(traced)
        if untraced:
            values["trace.overhead_s"] = med_run(traced) - med_run(untraced)
            values["process.wall_run_s"] = med_wall(untraced)
        values.update(src_lines())
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    expected = ({m["name"] for m in spec["per_layer"]} if trace
                else {m["name"] for m in spec["end_to_end"]})
    correct = (failed == 0 and attempted > 0 and set(metrics) == expected
               and all(p.get("digest") == want for p in good))
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    report = [f"workload {workload}  seed {seed}  input digest {want}",
              f"passes {len(passes)} ({len(traced)} traced)  set-up samples "
              f"{len(setups)}  elapsed {time.monotonic() - start:.1f} s"]
    if untraced:
        report.append(f"plain wall times: run {med_wall(untraced):.4g} s, set-up "
                      f"{statistics.median(p['wall_setup_s'] for p in untraced):.4g} s; "
                      f"machine slowdown {statistics.median(p['slowdown'] for p in good):.3g}")
    report += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    report += [f"known defect, not counted as failed ({n} outputs): {defect}"
               for defect, n in known.items()]
    return result, report + [f"problem: {p}" for p in problems]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "toruscovers" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'toruscovers'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
