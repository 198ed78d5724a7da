"""Seeded inputs of every workload.

This module imports nothing from the package under test, so ``run.py``
can generate a workload's inputs and their digest without loading it.
The seed only permutes job order and draws relabellings; it never
changes how much work a workload does.
"""
from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("brute-d9", "twist-d9", "closed-forms", "cli-cache")

BRUTE_DEGREE = 9
BRUTE_SIGMAS = ("3", "2,2", "5")

TWIST_DEGREE = 9
# (sigma, number of classes at degree 9); the counts are checked again
# against the enumeration during set-up
TWIST_SETS = (("5", 4550), ("3", 201))
TWIST_JOBS = ("decompose", "involution", "dot", "ur", "stabilizer",
              "cylinders", "parity")
TWIST_REPEATS = 3  # measured phases per process; set-up is shared

# the character jobs share the process-wide Murnaghan-Nakayama cache, so
# they run as one block in a fixed order
CLOSED_JOBS = ("g3_probe", "g2_31", "g2_22", "g3_aggregated", "genus_closed",
               "characters", "identities", "dejonquieres")

CLI_REPLAY_PASSES = 2


def _cli_problems() -> list[tuple[list[str], bool]]:
    """(argv, uses the result cache) for every problem of cli-cache, each
    in every output format its subcommand offers."""
    fmts = ("json", "csv", "table")
    out: list[tuple[list[str], bool]] = []

    def each(argv: list[str], cached: bool = False, formats=fmts) -> None:
        for fmt in formats:
            out.append((argv + ["--format", fmt], cached))

    count_cases = [(d, "3") for d in range(3, 8)]
    count_cases += [(d, "2,2") for d in range(4, 8)]
    count_cases += [(d, s) for s in ("5", "3,3", "4,2") for d in (6, 7)]
    count_cases += [(5, "5")]
    for d, sigma in count_cases:
        methods = ["brute"]
        if d in (3, 5, 7):
            methods.append("burnside")
            if (d, sigma) == (3, "3") or (d >= 5 and sigma in ("3", "2,2", "5")):
                methods.append("formula")
        for method in methods:
            each(["counts", "--d", str(d), "--sigma", sigma,
                  "--method", method], cached=True)
    for sigma, lo in (("3", 3), ("2,2", 4), ("5", 5)):
        for genus in ([], ["--genus"]):
            each(["sweep", "--d-range", f"{lo}..7", "--sigma", sigma] + genus,
                 cached=True)

    each(["enumerate", "--d", "6", "--sigma", "3"])
    each(["enumerate", "--d", "7", "--sigma", "2,2"])
    each(["slope", "--d", "7", "--sigma", "3"])
    each(["slope", "--d", "6", "--sigma", "2,2"])
    each(["components", "--d", "7", "--sigma", "5"])
    each(["components", "--d", "7", "--sigma", "3", "--genus", "2"])
    each(["genus", "--d", "7", "--sigma", "3"])
    each(["genus", "--d", "7", "--sigma", "2,2"])
    each(["orbifold", "--d", "7", "--sigma", "5"])
    each(["orbifold", "--d", "6", "--sigma", "3"])
    each(["characters", "--d", "7"], formats=("json", "csv"))
    each(["characters", "--d", "10"], formats=("csv",))
    each(["genfun-check", "--d-max", "6"], formats=("json", "table"))
    each(["probe-g3", "--max-prime", "61"])
    out.append((["verify", "--family", "g2_31", "--primes", "5,7"], False))
    out.append((["verify", "--family", "g2_22", "--primes", "5,7"], False))
    out.append((["verify", "--origami"], False))
    out.append((["verify", "--dejonquieres"], False))
    render = ["origami", "render", "--d", "7"]
    each(render + ["--sigma", "3", "--index", "5"], formats=("ascii", "svg"))
    each(render + ["--sigma", "2,2", "--index", "17"], formats=("svg",))
    each(render + ["--alpha", "(1 2 6 4 5 3 7)", "--beta", "(1 2 3 4 5 6 7)"],
         formats=("ascii",))
    each(render + ["--sigma", "3", "--index", "2", "--mark-weierstrass"],
         formats=("ascii", "svg"))
    return out


def _relabellings(rng: random.Random, degree: int, n: int) -> list[list[int]]:
    out = []
    for _ in range(n):
        t = list(range(degree))
        rng.shuffle(t)
        out.append(t)
    return out


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: the same (workload, seed) always gives the
    same value."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "brute-d9":
        sigmas = list(BRUTE_SIGMAS)
        rng.shuffle(sigmas)
        return {"degree": BRUTE_DEGREE, "sigmas": sigmas}
    if workload == "twist-d9":
        sets = [
            {"sigma": sigma, "relabel": _relabellings(rng, TWIST_DEGREE, n)}
            for sigma, n in TWIST_SETS
        ]
        jobs = list(TWIST_JOBS)
        rng.shuffle(jobs)
        return {"degree": TWIST_DEGREE, "sets": sets, "jobs": jobs,
                "repeats": TWIST_REPEATS}
    if workload == "closed-forms":
        jobs = list(CLOSED_JOBS)
        rng.shuffle(jobs)
        return {"jobs": jobs}
    if workload == "cli-cache":
        problems = _cli_problems()
        rng.shuffle(problems)
        commands = [{"argv": argv, "cached": cached} for argv, cached in problems]
        cached = [i for i, c in enumerate(commands) if c["cached"]]
        replays = []
        for _ in range(CLI_REPLAY_PASSES):
            order = list(cached)
            rng.shuffle(order)
            replays.append(order)
        return {"commands": commands, "replays": replays}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON text of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
