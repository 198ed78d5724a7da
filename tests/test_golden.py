"""Golden corpus: SHA-256 digests of CLI stdout and of library outputs.

Refactors must keep every digest unchanged.  The digests live in
``golden_digests.json`` next to this file; regenerate them (only when a
change of output is intended and explained) with

    PYTHONPATH=src python tests/test_golden.py --freeze
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toruscovers import cli, monodromy, origami
from toruscovers.covers import RamificationProfile, enumerate_classes
from toruscovers.perms import partitions

DIGESTS = Path(__file__).with_name("golden_digests.json")

FORMATS = ("json", "csv", "table")

# (command, d, sigma, extra arguments); each runs in every format
_PER_FORMAT = [
    ("enumerate", 5, "3", []),
    ("enumerate", 6, "2,2", []),
    ("enumerate", 7, "3", []),
    ("counts", 5, "5", ["--method", "brute"]),
    ("counts", 7, "3", ["--method", "brute"]),
    ("counts", 5, "2,2", ["--method", "burnside"]),
    ("counts", 7, "2,2", ["--method", "burnside"]),
    ("counts", 5, "3", ["--method", "formula"]),
    ("counts", 7, "5", ["--method", "formula"]),
    ("slope", 6, "3", []),
    ("slope", 7, "2,2", []),
    ("slope", 5, "3", []),
    ("slope", 5, "2,2", []),
    ("slope", 5, "5", []),
    ("slope", 6, "2,2", []),
    ("components", 5, "5", []),
    ("components", 7, "3", []),
    ("components", 7, "2,2", []),
    ("components", 5, "3", []),
    ("components", 5, "2,2", []),
    ("components", 6, "3", []),
    ("components", 6, "2,2", []),
    ("components", 6, "3", ["--genus", "2"]),
    ("components", 5, "5", ["--genus", "3"]),
    ("components", 5, "5", ["--genus", "2"]),  # mismatch: exit 2, no stdout
    ("genus", 5, "3", []),
    ("genus", 7, "2,2", []),
    ("genus", 6, "4,2", []),
    ("genus", 5, "2,2", []),
    ("genus", 5, "5", []),
    ("genus", 6, "3", []),
    ("genus", 6, "2,2", []),
    ("orbifold", 6, "2,2", []),
    ("orbifold", 7, "3", []),
]

_SINGLE = [
    ["enumerate", "--d", "9", "--sigma", "5", "--format", "csv"],  # 4,550 classes
    ["sweep", "--d-range", "3..7", "--sigma", "3", "--genus"],
    ["sweep", "--d-range", "4..7", "--sigma", "2,2", "--genus", "--format", "json"],
    ["sweep", "--d-range", "3..7", "--sigma", "3", "--genus", "--format", "csv"],
    ["verify", "--origami"],
    ["verify", "--components"],
    ["origami", "render", "--d", "5", "--sigma", "5", "--index", "3"],
    ["origami", "render", "--d", "5", "--sigma", "5", "--index", "3",
     "--format", "svg"],
    ["origami", "render", "--d", "7", "--alpha", "(1 3 5 7 6 2 4)",
     "--beta", "(1 2)(3 4)(5 6 7)"],
    ["origami", "render", "--d", "5", "--alpha", "(1 5)",
     "--beta", "(1 2 3 4)", "--mark-weierstrass", "--format", "svg"],
    ["origami", "render", "--d", "5", "--alpha", "(1 2 4 3 5)",
     "--beta", "(1 2 3 4 5)", "--mark-weierstrass"],
    ["characters", "--d", "7"],
    ["characters", "--d", "7", "--format", "json"],
    ["characters", "--d", "16", "--format", "csv"],  # the largest table
    ["genfun-check", "--d-max", "6"],
    ["genfun-check", "--d-max", "6", "--dump", "--format", "json"],
    ["probe-g3", "--max-prime", "61"],
    ["probe-g3", "--max-prime", "61", "--format", "csv"],
]

# the --help text of the top level, each subcommand and origami render;
# argparse wraps it to the terminal width, so these run with COLUMNS=80
_HELP = [
    [*command.split(), "--help"]
    for command in ("", "enumerate", "counts", "slope", "components", "genus",
                    "orbifold", "characters", "genfun-check", "verify", "sweep",
                    "probe-g3", "origami", "origami render")
]

# (d, sigma) for the library part; slope, components and genus run on
# each of these in every format above
_LIBRARY = [(5, "3"), (5, "2,2"), (5, "5"), (6, "3"), (6, "2,2")]

# every class list up to this degree is pinned class for class: 66 lists
# of 39,391 classes in all
_CLASS_LIST_DEGREE = 8


def cli_cases() -> list[list[str]]:
    cases = []
    for command, d, sigma, extra in _PER_FORMAT:
        for fmt in FORMATS:
            cases.append([command, "--d", str(d), "--sigma", sigma, *extra,
                          "--format", fmt])
    return cases + [list(argv) for argv in _SINGLE]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return {"exit": code, "stdout": _digest(out.getvalue())}


def cli_digests() -> dict[str, dict]:
    digests = {" ".join(argv): run_cli(argv) for argv in cli_cases()}
    with mock.patch.dict("os.environ", {"COLUMNS": "80"}):
        digests.update({" ".join(argv): run_cli(argv) for argv in _HELP})
    return digests


def library_digests() -> dict[str, str]:
    """Digest of each library query, keyed by query and (d, sigma), and
    of every class list at each degree up to _CLASS_LIST_DEGREE."""
    out = {}
    for d, sigma in _LIBRARY:
        prof = RamificationProfile.of(d, sigma)
        classes = enumerate_classes(d, prof)
        tag = f"d={d} sigma={sigma}"
        out[f"action_graph_dot {tag}"] = monodromy.action_graph_dot(classes)
        out[f"involution_pairs {tag}"] = json.dumps(
            monodromy.involution_pairs(classes))
        out[f"ur_orbits {tag}"] = json.dumps(origami.ur_orbits(classes))
    for d in range(1, _CLASS_LIST_DEGREE + 1):
        profiles = map(RamificationProfile, partitions(d))
        out[f"enumerate_classes d={d}"] = "".join(
            f"{prof} {c}\n" for prof in profiles for c in enumerate_classes(d, prof))
    return {k: _digest(v) for k, v in out.items()}


def _mismatches(got: dict, want: dict) -> list[str]:
    return [k for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def test_cli_stdout_matches_golden():
    want = json.loads(DIGESTS.read_text())["cli"]
    assert _mismatches(cli_digests(), want) == []


def test_per_format_cases_cover_every_library_pair():
    for command in ("slope", "components", "genus"):
        plain = {(d, sigma) for c, d, sigma, extra in _PER_FORMAT
                 if c == command and not extra}
        assert set(_LIBRARY) <= plain, command


def test_library_output_matches_golden():
    want = json.loads(DIGESTS.read_text())["library"]
    assert _mismatches(library_digests(), want) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(f"usage: {sys.argv[0]} --freeze")
    frozen = {"cli": cli_digests(), "library": library_digests()}
    DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
