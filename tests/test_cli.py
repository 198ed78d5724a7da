import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from toruscovers import characters, cli, covers, formulas, monodromy
from toruscovers.covers import ConsistencyError, RamificationProfile
from toruscovers.cli import (
    CACHE_VERSION,
    CacheError,
    ResultCache,
    main,
)


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counts_json(capsys):
    code, out, _ = run(["counts", "--d", "3", "--sigma", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 3
    assert payload["M"] == "10/3"
    assert payload["slope"] == "10"


def test_counts_methods_agree(capsys):
    outs = []
    for method in ("brute", "burnside"):
        code, out, _ = run(
            ["counts", "--d", "5", "--sigma", "2,2", "--method", method,
             "--format", "json"],
            capsys,
        )
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["types"] == outs[1]["types"]
    code, out, _ = run(
        ["counts", "--d", "5", "--sigma", "2,2", "--method", "formula",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    got = json.loads(out)
    assert (got["N"], got["M"]) == (outs[0]["N"], outs[0]["M"])


def test_formula_method_past_the_walk_bound_prints_the_polynomial(capsys):
    # the N/M polynomials are not held to the bound 199 of the type walk
    code, out, err = run(
        ["counts", "--d", "211", "--sigma", "5", "--method", "formula",
         "--format", "json"],
        capsys,
    )
    assert code == 0 and err == ""
    got = json.loads(out)
    d = 211
    base = (d - 2) * (d - 1) * (d + 1)
    N = Fraction(5 * base * (61 * d * d - 424 * d + 723), 1152)
    M = Fraction(base * (637 * d * d - 4408 * d + 7491), 1920)
    assert (got["family"], got["N"], got["M"]) == ("g3_5", N, str(M))


def test_formula_method_rejects_unknown_family(capsys):
    code, _, err = run(
        ["counts", "--d", "5", "--sigma", "5,0", "--method", "formula"], capsys
    )
    assert code == 2
    code, _, err = run(
        ["counts", "--d", "6", "--sigma", "3", "--method", "formula"], capsys
    )
    assert code == 2  # composite degree


def test_enumerate_table(capsys):
    code, out, _ = run(["enumerate", "--d", "3", "--sigma", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "total 3"


def test_enumerate_csv_of_no_classes_prints_nothing(capsys):
    # sigma = (2) is odd, so d=3 has no cover classes
    code, out, err = run(
        ["enumerate", "--d", "3", "--sigma", "2", "--format", "csv"], capsys
    )
    assert (code, out, err) == (0, "", "")


def test_slope_json(capsys):
    code, out, _ = run(
        ["slope", "--d", "5", "--sigma", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == "1548/169"


def test_components_with_genus_check(capsys):
    code, out, _ = run(
        ["components", "--d", "5", "--sigma", "5", "--genus", "3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert sorted(c["size"] for c in payload["components"]) == [3, 10, 12, 15]
    code, _, err = run(
        ["components", "--d", "5", "--sigma", "5", "--genus", "2"], capsys
    )
    assert code == 2
    assert "genus" in err


def test_genus_reports_closed_form_flags(capsys):
    code, out, _ = run(
        ["genus", "--d", "5", "--sigma", "3", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 88
    flags = payload["closed_form"]
    assert flags["printed_matches"] is False
    assert flags["repaired_matches"] is True


def test_orbifold(capsys):
    code, out, _ = run(
        ["orbifold", "--d", "3", "--sigma", "3", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orbifold"] == [{"order": 3, "count": 1}]
    assert payload["chi"] == "-14"


def test_characters_csv(capsys):
    code, out, _ = run(["characters", "--d", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "shape,3,2|1,1|1|1"


def test_characters_output_writes_the_file(tmp_path, capsys):
    _, printed, _ = run(["characters", "--d", "3"], capsys)
    target = tmp_path / "table.csv"
    code, out, _ = run(["characters", "--d", "3", "--output", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_genfun_check(capsys):
    code, out, _ = run(["genfun-check", "--d-max", "4"], capsys)
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "option,n_lines",
    [("--appendix", 4), ("--slope10", 13), ("--dejonquieres", 3)],
    ids=["appendix", "slope10", "dejonquieres"],
)
def test_verify_dejonquieres(option, n_lines, capsys):
    code, out, _ = run(["verify", option], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == n_lines
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("family", ["g2_31", "g2_22", "g3_5"])
def test_verify_family_passes_every_check(family, capsys):
    code, out, _ = run(["verify", "--family", family, "--primes", "5,7"], capsys)
    lines = out.splitlines()
    assert code == 0 and lines
    assert all(line.startswith("PASS") for line in lines)
    for d in (5, 7):
        assert any(f"{family} d={d}: closed N=" in line for line in lines)


@pytest.mark.parametrize(
    "primes", ["4000037", "2305843009213693951", "5,12"],
    ids=["past-bound-prime", "mersenne-61", "composite-past-bound"],
)
def test_verify_primes_past_the_bound_is_exit_3_before_any_work(
    primes, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the capacity bound")

    monkeypatch.setattr(formulas, "is_prime", no_work)
    monkeypatch.setattr(RamificationProfile, "of", no_work)
    code, out, err = run(["verify", "--family", "g2_31", "--primes", primes], capsys)
    assert code == 3 and out == ""
    assert "bound 9" in err


def test_verify_composite_prime_within_the_bound_is_exit_2(capsys):
    code, out, err = run(["verify", "--family", "g2_31", "--primes", "5,8"], capsys)
    assert code == 2 and out == ""
    assert "[8]" in err


@pytest.mark.parametrize(
    "primes,degrees",
    [("5,5", [5] * 3), ("7,5,7", [7] * 3 + [5] * 3), ("3", [3] * 3)],
    ids=["repeat", "first-occurrence-order", "least-degree"],
)
def test_verify_runs_each_prime_once(primes, degrees, capsys):
    code, out, _ = run(["verify", "--family", "g2_31", "--primes", primes], capsys)
    lines = out.splitlines()
    assert code == 0 and all(line.startswith("PASS") for line in lines)
    assert [int(line.split("d=")[1].split(":")[0]) for line in lines] == degrees


def test_verify_needs_a_target(capsys):
    code, _, err = run(["verify"], capsys)
    assert code == 2


def test_verify_primes_without_family_is_exit_2_before_any_check(
    capsys, monkeypatch
):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_appendix", no_check)
    for primes in ("5", ""):
        code, out, err = run(["verify", "--primes", primes, "--appendix"], capsys)
        assert code == 2 and out == ""
        assert "--primes needs --family" in err


@pytest.mark.parametrize("primes", ["", " ", "5,,7"])
def test_verify_family_with_an_empty_prime_list_is_exit_2_before_any_check(
    primes, capsys, monkeypatch
):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_family", no_check)
    code, out, _ = run(["verify", "--family", "g2_31", "--primes", primes], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("primes,entry", [("5,,7", "''"), ("5,x", "'x'")])
def test_verify_bad_primes_entry_is_named(primes, entry, capsys, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_family", no_check)
    code, out, err = run(["verify", "--family", "g2_31", "--primes", primes], capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad --primes entry {entry}\n"


@pytest.mark.parametrize(
    "family,primes,entry,low", [("g2_22", "3", 3, 4), ("g3_5", "2,3", 2, 5)]
)
def test_verify_prime_below_the_family_degree_is_named(
    family, primes, entry, low, capsys, monkeypatch
):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_family", no_check)
    code, out, err = run(["verify", "--family", family, "--primes", primes], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: --primes entry {entry} is below the least degree "
                   f"{low} of family {family}\n")


def test_parser_defaults_read_the_bound_constants(capsys, monkeypatch):
    def defaults():
        parser = cli.build_parser()
        counts = parser.parse_args(["counts", "--d", "5", "--sigma", "3"])
        probe = parser.parse_args(["probe-g3"])
        return counts.max_degree, probe.max_prime

    assert defaults() == (covers.DEFAULT_MAX_DEGREE, formulas.MAX_CLOSED_FORM_DEGREE)
    monkeypatch.setattr(cli, "DEFAULT_MAX_DEGREE", 7)
    monkeypatch.setattr(formulas, "MAX_CLOSED_FORM_DEGREE", 61)
    assert defaults() == (7, 61)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["enumerate", "--help"])
    assert "enumeration safety bound (default 7)" in capsys.readouterr().out


def test_main_builds_its_parser_once(capsys, monkeypatch):
    build_parser, built = cli.build_parser, []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser_for.cache_clear()
    calls = [
        (["enumerate", "--d", "3", "--sigma", "3"], 0),
        (["counts", "--d", "4", "--sigma", "3"], 0),
        (["counts", "--d", "5", "--sigma", "3", "--method", "formula"], 0),
        (["slope", "--d", "4", "--sigma", "2,2"], 0),
        (["components", "--d", "4", "--sigma", "3"], 0),
        (["genus", "--d", "4", "--sigma", "3"], 0),
        (["orbifold", "--d", "4", "--sigma", "3"], 0),
        (["characters", "--d", "4"], 0),
        (["genfun-check", "--d-max", "3"], 0),
        (["verify", "--dejonquieres"], 0),
        (["sweep", "--d-range", "3..4", "--sigma", "3"], 0),
        (["probe-g3", "--max-prime", "11"], 0),
        (["origami", "render", "--d", "3", "--alpha", "(1 2 3)", "--beta", "(1 2)"], 0),
        (["origami", "render", "--d", "3", "--sigma", "3"], 0),
        (["enumerate", "--help"], 0),
        (["counts", "--d", "4", "--sigma", "x"], 2),
        (["slope", "--d", "4"], 2),
        (["nosuch"], 2),
        (["enumerate", "--d", "11", "--sigma", "3"], 3),
        (["--help"], 0),
    ]
    assert [run(argv, capsys)[0] for argv, _ in calls] == [code for _, code in calls]
    assert len(built) == 1


def test_main_runs_a_handler_patched_after_its_parser_was_built(capsys, monkeypatch):
    assert run(["slope", "--d", "3", "--sigma", "3"], capsys)[0] == 0

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_slope", broken)
    code, out, err = run(["slope", "--d", "3", "--sigma", "3"], capsys)
    assert (code, out, err) == (5, "", "error: internal: RuntimeError: boom\n")


def test_main_defaults_follow_bound_constants_patched_after_its_parser_was_built(
    capsys, monkeypatch
):
    assert run(["enumerate", "--help"], capsys)[1].count("(default 9)") == 1
    monkeypatch.setattr(cli, "DEFAULT_MAX_DEGREE", 7)
    code, out, _ = run(["enumerate", "--help"], capsys)
    assert code == 0 and "enumeration safety bound (default 7)" in out
    code, out, err = run(["counts", "--d", "8", "--sigma", "3"], capsys)
    assert (code, out) == (3, "") and "bound 7" in err
    monkeypatch.setattr(formulas, "MAX_CLOSED_FORM_DEGREE", 61)
    code, out, _ = run(["probe-g3"], capsys)
    assert (code, out) == (0, run(["probe-g3", "--max-prime", "61"], capsys)[1])
    assert out.splitlines()[-2].startswith("d=  61 ")


def test_invalid_sigma_exit_code(capsys):
    code, _, err = run(["counts", "--d", "5", "--sigma", "x"], capsys)
    assert code == 2
    assert "sigma" in err
    # a part below 1, read by perms.as_partition for both commands
    for argv in (["counts", "--d", "5", "--sigma", "3,0"],
                 ["sweep", "--d", "5", "--sigma", "0"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid sigma: partition parts must be positive\n"


def test_capacity_exit_code(capsys):
    code, _, err = run(["enumerate", "--d", "11", "--sigma", "3"], capsys)
    assert code == 3
    # the bound is adjustable in both directions
    code, _, err = run(
        ["counts", "--d", "5", "--sigma", "3", "--max-degree", "4"], capsys
    )
    assert code == 3
    code, out, _ = run(
        ["counts", "--d", "5", "--sigma", "3", "--max-degree", "5",
         "--format", "json"],
        capsys,
    )
    assert code == 0 and json.loads(out)["N"] == 27
    # the connected series enumerates too, so it is bounded the same way
    code, _, err = run(["genfun-check", "--d-max", "11"], capsys)
    assert code == 3 and "bound" in err


def test_probe_small(capsys):
    code, out, _ = run(
        ["probe-g3", "--max-prime", "13", "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["d"] for r in rows] == [5, 7, 11, 13]


@pytest.mark.parametrize("max_prime", ["200", "210"])
def test_probe_g3_bounds_the_largest_prime_it_uses(max_prime, capsys):
    # 199 is the largest prime below 211, so both print the table of 199
    code, out, err = run(["probe-g3", "--max-prime", max_prime], capsys)
    assert (code, err) == (0, "")
    assert out == run(["probe-g3", "--max-prime", "199"], capsys)[1]


def test_origami_render_ascii(capsys):
    code, out, _ = run(
        ["origami", "render", "--d", "5", "--alpha", "(1 5)",
         "--beta", "(1 2 3 4)"],
        capsys,
    )
    assert code == 0
    assert "| 1*|" in out


def test_origami_render_by_index(tmp_path, capsys):
    target = tmp_path / "s.svg"
    code, _, _ = run(
        ["origami", "render", "--d", "5", "--sigma", "5", "--index", "2",
         "--format", "svg", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert target.read_text().startswith("<?xml")
    code, _, err = run(
        ["origami", "render", "--d", "5", "--sigma", "5", "--index", "99"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("index", ["0", "3"])
def test_origami_render_of_an_empty_family_says_so(index, capsys):
    # sigma = (2) is odd, so no degree admits a cover
    code, out, err = run(
        ["origami", "render", "--d", "4", "--sigma", "2", "--index", index], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: d=4 sigma=(2,1,1) has no cover classes\n"


@pytest.mark.parametrize(
    "extra,pair,pick",
    [
        (["--sigma", "3", "--alpha", "(1 2 3 4 5)"], "--alpha", "--sigma"),
        (["--alpha", "(1 5)", "--beta", "(1 2 3 4)", "--sigma", "3", "--index", "4"],
         "--alpha/--beta", "--sigma/--index"),
        (["--beta", "(1 2 3 4)", "--sigma", "3"], "--beta", "--sigma"),
        (["--alpha", "(1 5)", "--beta", "(1 2 3 4)", "--index", "0"],
         "--alpha/--beta", "--index"),
    ],
    ids=["alpha-sigma", "all-four", "beta-sigma", "pair-index"],
)
def test_origami_render_refuses_a_surface_named_two_ways(extra, pair, pick, capsys):
    # explicit permutations and an enumerated class cannot both be drawn
    code, out, err = run(["origami", "render", "--d", "5", *extra], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {pair} cannot be given with {pick}\n"


@pytest.mark.parametrize(
    "given,partner",
    [(["--alpha", "(1 2 3)"], "--beta"), (["--beta", "(1 2 3)"], "--alpha")],
    ids=["alpha-alone", "beta-alone"],
)
def test_origami_render_names_the_missing_half_of_a_pair(given, partner, capsys):
    code, out, err = run(["origami", "render", "--d", "3", *given], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {given[0]} needs {partner}\n"


@pytest.mark.parametrize(
    "given,spelled",
    [
        (["--d", "2", "--alpha", "(1 2)", "--beta", ""],
         ["--d", "2", "--alpha", "(1 2)", "--beta", "()"]),
        (["--d", "1", "--alpha", "", "--beta", ""],
         ["--d", "1", "--alpha", "()", "--beta", "()"]),
        (["--d", "3", "--sigma", ""], ["--d", "3", "--sigma", "1,1,1"]),
    ],
    ids=["empty-beta", "empty-pair", "empty-sigma"],
)
def test_origami_render_reads_an_empty_option_as_given(given, spelled, capsys):
    # "" is the identity (or the trivial sigma), not a missing option
    got = run(["origami", "render", *given], capsys)
    assert got[0] == 0 and got == run(["origami", "render", *spelled], capsys)


def test_origami_render_of_an_empty_pair_past_one_square_is_not_connected(capsys):
    code, out, err = run(
        ["origami", "render", "--d", "2", "--alpha", "", "--beta", ""], capsys
    )
    assert (code, out, err) == (2, "", "error: surface is not connected\n")


def test_origami_render_refuses_more_squares_than_its_cycles_name(capsys):
    # a square that neither cycle string names is fixed by v and h, so the
    # surface cannot be connected; nothing of size d may be built first
    tracemalloc.start()
    try:
        code, out, err = run(
            ["origami", "render", "--d", "3000000", "--alpha", "(1 2)",
             "--beta", "(2 3)"],
            capsys,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "not connected" in err
    assert peak < 1_000_000


def test_sweep_table_and_csv(tmp_path, capsys):
    code, out, _ = run(
        ["sweep", "--d-range", "3..5", "--sigma", "3"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "d=3  sigma=3  N=3  M=10/3  slope=10"
    target = tmp_path / "rows.csv"
    code, _, _ = run(
        ["sweep", "--d-range", "3..5", "--sigma", "3", "--format", "csv",
         "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert target.read_text().startswith("M,N,d")


def test_sweep_primes_only(capsys):
    code, out, _ = run(
        ["sweep", "--d-range", "3..9", "--sigma", "3", "--primes-only"], capsys
    )
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["d=3", "d=5", "d=7"]
    code, out, err = run(
        ["sweep", "--d-range", "8..9", "--sigma", "3", "--primes-only"], capsys
    )
    assert code == 2 and out == ""
    assert "--primes-only" in err


def test_sweep_has_no_jobs_option(capsys):
    code, out, _ = run(["sweep", "--d", "3", "--sigma", "3", "--jobs", "2"], capsys)
    assert code == 2 and out == ""


def test_sweep_reads_an_empty_d_range_as_given(capsys):
    code, out, err = run(["sweep", "--d-range", "", "--sigma", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: bad --d-range ''; want a..b, 1 <= a <= b\n"


def test_sweep_takes_either_d_or_d_range(capsys):
    code, out, err = run(
        ["sweep", "--d", "3", "--d-range", "4..5", "--sigma", "3"], capsys
    )
    assert code == 2 and out == ""
    assert "not allowed with argument --d" in err


def _recording_bounds(monkeypatch) -> list:
    """The (degree, max_degree) of each enumeration the CLI starts."""
    enumerate_classes, bounds = covers.enumerate_classes, []

    def recording(degree, profile, max_degree=covers.DEFAULT_MAX_DEGREE):
        bounds.append((degree, max_degree))
        return enumerate_classes(degree, profile, max_degree)

    monkeypatch.setattr(cli, "enumerate_classes", recording)
    return bounds


def test_sweep_past_max_degree_is_exit_3_before_any_enumeration(capsys, monkeypatch):
    bounds = _recording_bounds(monkeypatch)
    argv = ["sweep", "--d", "9", "--sigma", "3", "--max-degree", "8"]
    code, out, err = run(argv, capsys)
    assert (code, out, bounds) == (3, "", [])
    assert err == "error: enumeration degree 9 exceeds its bound 8\n"


def test_sweep_enumerates_under_max_degree(capsys, monkeypatch):
    bounds = _recording_bounds(monkeypatch)
    argv = ["sweep", "--d", "10", "--sigma", "2", "--max-degree", "10"]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (0, "d=10  sigma=2  N=0  note=odd branching parity\n")
    argv = ["sweep", "--d-range", "3..4", "--sigma", "3", "--max-degree", "5"]
    assert run(argv, capsys)[0] == 0
    assert bounds == [(3, 5), (4, 5)]


def test_sweep_with_genus_builds_each_degree_once(capsys, monkeypatch):
    # each row reads N, M and slope off the classes of its decomposition:
    # walked at the primes 3 and 5, enumerated at 4 and 6
    enumerate_classes = covers.enumerate_classes
    walked_classes = monodromy._walked_classes
    calls = {"enumerated": [], "walked": []}

    def enumerating(degree, profile, max_degree=covers.DEFAULT_MAX_DEGREE):
        calls["enumerated"].append(degree)
        return enumerate_classes(degree, profile, max_degree)

    def walking(degree, profile, family, max_degree):
        calls["walked"].append(degree)
        return walked_classes(degree, profile, family, max_degree)

    for module in (covers, monodromy, cli):
        monkeypatch.setattr(module, "enumerate_classes", enumerating)
    monkeypatch.setattr(monodromy, "_walked_classes", walking)
    code, out, _ = run(["sweep", "--d-range", "3..6", "--sigma", "3", "--genus"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "d=3  sigma=3  N=3  M=10/3  slope=10  genus=4"
    assert calls == {"enumerated": [4, 6], "walked": [3, 5]}


def test_cli_import_loads_no_process_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, toruscovers.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# cache behavior


def test_max_degree_reaches_decomposing_commands(capsys):
    # the bound is honoured in both directions by every command that
    # enumerates through the orbit decomposition
    for command in ("components", "genus", "orbifold"):
        code, _, _ = run(
            [command, "--d", "5", "--sigma", "3", "--max-degree", "4"], capsys
        )
        assert code == 3
    code, out, _ = run(
        ["components", "--d", "10", "--sigma", "3", "--max-degree", "10",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["d"] == 10


def test_cache_round_trip_and_canonical_keys(tmp_path):
    cache = ResultCache.at(tmp_path)
    cache.put({"d": 5, "sigma": [3], "version": 1}, {"N": 27})
    assert cache.get({"version": 1, "sigma": [3], "d": 5}) == {"N": 27}
    assert cache.get({"d": 5, "sigma": [3], "version": 2}) is None


def test_cache_last_writer_wins(tmp_path):
    cache = ResultCache.at(tmp_path)
    key = {"d": 3, "version": 1}
    cache.put(key, {"N": 1})
    cache.put(key, {"N": 2})
    assert cache.get(key) == {"N": 2}
    # a put after the one read updates what was read, and the file
    cache.put(key, {"N": 3})
    assert cache.get(key) == {"N": 3}
    assert ResultCache(cache.path).get(key) == {"N": 3}


def test_cache_tolerates_torn_lines(tmp_path):
    cache = ResultCache.at(tmp_path)
    cache.put({"d": 3}, {"N": 1})
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": {"d": 4}, "value": {"N"')  # crash mid-write
    # the newest record for d=6 is torn mid-value: the one before it wins
    cache.put({"d": 6}, {"N": 6})
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": {"d": 6}, "value": {"N": 7')
    cache.put({"d": 5}, {"N": 9})
    assert cache.get({"d": 3}) == {"N": 1}
    assert cache.get({"d": 4}) is None
    assert cache.get({"d": 5}) == {"N": 9}
    assert cache.get({"d": 6}) == {"N": 6}
    # version 2 wrote keys in insertion order; such a line is a miss at
    # any version, recomputed and stored once
    key = cli._cache_key("sweep", 3, "3")
    path = tmp_path / "v2.jsonl"
    path.write_text("".join(
        json.dumps({"key": dict(key, version=v), "value": {"N": 0}}) + "\n"
        for v in (2, CACHE_VERSION)
    ))
    computed = []

    def compute():
        computed.append(1)
        return {"N": 3}

    for hit in (False, True):
        value = cli._cached(ResultCache(path), key, bool, compute)
        assert value == ({"N": 3}, hit)
    assert len(computed) == 1
    assert len(path.read_text().splitlines()) == 3


def test_cache_get_decodes_one_record(tmp_path, monkeypatch):
    cache = ResultCache.at(tmp_path)
    for d in range(200):
        cache.put(cli._cache_key("counts/brute", d, [3]), {"N": d})
    loads, decoded = json.loads, []

    def counting_loads(*args, **kwargs):
        decoded.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    cache = ResultCache(cache.path)
    assert cache.get(cli._cache_key("counts/brute", 57, [3])) == {"N": 57}
    assert len(decoded) == 1
    assert cache.get(cli._cache_key("counts/brute", 200, [3])) is None
    assert len(decoded) == 1


@pytest.mark.parametrize("argv", [
    ["counts", "--d", "5", "--sigma", "3"],
    ["sweep", "--d", "5", "--sigma", "3"],
], ids=["counts", "sweep"])
def test_cache_line_that_is_not_utf8_is_skipped(argv, tmp_path, capsys):
    _, uncached, _ = run(argv, capsys)
    argv = argv + ["--cache-dir", str(tmp_path)]
    run(argv, capsys)
    path = tmp_path / "results.jsonl"
    good = path.read_bytes()
    for text in (good + b"\xff garbage\n", b"\xff garbage\n" + good):
        path.write_bytes(text)
        code, out, err = run(argv, capsys)
        assert code == 0 and out == uncached and "error" not in err
        # served from the valid record: nothing recomputed or appended
        assert path.read_bytes() == text


def test_sweep_reads_the_cache_file_once(tmp_path, capsys, monkeypatch):
    cache = ["--cache-dir", str(tmp_path)]
    run(["sweep", "--d-range", "3..5", "--sigma", "3", *cache], capsys)
    path = tmp_path / "results.jsonl"
    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if Path(file) == path and "r" in mode:
            reads.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, _, err = run(["sweep", "--d-range", "3..7", "--sigma", "3", *cache], capsys)
    assert code == 0 and "(3 cache hits)" in err
    assert len(reads) == 1
    # the two rows computed by that sweep were stored
    monkeypatch.undo()
    code, _, err = run(["sweep", "--d-range", "3..7", "--sigma", "3", *cache], capsys)
    assert code == 0 and "(5 cache hits)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--d", "3", "--output", "{missing}/f.csv"],
        ["sweep", "--d", "3", "--sigma", "3", "--output", "{directory}"],
        ["counts", "--d", "3", "--sigma", "3", "--output", ""],
    ],
    ids=["missing-dir", "a-directory", "empty-path"],
)
def test_unwritable_output_is_exit_2(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing", directory=tmp_path) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    # quoted, so that the empty path shows as ''
    assert err.startswith(f"error: cannot write --output {argv[-1]!r}: ")


@pytest.mark.parametrize("command", ["counts", "sweep"])
def test_empty_cache_dir_is_exit_2(command, tmp_path, capsys, monkeypatch):
    # an empty --cache-dir is bad input, not "no cache"
    monkeypatch.chdir(tmp_path)
    argv = [command, "--d", "3", "--sigma", "3", "--cache-dir", ""]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --cache-dir must name a directory, not ''"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["counts", "sweep"])
def test_cache_dir_that_is_a_file_is_exit_4(command, tmp_path, capsys):
    path = tmp_path / "file"
    path.write_text("")
    argv = [command, "--d", "3", "--sigma", "3", "--cache-dir", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot create cache dir {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["counts", "sweep"])
def test_unwritable_cache_file_is_exit_4(command, tmp_path, capsys):
    # a dangling link into a missing directory cannot be appended to, even
    # by a user whom permission bits do not stop
    path = tmp_path / "results.jsonl"
    path.symlink_to(tmp_path / "missing" / "results.jsonl")
    argv = [command, "--d", "3", "--sigma", "3", "--cache-dir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write cache {path}: ")
    assert len(err.splitlines()) == 1


def test_burnside_with_trivial_sigma_is_exit_2(capsys):
    code, out, err = run(
        ["counts", "--d", "5", "--sigma", "1", "--method", "burnside"], capsys
    )
    assert code == 2 and out == ""
    assert "nontrivial sigma" in err


def test_burnside_at_composite_degree_names_the_cli_method(capsys):
    code, out, err = run(
        ["counts", "--d", "9", "--sigma", "3", "--method", "burnside"], capsys
    )
    assert code == 2 and out == ""
    assert "burnside" in err and "burnside_prime" not in err


@pytest.mark.parametrize(
    "text,short,family",
    [("", "1", None), ("1", "1", None), ("3,", "3", "g2_31"),
     ("1,3", "3", "g2_31"), ("2,2", "2,2", "g2_22")],
)
def test_sweep_spelling_of_sigma_names_the_family_of_its_profile(
    text, short, family
):
    prof = RamificationProfile.of(7, text)
    assert cli._short_sigma(text) == prof.short_spec == short
    assert formulas.family_of(prof) == family
    named = [f for f in formulas.FAMILIES if formulas.family_sigma(f) == short]
    assert named == ([family] if family else [])


def test_cache_version_bump_recomputes(tmp_path, capsys):
    argv = ["sweep", "--d", "3", "--sigma", "3", "--cache-dir", str(tmp_path)]
    code, _, err = run(argv, capsys)
    assert code == 0 and "(0 cache hits)" in err
    code, _, err = run(argv, capsys)
    assert code == 0 and "(1 cache hits)" in err
    # rewrite the stored record under a stale version: must be ignored
    records = [json.loads(l) for l in (tmp_path / "results.jsonl").read_text().splitlines()]
    for rec in records:
        rec["key"]["version"] = CACHE_VERSION - 1
    (tmp_path / "results.jsonl").write_text(
        "\n".join(json.dumps(r) for r in records) + "\n"
    )
    code, _, err = run(argv, capsys)
    assert code == 0 and "(0 cache hits)" in err


def test_cache_hit_output_byte_identical(tmp_path, capsys):
    for argv in (
        ["sweep", "--d-range", "3..4", "--sigma", "2,2", "--format", "json"],
        # the csv cell holds JSON objects whose key order must survive a hit
        ["counts", "--d", "5", "--sigma", "3", "--format", "csv"],
    ):
        argv = argv + ["--cache-dir", str(tmp_path)]
        code, cold, _ = run(argv, capsys)
        assert code == 0
        code, warm, _ = run(argv, capsys)
        assert code == 0
        assert cold == warm


def test_sweep_prints_and_caches_one_spelling_of_sigma(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path)]
    code, want, err = run(["sweep", "--d-range", "3..4", "--sigma", "3", *cache], capsys)
    assert code == 0 and "(0 cache hits)" in err
    assert want.splitlines()[0] == "d=3  sigma=3  N=3  M=10/3  slope=10"
    for spelling in ("3,", "1,3", " 3 , 1 "):
        argv = ["sweep", "--d-range", "3..4", "--sigma", spelling]
        code, out, err = run(argv + cache, capsys)
        assert code == 0 and out == want and "(2 cache hits)" in err
    code, out, _ = run(["sweep", "--d", "5", "--sigma", "1,2,3", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)[0]["sigma"] == "3,2"
    keys = [json.loads(line)["key"]["sigma"]
            for line in (tmp_path / "results.jsonl").read_text().splitlines()]
    assert keys == ["3", "3"]


def test_partly_cached_sweep_computes_and_stores_only_the_misses(tmp_path, capsys):
    argv = ["sweep", "--d-range", "3..6", "--sigma", "3"]
    _, uncached, _ = run(argv, capsys)
    cache = ["--cache-dir", str(tmp_path)]
    run(["sweep", "--d", "4", "--sigma", "3", *cache], capsys)
    path = tmp_path / "results.jsonl"
    before = path.read_text().splitlines()
    code, out, err = run(argv + cache, capsys)
    assert code == 0 and out == uncached
    assert "(1 cache hits)" in err
    lines = path.read_text().splitlines()
    assert lines[: len(before)] == before
    assert [json.loads(line)["key"]["d"] for line in lines[len(before):]] == [3, 5, 6]


def test_cache_value_of_wrong_shape_is_a_miss(tmp_path, capsys):
    for n, argv in enumerate((
        ["counts", "--d", "5", "--sigma", "3"],
        ["sweep", "--d-range", "2..4", "--sigma", "3", "--genus"],
    )):
        code, uncached, _ = run(argv, capsys)
        assert code == 0
        cached = argv + ["--cache-dir", str(tmp_path / str(n))]
        run(cached, capsys)
        path = tmp_path / str(n) / "results.jsonl"
        good = [json.loads(line) for line in path.read_text().splitlines()]
        bads = [{"N": 1}, [1]]
        if argv[0] == "counts":  # one record; its types list holds a non-dict
            bads.append(dict(good[0]["value"], types=[1]))
        for bad in bads:
            path.write_text("".join(
                json.dumps({"key": r["key"], "value": bad}) + "\n" for r in good
            ))
            code, out, _ = run(cached, capsys)
            assert code == 0 and out == uncached
            # the recomputed values were stored again
            cache = ResultCache(path)
            assert all(cache.get(r["key"]) == r["value"] for r in good)


@pytest.mark.parametrize(
    "argv,option",
    [
        (["characters", "--d", "-2"], "--d"),
        (["genfun-check", "--d-max", "-1"], "--d-max"),
        (["probe-g3", "--max-prime", "-5"], "--max-prime"),
        (["sweep", "--d-range", "5..3", "--sigma", "3"], "--d-range"),
        (["enumerate", "--d", "-2", "--sigma", "3"], "--d"),
        (["origami", "render", "--d", "0", "--alpha", "()", "--beta", "()"], "--d"),
        (["origami", "render", "--d", "0", "--alpha", "()", "--beta", "()",
          "--format", "svg"], "--d"),
    ],
    ids=["characters", "genfun-check", "probe-g3", "sweep", "enumerate",
         "origami-render", "origami-render-svg"],
)
def test_empty_or_non_positive_range_is_exit_2(argv, option, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert option in err.split()


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--d", "17"],
        ["counts", "--d", "10007", "--sigma", "3", "--method", "formula"],
        ["probe-g3", "--max-prime", "211"],
        ["enumerate", "--d", "3000000", "--sigma", "3", "--max-degree", "8"],
        ["counts", "--d", "300000", "--sigma", "3"],
        ["slope", "--d", "300000", "--sigma", "2,2"],
        ["components", "--d", "300000", "--sigma", "3"],
        ["genus", "--d", "300000", "--sigma", "3"],
        ["orbifold", "--d", "300000", "--sigma", "3"],
        ["origami", "render", "--d", "300000", "--sigma", "3"],
        ["sweep", "--d", "300000", "--sigma", "3"],
        ["sweep", "--d-range", "9..300000", "--sigma", "3"],
    ],
    ids=["characters", "counts-formula", "probe-g3", "enumerate", "counts",
         "slope", "components", "genus", "orbifold", "origami-render",
         "sweep", "sweep-range"],
)
def test_degree_past_its_bound_is_exit_3_before_any_work(argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the capacity bound")

    monkeypatch.setattr(characters, "partitions", no_work)
    monkeypatch.setattr(formulas, "assembled_N_M", no_work)
    monkeypatch.setattr(formulas, "closed_N_M", no_work)
    monkeypatch.setattr(formulas, "primes_up_to", no_work)
    # nothing of size d (such as the length-d profile) may be built first
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "bound" in err
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "7", "--sigma", "3", "--max-degree", "-3"],
        ["counts", "--d", "7", "--sigma", "3", "--max-degree", "0"],
        ["counts", "--d", "7", "--sigma", "3", "--method", "formula", "--max-degree", "0"],
        ["slope", "--d", "7", "--sigma", "3", "--max-degree", "0"],
        ["components", "--d", "7", "--sigma", "3", "--max-degree", "-3"],
        ["genus", "--d", "7", "--sigma", "3", "--max-degree", "0"],
        ["orbifold", "--d", "7", "--sigma", "3", "--max-degree", "0"],
        ["sweep", "--d-range", "3..7", "--sigma", "3", "--max-degree", "0"],
    ],
    ids=["enumerate", "counts", "counts-formula", "slope", "components",
         "genus", "orbifold", "sweep"],
)
def test_max_degree_below_1_is_exit_2_before_any_work(argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started under a bound below 1")

    # neither the profile nor the degree bound is read first
    monkeypatch.setattr(cli, "check_capacity", no_work)
    monkeypatch.setattr(cli.RamificationProfile, "of", no_work)
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", "error: --max-degree must be at least 1\n")


@pytest.mark.parametrize("command", ["enumerate", "counts", "slope", "components"])
def test_degree_past_the_byte_labels_is_exit_3_before_any_work(command, capsys, monkeypatch):
    # the key and the centralizer scans spell points as bytes, so d = 257
    # is refused under --max-degree 257 before the types of d are listed
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the byte-label bound")

    monkeypatch.setattr(covers, "partitions", no_work)
    monkeypatch.setattr(monodromy, "_alphas_by_type", no_work)
    argv = [command, "--d", "257", "--sigma", "3", "--max-degree", "257"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "error: byte-label degree 257 exceeds its bound 256\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "--d", "4", "--sigma", "x"],
        ["enumerate", "--d", "0", "--sigma", "3"],
        ["characters", "--d", "3", "--output", "{missing}/f.csv"],
        ["sweep", "--d-range", "5..3", "--sigma", "3"],
        ["sweep", "--sigma", "3"],
        ["sweep", "--d-range", "8..9", "--primes-only", "--sigma", "3"],
        ["counts", "--d", "4", "--sigma", "3", "--method", "formula"],
        ["components", "--d", "3", "--sigma", "3", "--genus", "5"],
        ["verify", "--primes", "5"],
        ["verify", "--family", "g2_31", "--primes", " "],
        ["verify", "--family", "g2_31", "--primes", "5,x"],
        ["verify", "--family", "g2_31", "--primes", "4"],
        ["verify"],
        ["sweep", "--d", "3", "--sigma", "x"],
        ["origami", "render", "--d", "3", "--alpha", "(1 2 3)", "--sigma", "3"],
        ["origami", "render", "--d", "9", "--alpha", "(1)", "--beta", "(1)"],
        ["origami", "render", "--d", "3"],
        ["origami", "render", "--d", "4", "--sigma", "2"],
        ["origami", "render", "--d", "3", "--sigma", "3", "--index", "99"],
    ],
    ids=["profile", "at-least", "write", "d-range", "no-degree", "primes-only",
         "formula-family", "genus", "primes-no-family", "primes-blank",
         "primes-entry", "primes-composite", "nothing-to-verify", "sweep-sigma",
         "render-two-ways", "render-not-connected", "render-no-surface",
         "render-no-classes", "render-index"],
)
def test_every_invalid_input_returns_2_from_main(argv, tmp_path, capsys):
    # main itself returns the code: nothing raises SystemExit past it
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "error",
    [RuntimeError("boom"), ConsistencyError("cross-check failed"),
     TypeError("unsupported operand")],
    ids=["RuntimeError", "ConsistencyError", "TypeError"],
)
def test_unexpected_exception_is_exit_internal(error, capsys, monkeypatch):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_slope", broken)
    code, out, err = run(["slope", "--d", "3", "--sigma", "3"], capsys)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err.splitlines() == [f"error: internal: {type(error).__name__}: {error}"]


def test_cache_unreadable_path_is_exit_4(tmp_path, capsys):
    (tmp_path / "results.jsonl").mkdir()
    code, _, err = run(
        ["sweep", "--d", "3", "--sigma", "3", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 4
    assert "cache" in err


def test_cache_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    # only --cache-dir turns the result cache on
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("TORUSCOVERS_CACHE_DIR", str(cache_dir))
    for argv in (["counts", "--d", "5", "--sigma", "3"],
                 ["sweep", "--d", "3", "--sigma", "3"]):
        code, _, err = run(argv, capsys)
        assert code == 0 and "cache hits" not in err
    assert not cache_dir.exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toruscovers.cli", "slope", "--d", "3",
         "--sigma", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["slope"] == "10"


@pytest.mark.parametrize("command", ["genus", "orbifold"])
def test_family_with_no_covers_has_no_curve(command, capsys):
    # a transposition is odd, so (2, 1^3) admits no covers; Riemann-Hurwitz
    # over zero classes must not invent a genus-1 curve with chi 0
    argv = [command, "--d", "5", "--sigma", "2"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] is None and payload["orbifold"] == []
    assert payload.get("genus", None) is None
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "chi = None" in out.splitlines()
    assert command == "orbifold" or "genus = None" in out.splitlines()
