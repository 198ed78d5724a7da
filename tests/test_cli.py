import json
import subprocess
import sys
import tracemalloc

import pytest

from toruscovers import characters, cli, formulas
from toruscovers.covers import ConsistencyError
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


def test_genfun_check(capsys):
    code, out, _ = run(["genfun-check", "--d-max", "4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_dejonquieres(capsys):
    code, out, _ = run(["verify", "--dejonquieres"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


@pytest.mark.parametrize("family", ["g2_31", "g2_22", "g3_5"])
def test_verify_family_passes_every_check(family, capsys):
    code, out, _ = run(["verify", "--family", family, "--primes", "5,7"], capsys)
    lines = out.splitlines()
    assert code == 0 and lines
    assert all(line.startswith("PASS") for line in lines)
    for d in (5, 7):
        assert any(f"{family} d={d}: closed N=" in line for line in lines)


def test_verify_needs_a_target(capsys):
    code, _, err = run(["verify"], capsys)
    assert code == 2


def test_invalid_sigma_exit_code(capsys):
    code, _, err = run(["counts", "--d", "5", "--sigma", "x"], capsys)
    assert code == 2
    assert "sigma" in err


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
    assert cache.compact() == 1
    assert cache.get(key) == {"N": 2}


def test_cache_tolerates_torn_lines(tmp_path):
    cache = ResultCache.at(tmp_path)
    cache.put({"d": 3}, {"N": 1})
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": {"d": 4}, "value": {"N"')  # crash mid-write
    cache.put({"d": 5}, {"N": 9})
    assert cache.get({"d": 3}) == {"N": 1}
    assert cache.get({"d": 4}) is None
    assert cache.get({"d": 5}) == {"N": 9}
    kept = cache.compact()
    assert kept == 2
    lines = cache.path.read_text().splitlines()
    assert all(json.loads(line) for line in lines)


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
    ],
    ids=["characters", "genfun-check", "probe-g3", "sweep", "enumerate"],
)
def test_empty_or_non_positive_range_is_exit_2(argv, option, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert option in err.split()


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--d", "17"],
        ["counts", "--d", "211", "--sigma", "3", "--method", "formula"],
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
    "error", [RuntimeError("boom"), ConsistencyError("cross-check failed")],
    ids=["RuntimeError", "ConsistencyError"],
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


def test_cache_env_var_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORUSCOVERS_CACHE_DIR", str(tmp_path))
    code, _, err = run(["sweep", "--d", "3", "--sigma", "3"], capsys)
    assert code == 0
    assert (tmp_path / "results.jsonl").exists()


def test_parallel_sweep_matches_serial(tmp_path, capsys):
    serial = run(["sweep", "--d-range", "3..6", "--sigma", "3",
                  "--format", "json"], capsys)
    parallel = run(["sweep", "--d-range", "3..6", "--sigma", "3",
                    "--jobs", "2", "--format", "json"], capsys)
    assert serial == parallel


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toruscovers.cli", "slope", "--d", "3",
         "--sigma", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["slope"] == "10"
