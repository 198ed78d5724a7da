"""Command-line front end: enumeration, invariant reports, dual-path
verification bundles, sweeps with a JSONL result cache, and renders.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 capacity exceeded, 4 cache corruption, 5 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import characters as chars
from . import formulas
from . import origami
from .covers import (
    DEFAULT_MAX_DEGREE,
    CapacityError,
    CoverClass,
    RamificationProfile,
    check_capacity,
    count_table,
    enumerate_classes,
)
from .geometry import component_rows, curve_invariants, slope, slope_from_counts
from .monodromy import decompose
from .perms import parse_cycles

EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_CACHE = 4
EXIT_INTERNAL = 5

CACHE_VERSION = 2
CACHE_DIR_ENV = "TORUSCOVERS_CACHE_DIR"
JOBS_ENV = "TORUSCOVERS_JOBS"


class CacheError(RuntimeError):
    pass


@dataclass
class ResultCache:
    """Append-only JSONL store.  One record per line: {"key": .., "value": ..}.
    Keys are compared as sorted JSON text; values keep their field order,
    so a hit prints the same bytes as the computation it replays.  Reads
    scan the whole file and the last record for a key wins, so
    concurrent appenders never corrupt each other's view; compaction
    rewrites atomically, dropping stale and torn records."""

    path: Path

    @classmethod
    def at(cls, directory: os.PathLike) -> "ResultCache":
        d = Path(directory)
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise CacheError(f"cannot create cache dir {d}: {e}") from e
        return cls(d / "results.jsonl")

    @staticmethod
    def _key_text(key: dict) -> str:
        return json.dumps(key, sort_keys=True)

    def _scan(self):
        if not self.path.exists():
            return
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        yield self._key_text(rec["key"]), rec["value"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        continue  # torn or stale line; ignored until compaction
        except OSError as e:
            raise CacheError(f"cannot read cache {self.path}: {e}") from e

    def get(self, key: dict) -> Optional[dict]:
        want = self._key_text(key)
        found = None
        for ktext, value in self._scan():
            if ktext == want:
                found = value
        return found

    def put(self, key: dict, value: dict) -> None:
        line = json.dumps({"key": key, "value": value})
        try:
            with open(self.path, "a+b") as fh:
                # a writer that died mid-line leaves no newline; start fresh
                # so the torn record cannot swallow this one
                fh.seek(0, os.SEEK_END)
                prefix = b""
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        prefix = b"\n"
                fh.write(prefix + (line + "\n").encode("utf-8"))
        except OSError as e:
            raise CacheError(f"cannot write cache {self.path}: {e}") from e

    def compact(self) -> int:
        kept: dict[str, dict] = {}
        for ktext, value in self._scan():
            kept[ktext] = value
        tmp = self.path.with_suffix(".jsonl.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for ktext, value in kept.items():
                    record = {"key": json.loads(ktext), "value": value}
                    fh.write(json.dumps(record) + "\n")
            os.replace(tmp, self.path)
        except OSError as e:
            raise CacheError(f"cannot compact cache {self.path}: {e}") from e
        return len(kept)


def _cache_from_args(args) -> Optional[ResultCache]:
    directory = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return None
    return ResultCache.at(directory)


def _holds(value, fields) -> bool:
    """Whether a cached value is a dict holding every field a command
    prints from it; any other hit is treated as a miss and recomputed."""
    return isinstance(value, dict) and all(f in value for f in fields)


def _counts_ok(value) -> bool:
    """Whether a cached counts value holds the fields a fresh one would,
    down to each row of its ``types`` list."""
    types = value.get("types", []) if isinstance(value, dict) else None
    return (
        _holds(value, ("d", "sigma", "N", "M", "slope"))
        and isinstance(types, list)
        and all(_holds(t, ("type", "n", "weight")) for t in types)
    )


# ---------------------------------------------------------------------------
# shared plumbing


def _profile(
    args, max_degree: Optional[int] = None, kind: str = "enumeration"
) -> RamificationProfile:
    """The profile of --d and --sigma.  --d is held to the command's
    degree bound first (``--max-degree`` unless another is given), so an
    oversized degree exits 3 before anything of size d is built."""
    _at_least("--d", args.d, 1)
    if max_degree is None:
        max_degree = getattr(args, "max_degree", DEFAULT_MAX_DEGREE)
    check_capacity(args.d, max_degree, kind)
    try:
        return RamificationProfile.of(args.d, args.sigma)
    except (ValueError, TypeError) as e:
        raise SystemExit(_fail(EXIT_INVALID, f"invalid sigma: {e}"))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _at_least(option: str, value: int, low: int) -> None:
    """Exit 2 naming ``option`` when its value is below ``low``."""
    if value < low:
        raise SystemExit(_fail(EXIT_INVALID, f"{option} must be at least {low}"))


def _emit(args, payload, table_lines=None) -> None:
    fmt = getattr(args, "format", "table")
    out = sys.stdout
    if getattr(args, "output", None):
        out = open(args.output, "w", encoding="utf-8")
    try:
        if fmt == "json":
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        elif fmt == "csv":
            _emit_csv(payload, out)
        else:
            for line in table_lines if table_lines is not None else [
                json.dumps(payload, indent=2, sort_keys=True)
            ]:
                out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _emit_csv(payload, out) -> None:
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    for r in rows:
        if isinstance(r, dict):
            flat.append(
                {
                    k: (json.dumps(v) if isinstance(v, (list, dict)) else v)
                    for k, v in r.items()
                }
            )
    if not flat:
        return
    fields = sorted({k for r in flat for k in r})
    w = csv.DictWriter(out, fieldnames=fields)
    w.writeheader()
    w.writerows(flat)


def _parse_d_list(args) -> list[int]:
    """The degrees of --d or --d-range.  The top one is held to the
    enumeration bound that each row's count_table applies before the
    list is built."""
    if getattr(args, "d_range", None):
        try:
            lo, hi = (int(x) for x in args.d_range.split(".."))
            if not 1 <= lo <= hi:
                raise ValueError
        except ValueError:
            raise SystemExit(_fail(
                EXIT_INVALID, f"bad --d-range {args.d_range!r}; want a..b, 1 <= a <= b"
            ))
    elif getattr(args, "d", None) is not None:
        _at_least("--d", args.d, 1)
        lo = hi = args.d
    else:
        raise SystemExit(_fail(EXIT_INVALID, "need --d or --d-range"))
    check_capacity(hi, DEFAULT_MAX_DEGREE)
    ds = list(range(lo, hi + 1))
    if getattr(args, "primes_only", False):
        ds = [d for d in ds if formulas.is_prime(d)]
        if not ds:
            raise SystemExit(_fail(EXIT_INVALID, "--primes-only leaves no degree"))
    return ds


# ---------------------------------------------------------------------------
# simple commands


def cmd_enumerate(args) -> int:
    prof = _profile(args)
    classes = enumerate_classes(args.d, prof, max_degree=args.max_degree)
    payload = [c.as_dict() for c in classes]
    _emit(args, payload, [str(c) for c in classes] + [f"total {len(classes)}"])
    return 0


def cmd_counts(args) -> int:
    formula = args.method == "formula"
    if formula:
        prof = _profile(args, formulas.MAX_CLOSED_FORM_DEGREE, "closed-form")
    else:
        prof = _profile(args)
    cache = _cache_from_args(args)
    key = {
        "d": args.d,
        "sigma": list(prof.parts),
        "kind": f"counts/{args.method}",
        "version": CACHE_VERSION,
    }
    payload = cache.get(key) if cache else None
    if not _counts_ok(payload):
        if formula:
            payload = _counts_via_formula(args.d, prof)
            if payload is None:
                return _fail(
                    EXIT_INVALID,
                    "--method formula needs prime d and sigma in one of the "
                    "closed-form families (3 | 2,2 | 5)",
                )
        else:
            method = "burnside_prime" if args.method == "burnside" else args.method
            table = count_table(
                args.d, prof, method=method, max_degree=args.max_degree
            )
            payload = table.as_dict()
            s = slope(table)
            payload["slope"] = None if s.slope is None else str(s.slope)
        if cache:
            cache.put(key, payload)
    lines = [
        f"d={payload['d']} sigma={payload['sigma']}",
        *(
            f"  {t['type']}: {t['n']}  (weight {t['weight']})"
            for t in payload.get("types", [])
        ),
        f"N = {payload['N']}",
        f"M = {payload['M']}",
        f"slope = {payload['slope']}",
    ]
    _emit(args, payload, lines)
    return 0


def _family_of(d: int, prof: RamificationProfile) -> Optional[str]:
    for family in formulas.FAMILIES:
        try:
            sig = RamificationProfile.of(d, formulas.family_sigma(family))
        except ValueError:
            continue
        if sig.parts == prof.parts:
            return family
    return None


def _counts_via_formula(d: int, prof: RamificationProfile) -> Optional[dict]:
    family = _family_of(d, prof)
    if family is not None:
        if not formulas.is_prime(d):
            return None
        N, M = formulas.closed_N_M(d, family)
        return {
            "d": d,
            "sigma": list(prof.parts),
            "family": family,
            "N": N,
            "M": str(M),
            "slope": str(slope_from_counts(prof, N, M).slope),
        }
    return None


def cmd_slope(args) -> int:
    prof = _profile(args)
    table = count_table(args.d, prof, max_degree=args.max_degree)
    res = slope(table)
    payload = {"d": args.d, "sigma": list(prof.parts), **res.as_dict()}
    _emit(args, payload, [f"{k} = {v}" for k, v in payload.items()])
    return 0


def cmd_components(args) -> int:
    prof = _profile(args)
    if args.genus is not None and prof.genus != args.genus:
        return _fail(
            EXIT_INVALID,
            f"sigma {prof.parts} gives cover genus {prof.genus}, not {args.genus}",
        )
    rows = component_rows(prof, decompose(args.d, prof, max_degree=args.max_degree))
    payload = {
        "d": args.d,
        "sigma": list(prof.parts),
        "count": len(rows),
        "primitive_count": sum(1 for r in rows if r["primitive"]),
        "components": rows,
    }
    lines = [f"{len(rows)} components (of which "
             f"{payload['primitive_count']} primitive)"] + [
        f"  size {r['size']}  slope {r['slope']}  genus {r['genus']}"
        + ("" if r["primitive"] else "  [pullback]")
        for r in rows
    ]
    _emit(args, payload, lines)
    return 0


def cmd_genus(args) -> int:
    prof = _profile(args)
    dec = decompose(args.d, prof, max_degree=args.max_degree)
    inv = curve_invariants(dec)
    payload = {
        "d": args.d,
        "sigma": list(prof.parts),
        **inv.as_dict(),
    }
    family = _family_of(args.d, prof)
    if family in ("g2_31", "g2_22") and formulas.is_prime(args.d) and args.d >= 5:
        payload["closed_form"] = formulas.genus_closed(
            args.d, family
        ).flag_against(inv.genus)
    lines = [f"genus = {inv.genus}", f"chi = {inv.chi}"] + [
        f"orbifold point of order {p.order}: {p.count} per degenerate fiber"
        for p in inv.orbifold
    ]
    if "closed_form" in payload:
        c = payload["closed_form"]
        lines.append(
            f"printed closed form: {c['printed']} "
            f"({'matches' if c['printed_matches'] else 'MISMATCH'})"
        )
        lines.append(
            f"repaired closed form: {c['repaired']} "
            f"({'matches' if c['repaired_matches'] else 'MISMATCH'})"
        )
    _emit(args, payload, lines)
    return 0


def cmd_orbifold(args) -> int:
    prof = _profile(args)
    inv = curve_invariants(decompose(args.d, prof, max_degree=args.max_degree))
    payload = {
        "d": args.d,
        "sigma": list(prof.parts),
        "orbifold": [{"order": p.order, "count": p.count} for p in inv.orbifold],
        "chi": str(inv.chi),
    }
    _emit(
        args,
        payload,
        [f"order {p.order}: {p.count} per degenerate fiber" for p in inv.orbifold]
        + [f"chi = {inv.chi}"],
    )
    return 0


def cmd_characters(args) -> int:
    _at_least("--d", args.d, 1)
    table = chars.CharacterTable.build(args.d)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    payload = {
        "d": args.d,
        "shapes": [list(s) for s in table.shapes],
        "degrees": {"|".join(map(str, s)): table.degrees[s] for s in table.shapes},
        "values": {
            "|".join(map(str, s)): [table.values[s, c] for c in table.shapes]
            for s in table.shapes
        },
    }
    _emit(args, payload)
    return 0


def cmd_genfun_check(args) -> int:
    _at_least("--d-max", args.d_max, 1)
    zhat, ztilde = chars.build_generating_functions(args.d_max)
    ok_exp = chars.series_exp(ztilde.coeffs, args.d_max) == dict(zhat.coeffs)
    ok_log = dict(
        chars.connected_from_disconnected(zhat).coeffs
    ) == dict(ztilde.coeffs)
    payload = {
        "d_max": args.d_max,
        "exp_identity": ok_exp,
        "log_inversion": ok_log,
    }
    if args.dump:
        payload["Z_hat"] = zhat.as_dict()
        payload["Z_tilde"] = ztilde.as_dict()
    _emit(
        args,
        payload,
        [
            f"exp identity to degree {args.d_max}: {'PASS' if ok_exp else 'FAIL'}",
            f"log inversion: {'PASS' if ok_log else 'FAIL'}",
        ],
    )
    return 0 if ok_exp and ok_log else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verification bundles (one per acceptance scenario)


def _check(lines: list[str], label: str, ok: bool) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'}  {label}")
    return ok


def verify_family(family: str, primes: Sequence[int], lines: list[str]) -> bool:
    """Closed per-type formulas and totals against brute force."""
    ok = True
    for d in primes:
        prof = RamificationProfile.of(d, formulas.family_sigma(family))
        counted = count_table(d, prof)
        table = dict(counted.by_type)
        good = True
        for parts, n in table.items():
            try:
                good &= formulas.per_type_N(d, family, parts) == n
            except formulas.UnclassifiedTypeError:
                good = False
        # types the formulas predict but enumeration misses must be absent
        for parts in formulas.admissible_types(d, family):
            pred = formulas.per_type_N(d, family, parts)
            if pred != table.get(parts, 0):
                good = False
        ok &= _check(lines, f"{family} d={d}: per-type table", good)
        N, M = counted.N, counted.M
        aN, aM = formulas.assembled_N_M(d, family)
        ok &= _check(
            lines, f"{family} d={d}: assembled N={aN} M={aM}", (aN, aM) == (N, M)
        )
        cN, cM = formulas.closed_N_M(d, family)
        ok &= _check(
            lines, f"{family} d={d}: closed N={cN} M={cM}", (cN, cM) == (N, M)
        )
    return ok


def verify_appendix(lines: list[str]) -> bool:
    ok = _check(lines, "Ramanujan differential equations to order 200",
                formulas.ramanujan_check(200))
    conv = all(
        (lambda p: p[0] == p[1])(formulas.convolution_identity(d))
        for d in range(2, 501)
    )
    ok &= _check(lines, "divisor-sum convolution identity, 2 <= d <= 500", conv)
    l1l2 = all(
        (lambda p: p[0] == p[1])(formulas.sum_identity_l1l2(d))
        for d in range(2, 201)
    )
    ok &= _check(lines, "two-size l1*l2 sum identity, 2 <= d <= 200", l1l2)
    primes = [p for p in formulas.primes_up_to(199) if p >= 2]
    pc = all(
        formulas.convolution_identity(p)[0] == formulas.prime_convolution_value(p)
        for p in primes
    )
    ok &= _check(lines, "prime closed form (d-1)(d+1)(5d-6)/12, primes <= 199", pc)
    return ok


def verify_dejonquieres(lines: list[str]) -> bool:
    ok = _check(lines, "genus 2, mu=(2) -> 6", formulas.dejonquieres(2, [2]) == 6)
    ok &= _check(
        lines, "genus 3, mu=(2,2) -> 28", formulas.dejonquieres(3, [2, 2]) == 28
    )
    ok &= _check(
        lines,
        "positivity for all canonical types with g-1 parts, g <= 8",
        formulas.dejonquieres_positive(8),
    )
    return ok


def verify_slope10(lines: list[str], max_d: int = 9) -> bool:
    ok = True
    for sigma in ("3", "2,2"):
        for d in range(3, max_d + 1):
            try:
                prof = RamificationProfile.of(d, sigma)
            except ValueError:
                continue
            if not prof.admits_covers:
                continue
            rows = component_rows(prof, decompose(d, prof))
            if not rows:
                continue
            ok &= _check(
                lines,
                f"sigma=({sigma}) d={d}: slope 10 on all {len(rows)} components",
                all(r["slope"] == "10" for r in rows),
            )
    return ok


def verify_components(lines: list[str], max_d: int = 8) -> bool:
    expected = [1, 1, 2, 1, 2, 1]
    got = []
    for d in range(3, max_d + 1):
        prof = RamificationProfile.of(d, "3")
        dec = decompose(d, prof)
        got.append(len(dec.primitive_components()))
    ok = _check(
        lines,
        f"primitive component counts sigma=(3,1^(d-3)), d=3..{max_d}: {got}",
        got == expected[: max_d - 2],
    )
    prof = RamificationProfile.of(5, "5")
    rows = component_rows(prof, decompose(5, prof))
    sizes = sorted(r["size"] for r in rows)
    slopes = sorted(r["slope"] for r in rows)
    ok &= _check(
        lines,
        f"g=3 d=5: component sizes {sizes}, slopes {slopes}",
        sizes == [3, 10, 12, 15] and slopes == ["28/3", "28/3", "9", "9"],
    )
    return ok


def verify_origami(lines: list[str]) -> bool:
    ok = True
    e1 = origami.SquareTiledSurface(
        v=parse_cycles("(1 5)", 5), h=parse_cycles("(1 2 3 4)", 5)
    )
    e2 = origami.SquareTiledSurface(
        v=parse_cycles("(1 2 4 3 5)"), h=parse_cycles("(1 2 3 4 5)")
    )
    e3 = origami.SquareTiledSurface(
        v=parse_cycles("(1 2 6 4 5 3 7)"), h=parse_cycles("(1 2 3 4 5 6 7)")
    )
    e4 = origami.SquareTiledSurface(
        v=parse_cycles("(1 3 5 7 6 2 4)"), h=parse_cycles("(1 2)(3 4)(5 6 7)", 7)
    )
    e5 = origami.SquareTiledSurface(
        v=parse_cycles("(1 6 8 10)(2 4 11 3 5 7 9)", 11),
        h=parse_cycles("(1 2 3)(4 5 6)(7 8)(9 10)", 11),
    )
    from .perms import commutator, cycle_string

    ok &= _check(
        lines,
        "example surfaces 1-2: commutators (1 5 2), (1 3 4)",
        cycle_string(commutator(e1.v, e1.h)) == "(1 5 2)"
        and cycle_string(commutator(e2.v, e2.h)) == "(1 3 4)",
    )
    ok &= _check(
        lines,
        "example surfaces 3-4: commutator type (2,2,1,1,1)",
        origami.singularities(e3) == [2, 2]
        and origami.singularities(e4) == [2, 2],
    )
    ok &= _check(
        lines,
        "cylinder counts 1/2/3 for examples 3/4/5",
        len(origami.cylinders(e3)) == 1
        and origami.cylinders(e4) == [(2, 2), (3, 1)]
        and len(origami.cylinders(e5)) == 3,
    )
    ok &= _check(
        lines,
        "shear of example 1 gives v' = (1 2 3 4 5)",
        cycle_string(origami.act_U(e1).v) == "(1 2 3 4 5)",
    )
    for d in (5, 7):
        prof = RamificationProfile.of(d, "3")
        dec = decompose(d, prof)
        const = all(
            len({origami.weierstrass_parity(dec.classes[i]) for i in comp}) == 1
            for comp in dec.components
        )
        ok &= _check(lines, f"parity constant on components, d={d}", const)
    w1 = CoverClass.from_pair(
        parse_cycles("(1 3 5 2 4 6 7)"), parse_cycles("(1 2)(3 4)", 7)
    )
    w2 = CoverClass.from_pair(
        parse_cycles("(1 3 2 4 5 6 7)"), parse_cycles("(1 2)", 7)
    )
    dec = decompose(7, RamificationProfile.of(7, "2,2"))
    where = {dec.classes[i]: n for n, comp in enumerate(dec.components) for i in comp}
    in1, in2 = where.get(w1), where.get(w2)
    ok &= _check(
        lines,
        "the two witness pairs for sigma=(2,2,1^3), d=7 lie in distinct "
        f"components (groups {w1.group_kind}/{w2.group_kind})",
        in1 is not None and in2 is not None and in1 != in2,
    )
    return ok


def cmd_verify(args) -> int:
    lines: list[str] = []
    ok = True
    ran = False
    if args.family:
        primes = [int(x) for x in args.primes.split(",")] if args.primes else [5, 7]
        bad = [p for p in primes if not formulas.is_prime(p)]
        if bad:
            return _fail(EXIT_INVALID, f"--primes must be prime, got {bad}")
        ok &= verify_family(args.family, primes, lines)
        ran = True
    if args.appendix:
        ok &= verify_appendix(lines)
        ran = True
    if args.dejonquieres:
        ok &= verify_dejonquieres(lines)
        ran = True
    if args.slope10:
        ok &= verify_slope10(lines)
        ran = True
    if args.components:
        ok &= verify_components(lines)
        ran = True
    if args.origami:
        ok &= verify_origami(lines)
        ran = True
    if not ran:
        return _fail(
            EXIT_INVALID,
            "nothing to verify: pass --family/--appendix/--dejonquieres/"
            "--slope10/--components/--origami",
        )
    for line in lines:
        print(line)
    return 0 if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sweep and probe


def _sweep_row(task) -> dict:
    d, sigma, with_genus = task
    try:
        prof = RamificationProfile.of(d, sigma)
    except ValueError:
        return {"d": d, "sigma": sigma, "N": 0, "note": "sigma does not fit"}
    if not prof.admits_covers:
        return {"d": d, "sigma": sigma, "N": 0, "note": "odd branching parity"}
    table = count_table(d, prof)
    s = slope(table)
    row = {
        "d": d,
        "sigma": sigma,
        "N": s.N,
        "M": str(s.M),
        "slope": None if s.slope is None else str(s.slope),
    }
    if s.N and with_genus:
        row["genus"] = curve_invariants(decompose(d, prof)).genus
    return row


def _sweep_row_ok(row, with_genus: bool) -> bool:
    """Whether a cached sweep row holds the fields a fresh one would."""
    if not _holds(row, ("d", "sigma", "N")):
        return False
    genus = ("genus",) if with_genus and row["N"] else ()
    return "note" in row or _holds(row, ("M", "slope", *genus))


def _sweep_key(d: int, args) -> dict:
    return {
        "d": d,
        "sigma": args.sigma,
        "kind": "sweep" + ("+genus" if args.genus else ""),
        "version": CACHE_VERSION,
    }


def cmd_sweep(args) -> int:
    ds = _parse_d_list(args)
    try:  # validate the sigma text itself; per-degree fit is checked per row
        RamificationProfile.of(max(ds), args.sigma)
    except ValueError as e:
        if "exceeds degree" not in str(e):
            return _fail(EXIT_INVALID, f"invalid sigma: {e}")
    cache = _cache_from_args(args)
    jobs = args.jobs or int(os.environ.get(JOBS_ENV, "1"))
    tasks, rows, cached = [], {}, 0
    for d in ds:
        hit = cache.get(_sweep_key(d, args)) if cache else None
        if _sweep_row_ok(hit, args.genus):
            rows[d] = hit
            cached += 1
        else:
            tasks.append((d, args.sigma, args.genus))
    if tasks:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                fresh = list(pool.map(_sweep_row, tasks))
        else:
            fresh = [_sweep_row(t) for t in tasks]
        for row in fresh:
            rows[row["d"]] = row
            if cache:
                cache.put(_sweep_key(row["d"], args), row)
    order = ("d", "sigma", "N", "M", "slope", "genus", "note")
    payload = [
        {k: row[k] for k in order if k in row} for row in (rows[d] for d in ds)
    ]
    lines = [
        "  ".join(f"{k}={v}" for k, v in row.items()) for row in payload
    ]
    if cache:
        print(f"({cached} cache hits)", file=sys.stderr)
    _emit(args, payload, lines)
    return 0


def cmd_probe_g3(args) -> int:
    _at_least("--max-prime", args.max_prime, 5)
    check_capacity(args.max_prime, formulas.MAX_CLOSED_FORM_DEGREE, "closed-form")
    primes = [p for p in formulas.primes_up_to(args.max_prime) if p >= 5]
    rows = formulas.g3_slope_probe(primes)
    for row in rows:
        row["slope_decimal"] = f"{float(Fraction(row['slope'])):.6f}"
    lines = [
        f"d={r['d']:>4}  N={r['N']:>12}  M={r['M']:>16}  "
        f"slope={r['slope_decimal']}"
        for r in rows
    ]
    slopes = [Fraction(r["slope"]) for r in rows]
    decreasing = all(a > b for a, b in zip(slopes, slopes[1:]))
    above = all(s > 9 for s in slopes)
    lines.append(f"strictly decreasing: {decreasing}; all > 9: {above}")
    _emit(args, rows, lines)
    return 0 if decreasing and above else EXIT_VERIFY


def cmd_origami_render(args) -> int:
    if args.alpha and args.beta:
        try:
            v = parse_cycles(args.alpha, args.d)
            h = parse_cycles(args.beta, args.d)
        except ValueError as e:
            return _fail(EXIT_INVALID, str(e))
        surface = origami.SquareTiledSurface(v=v, h=h)
    else:
        if not args.sigma:
            return _fail(
                EXIT_INVALID, "need either --alpha/--beta or --sigma with --index"
            )
        prof = _profile(args)
        classes = enumerate_classes(args.d, prof)
        if not 0 <= args.index < len(classes):
            return _fail(
                EXIT_INVALID,
                f"--index {args.index} out of range (0..{len(classes) - 1})",
            )
        surface = origami.SquareTiledSurface.from_pair(classes[args.index])
    doc = origami.render(surface, format=args.format)
    if args.mark_weierstrass:
        try:
            parity = origami.weierstrass_parity(surface.to_pair())
            note = f"integer Weierstrass points: {parity}"
        except ValueError as e:
            return _fail(EXIT_INVALID, str(e))
        if args.format == "svg":
            doc = doc.replace(
                "</svg>", f"<!-- {note} -->\n</svg>"
            )
        else:
            doc += note + "\n"
    if args.output:
        Path(args.output).write_text(doc, encoding="utf-8")
    else:
        sys.stdout.write(doc)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toruscovers",
        description="Enumerate one-point branched covers of an elliptic "
        "curve and compute the invariants of the induced family curve.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, sigma=True):
        sp.add_argument("--d", type=int, required=True, help="cover degree")
        if sigma:
            sp.add_argument(
                "--sigma",
                required=True,
                help="branch class: nontrivial parts, e.g. '3' or '2,2' "
                "(short form; 1s are implied)",
            )
        sp.add_argument("--format", choices=("json", "csv", "table"),
                        default="table")
        sp.add_argument("--output", help="write to file instead of stdout")
        sp.add_argument(
            "--max-degree", type=int, default=9,
            help="enumeration safety bound (default 9)",
        )

    sp = sub.add_parser("enumerate", help="list all cover classes")
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("counts", help="per-type counts, N, M, slope")
    common(sp)
    sp.add_argument(
        "--method", choices=("brute", "burnside", "formula"), default="brute"
    )
    sp.add_argument("--cache-dir")
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser("slope", help="slope and its ingredients")
    common(sp)
    sp.set_defaults(func=cmd_slope)

    sp = sub.add_parser("components", help="monodromy components")
    common(sp)
    sp.add_argument("--genus", type=int, help="assert the cover genus")
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser("genus", help="orbit-based genus, chi, closed forms")
    common(sp)
    sp.set_defaults(func=cmd_genus)

    sp = sub.add_parser("orbifold", help="orbifold points and chi")
    common(sp)
    sp.set_defaults(func=cmd_orbifold)

    sp = sub.add_parser("characters", help="character table of S_d")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_characters)

    sp = sub.add_parser(
        "genfun-check", help="exp/log identity between cover series"
    )
    sp.add_argument("--d-max", type=int, default=6)
    sp.add_argument("--dump", action="store_true",
                    help="include all coefficients in the output")
    sp.add_argument("--format", choices=("json", "table"), default="table")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_genfun_check)

    sp = sub.add_parser("verify", help="dual-path verification bundles")
    sp.add_argument("--family", choices=formulas.FAMILIES)
    sp.add_argument("--primes", help="comma-separated primes (default 5,7)")
    sp.add_argument("--appendix", action="store_true")
    sp.add_argument("--dejonquieres", action="store_true")
    sp.add_argument("--slope10", action="store_true")
    sp.add_argument("--components", action="store_true")
    sp.add_argument("--origami", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="N/M/slope over a degree range")
    sp.add_argument("--d", type=int)
    sp.add_argument("--d-range", help="a..b inclusive")
    sp.add_argument("--primes-only", action="store_true")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--genus", action="store_true", help="include genus")
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--cache-dir")
    sp.add_argument("--format", choices=("json", "csv", "table"),
                    default="table")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("probe-g3", help="slope table for the g=3 family")
    sp.add_argument("--max-prime", type=int, default=199)
    sp.add_argument("--format", choices=("json", "csv", "table"),
                    default="table")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_probe_g3)

    sp = sub.add_parser("origami", help="square-tiled surface tools")
    osub = sp.add_subparsers(dest="origami_command", required=True)
    rp = osub.add_parser("render", help="draw one surface")
    rp.add_argument("--d", type=int, required=True)
    rp.add_argument("--sigma")
    rp.add_argument("--index", type=int, default=0,
                    help="class index in enumeration order")
    rp.add_argument("--alpha", help="explicit v permutation, cycle notation")
    rp.add_argument("--beta", help="explicit h permutation, cycle notation")
    rp.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    rp.add_argument("--mark-weierstrass", action="store_true")
    rp.add_argument("--output")
    rp.set_defaults(func=cmd_origami_render)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as e:
        return _fail(EXIT_CAPACITY, str(e))
    except CacheError as e:
        return _fail(EXIT_CACHE, str(e))
    except SystemExit:
        raise
    except (ValueError, TypeError) as e:
        return _fail(EXIT_INVALID, str(e))
    except Exception as e:  # a defect, never a verdict: exit 1 means FAIL only
        return _fail(EXIT_INTERNAL, f"internal: {type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
