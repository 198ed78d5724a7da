"""Command-line front end: enumeration, invariant reports, dual-path
verification bundles, sweeps with a JSONL result cache, and renders.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 capacity exceeded, 4 unreadable or unwritable cache, 5 internal error.
Handlers raise (ValueError for invalid input); ``main`` alone prints
the error and picks its code.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence

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
from .geometry import (
    component_rows,
    component_slope,
    curve_invariants,
    slope,
    slope_from_counts,
)
from .monodromy import decompose
from .perms import (
    as_partition, classify_group, commutator, compose, cycle_string, parse_cycles
)

EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_CACHE = 4
EXIT_INTERNAL = 5

CACHE_VERSION = 3


class CacheError(RuntimeError):
    pass


@dataclass
class ResultCache:
    """Append-only JSONL store, one record per line:
    ``{"key": <key as sorted JSON text>, "value": <value as JSON text>}``.
    Values keep their field order, so a hit prints the bytes it replays.
    The file is read once per instance, on the first get, as raw byte
    lines; a get decodes only lines that start with its key's prefix,
    newest first, so the last complete record wins and torn, non-UTF-8
    and stale lines are skipped.  A put appends and joins what was read."""

    path: Path
    _lines: Optional[list[bytes]] = field(default=None, init=False, repr=False)

    @classmethod
    def at(cls, directory: os.PathLike) -> "ResultCache":
        d = Path(directory)
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise CacheError(f"cannot create cache dir {d}: {e}") from e
        return cls(d / "results.jsonl")

    @staticmethod
    def _prefix(key: dict) -> str:
        return '{"key": ' + json.dumps(key, sort_keys=True) + ', "value": '

    def _read(self) -> list[bytes]:
        if not self.path.exists():
            return []
        try:
            with open(self.path, "rb") as fh:
                return fh.read().split(b"\n")
        except OSError as e:
            raise CacheError(f"cannot read cache {self.path}: {e}") from e

    def get(self, key: dict) -> Optional[dict]:
        if self._lines is None:
            self._lines = self._read()
        prefix = self._prefix(key).encode()
        for line in reversed(self._lines):
            if line.startswith(prefix):
                try:
                    return json.loads(line)["value"]
                except ValueError:
                    continue  # torn or not UTF-8; an older record may hold
        return None

    def put(self, key: dict, value: dict) -> None:
        line = (self._prefix(key) + json.dumps(value) + "}").encode()
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
                fh.write(prefix + line + b"\n")
        except OSError as e:
            raise CacheError(f"cannot write cache {self.path}: {e}") from e
        if self._lines is not None:
            self._lines.append(line)


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


def _cache_key(kind: str, d: int, sigma) -> dict:
    """The key of one cached result; ``kind`` names the command."""
    return {"d": d, "sigma": sigma, "kind": kind, "version": CACHE_VERSION}


def _cached(cache: Optional[ResultCache], key: dict, ok, compute) -> tuple[dict, bool]:
    """The value cached under ``key`` when ``ok`` accepts it, else that of
    ``compute()``, stored under ``key``; and whether it was a hit."""
    value = cache.get(key) if cache else None
    if ok(value):
        return value, True
    value = compute()
    if cache:
        cache.put(key, value)
    return value, False


# ---------------------------------------------------------------------------
# shared plumbing


def _profile(
    args, max_degree: Optional[int] = None, kind: str = "enumeration degree"
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
        raise ValueError(f"invalid sigma: {e}") from e


def _at_least(option: str, value: int, low: int) -> None:
    """Raise ValueError naming ``option`` when its value is below ``low``."""
    if value < low:
        raise ValueError(f"{option} must be at least {low}")


def _write(args, text: str) -> None:
    """Write ``text`` to --output when it is given, to stdout otherwise."""
    if args.output is not None:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as e:
            message = f"cannot write --output {args.output!r}: {e.strerror or e}"
            raise ValueError(message) from e
    else:
        sys.stdout.write(text)


def _result_cache(args) -> Optional[ResultCache]:
    """The cache in --cache-dir, None when the option is absent; an empty
    directory name is bad input, not "no cache"."""
    if args.cache_dir is None:
        return None
    if not args.cache_dir:
        raise ValueError("--cache-dir must name a directory, not ''")
    return ResultCache.at(args.cache_dir)


def _emit(args, payload, table_lines=()) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _csv_text(payload)
    else:
        text = "".join(line + "\n" for line in table_lines)
    _write(args, text)


def _csv_text(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    flat = [
        {k: (json.dumps(v) if isinstance(v, (list, dict)) else v) for k, v in r.items()}
        for r in rows
    ]
    if not flat:
        return ""
    fields = sorted({k for r in flat for k in r})
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=fields)
    w.writeheader()
    w.writerows(flat)
    return out.getvalue()


def _parse_d_list(args) -> list[int]:
    """The degrees of --d or --d-range.  The top one is held to
    --max-degree, the bound that each row's enumeration applies, before
    the list is built."""
    if args.d_range is not None:
        try:
            lo, hi = (int(x) for x in args.d_range.split(".."))
            if not 1 <= lo <= hi:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad --d-range {args.d_range!r}; want a..b, 1 <= a <= b")
    elif args.d is not None:
        _at_least("--d", args.d, 1)
        lo = hi = args.d
    else:
        raise ValueError("need --d or --d-range")
    check_capacity(hi, args.max_degree)
    ds = list(range(lo, hi + 1))
    if args.primes_only:
        ds = [d for d in ds if formulas.is_prime(d)]
        if not ds:
            raise ValueError("--primes-only leaves no degree")
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
        prof = _profile(
            args, formulas.MAX_CLOSED_POLYNOMIAL_DEGREE, "closed-polynomial degree"
        )
        family = formulas.family_of(prof)
        if family is None or not formulas.is_prime(args.d):
            sigmas = " | ".join(map(formulas.family_sigma, formulas.FAMILIES))
            raise ValueError(
                "--method formula needs prime d and sigma in one of the "
                f"closed-form families ({sigmas})"
            )
    else:
        prof = _profile(args)

    def compute() -> dict:
        if formula:
            N, M = formulas.closed_N_M(args.d, family)
            return {
                "d": args.d,
                "sigma": list(prof.parts),
                "family": family,
                "N": N,
                "M": str(M),
                "slope": str(slope_from_counts(prof, N, M).slope),
            }
        table = count_table(
            args.d, prof, method=args.method, max_degree=args.max_degree
        )
        s = slope(table)
        return {**table.as_dict(), "slope": None if s.slope is None else str(s.slope)}

    cache = _result_cache(args)
    key = _cache_key(f"counts/{args.method}", args.d, list(prof.parts))
    payload, _ = _cached(cache, key, _counts_ok, compute)
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
        raise ValueError(
            f"sigma {prof.parts} gives cover genus {prof.genus}, not {args.genus}"
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
    family = formulas.family_of(prof)
    if family in formulas.GENUS2_FAMILIES and formulas.is_prime(args.d) and args.d >= 5:
        payload["closed_form"] = formulas.genus_closed(
            args.d, family
        ).flag_against(inv.genus)
    lines = [f"genus = {inv.genus}", f"chi = {inv.chi}"] + [
        f"orbifold point of order {p.order}: {p.count} per degenerate fiber"
        for p in inv.orbifold
    ]
    closed = payload.get("closed_form")
    for variant in ("printed", "repaired") if closed else ():
        verdict = "matches" if closed[f"{variant}_matches"] else "MISMATCH"
        lines.append(f"{variant} closed form: {closed[variant]} ({verdict})")
    _emit(args, payload, lines)
    return 0


def cmd_orbifold(args) -> int:
    prof = _profile(args)
    inv = curve_invariants(decompose(args.d, prof, max_degree=args.max_degree))
    payload = {"d": args.d, "sigma": list(prof.parts), **inv.as_dict()}
    del payload["genus"]
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
        _write(args, table.to_csv())
        return 0
    payload = {
        "d": args.d,
        "shapes": [list(s) for s in table.shapes],
        "degrees": {"|".join(map(str, s)): table.degrees[s] for s in table.shapes},
        "values": {
            "|".join(map(str, s)): list(row) for s, row in zip(table.shapes, table.rows)
        },
    }
    _emit(args, payload)
    return 0


def cmd_genfun_check(args) -> int:
    _at_least("--d-max", args.d_max, 1)
    zhat, ztilde = chars.build_generating_functions(args.d_max)
    ok_exp = chars.series_exp(ztilde.coeffs, args.d_max) == dict(zhat.coeffs)
    ok_log = chars.series_log(zhat.coeffs, args.d_max) == dict(ztilde.coeffs)
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
# verification bundles (one per acceptance scenario); each yields
# (label, ok) pairs

Check = tuple[str, bool]


def verify_family(family: str, primes: Sequence[int]) -> Iterator[Check]:
    """Closed per-type formulas and totals against brute force."""
    for d in primes:
        prof = RamificationProfile.of(d, formulas.family_sigma(family))
        counted = count_table(d, prof)
        closed = {
            t: formulas.per_type_N(d, family, t)
            for t in formulas.admissible_types(d, family)
        }
        yield (
            f"{family} d={d}: per-type table",
            {t: n for t, n in closed.items() if n} == dict(counted.by_type),
        )
        N, M = counted.N, counted.M
        aN, aM = formulas.assembled_N_M(d, family)
        yield f"{family} d={d}: assembled N={aN} M={aM}", (aN, aM) == (N, M)
        cN, cM = formulas.closed_N_M(d, family)
        yield f"{family} d={d}: closed N={cN} M={cM}", (cN, cM) == (N, M)


def verify_appendix() -> Iterator[Check]:
    yield (
        "Ramanujan differential equations to order 200",
        formulas.ramanujan_check(200),
    )
    yield (
        "divisor-sum convolution identity, 2 <= d <= 500",
        all(a == b for a, b in map(formulas.convolution_identity, range(2, 501))),
    )
    yield (
        "two-size l1*l2 sum identity, 2 <= d <= 200",
        all(a == b for a, b in map(formulas.sum_identity_l1l2, range(2, 201))),
    )
    yield (
        "prime closed form (d-1)(d+1)(5d-6)/12, primes <= 199",
        all(
            formulas.convolution_identity(p)[0] == formulas.prime_convolution_value(p)
            for p in formulas.primes_up_to(199)
        ),
    )


def verify_dejonquieres() -> Iterator[Check]:
    yield "genus 2, mu=(2) -> 6", formulas.dejonquieres(2, [2]) == 6
    yield "genus 3, mu=(2,2) -> 28", formulas.dejonquieres(3, [2, 2]) == 28
    yield (
        "positivity for all canonical types with g-1 parts, g <= 8",
        formulas.dejonquieres_positive(8),
    )


def verify_slope10() -> Iterator[Check]:
    for family in formulas.GENUS2_FAMILIES:
        sigma = formulas.family_sigma(family)
        for d in range(formulas.family_min_degree(family), 10):
            prof = RamificationProfile.of(d, sigma)
            rows = component_rows(prof, decompose(d, prof))
            if rows:
                yield (
                    f"sigma=({sigma}) d={d}: slope 10 on all {len(rows)} components",
                    all(r["slope"] == "10" for r in rows),
                )


def verify_components() -> Iterator[Check]:
    got = [
        len(decompose(d, RamificationProfile.of(d, "3")).primitive_components())
        for d in range(3, 9)
    ]
    yield (
        f"primitive component counts sigma=(3,1^(d-3)), d=3..8: {got}",
        got == [1, 1, 2, 1, 2, 1],
    )
    prof = RamificationProfile.of(5, "5")
    rows = component_rows(prof, decompose(5, prof))
    sizes = sorted(r["size"] for r in rows)
    slopes = sorted(r["slope"] for r in rows)
    yield (
        f"g=3 d=5: component sizes {sizes}, slopes {slopes}",
        sizes == [3, 10, 12, 15] and slopes == ["28/3", "28/3", "9", "9"],
    )


def _surface(d: int, v: str, h: str) -> origami.SquareTiledSurface:
    return origami.SquareTiledSurface(v=parse_cycles(v, d), h=parse_cycles(h, d))


def verify_origami() -> Iterator[Check]:
    e1 = _surface(5, "(1 5)", "(1 2 3 4)")
    e2 = _surface(5, "(1 2 4 3 5)", "(1 2 3 4 5)")
    e3 = _surface(7, "(1 2 6 4 5 3 7)", "(1 2 3 4 5 6 7)")
    e4 = _surface(7, "(1 3 5 7 6 2 4)", "(1 2)(3 4)(5 6 7)")
    e5 = _surface(11, "(1 6 8 10)(2 4 11 3 5 7 9)", "(1 2 3)(4 5 6)(7 8)(9 10)")
    yield (
        "example surfaces 1-2: commutators (1 5 2), (1 3 4)",
        cycle_string(commutator(e1.v, e1.h)) == "(1 5 2)"
        and cycle_string(commutator(e2.v, e2.h)) == "(1 3 4)",
    )
    yield (
        "example surfaces 3-4: commutator type (2,2,1,1,1)",
        origami.singularities(e3) == [2, 2] and origami.singularities(e4) == [2, 2],
    )
    yield (
        "cylinder counts 1/2/3 for examples 3/4/5",
        len(origami.cylinders(e3)) == 1
        and origami.cylinders(e4) == [(2, 2), (3, 1)]
        and len(origami.cylinders(e5)) == 3,
    )
    yield (
        "shear of example 1 gives v' = (1 2 3 4 5)",
        cycle_string(compose(e1.v, e1.h)) == "(1 2 3 4 5)",
    )
    for d in (5, 7):
        dec = decompose(d, RamificationProfile.of(d, "3"))
        yield f"parity constant on components, d={d}", all(
            len({origami.weierstrass_parity(dec.classes[i]) for i in comp}) == 1
            for comp in dec.components
        )
    w1 = CoverClass.from_pair(
        parse_cycles("(1 3 5 2 4 6 7)"), parse_cycles("(1 2)(3 4)", 7)
    )
    w2 = CoverClass.from_pair(
        parse_cycles("(1 3 2 4 5 6 7)"), parse_cycles("(1 2)", 7)
    )
    dec = decompose(7, RamificationProfile.of(7, "2,2"))
    where = {dec.classes[i].key: n for n, comp in enumerate(dec.components) for i in comp}
    in1, in2 = where.get(w1.key), where.get(w2.key)
    kinds = "/".join(classify_group([w.alpha, w.beta], w.degree) for w in (w1, w2))
    yield (
        "the two witness pairs for sigma=(2,2,1^3), d=7 lie in distinct "
        f"components (groups {kinds})",
        in1 is not None and in2 is not None and in1 != in2,
    )


def cmd_verify(args) -> int:
    primes: list[int] = []
    if args.primes is not None and not args.family:
        raise ValueError("--primes needs --family")
    if args.family:
        given = "5,7" if args.primes is None else args.primes
        if not given.strip():
            raise ValueError("--primes names no prime")
        for entry in given.split(","):
            try:
                primes.append(int(entry))
            except ValueError:
                raise ValueError(f"bad --primes entry {entry!r}")
        primes = list(dict.fromkeys(primes))  # repeats run once
        check_capacity(max(primes), DEFAULT_MAX_DEGREE)
        bad = [p for p in primes if not formulas.is_prime(p)]
        if bad:
            raise ValueError(f"--primes must be prime, got {bad}")
        low = formulas.family_min_degree(args.family)
        small = [p for p in primes if p < low]
        if small:
            raise ValueError(f"--primes entry {small[0]} is below the least "
                             f"degree {low} of family {args.family}")
    bundles = {
        "family": lambda: verify_family(args.family, primes),
        "appendix": verify_appendix,
        "dejonquieres": verify_dejonquieres,
        "slope10": verify_slope10,
        "components": verify_components,
        "origami": verify_origami,
    }
    chosen = [run for flag, run in bundles.items() if getattr(args, flag)]
    if not chosen:
        flags = "/".join(f"--{flag}" for flag in bundles)
        raise ValueError(f"nothing to verify: pass {flags}")
    checks = [check for run in chosen for check in run()]
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sweep and probe


def _sweep_row(d: int, sigma: str, with_genus: bool, max_degree: int) -> dict:
    try:
        prof = RamificationProfile.of(d, sigma)
    except ValueError:
        return {"d": d, "sigma": sigma, "N": 0, "note": "sigma does not fit"}
    if not prof.admits_covers:
        return {"d": d, "sigma": sigma, "N": 0, "note": "odd branching parity"}
    if with_genus:
        dec = decompose(d, prof, max_degree=max_degree)
        classes = dec.classes
    else:
        classes = enumerate_classes(d, prof, max_degree=max_degree)
    s = component_slope(prof, classes)
    row = {
        "d": d,
        "sigma": sigma,
        "N": s.N,
        "M": str(s.M),
        "slope": None if s.slope is None else str(s.slope),
    }
    if s.N and with_genus:
        row["genus"] = curve_invariants(dec).genus
    return row


def _sweep_row_ok(row, with_genus: bool) -> bool:
    """Whether a cached sweep row holds the fields a fresh one would."""
    if not _holds(row, ("d", "sigma", "N")):
        return False
    genus = ("genus",) if with_genus and row["N"] else ()
    return "note" in row or _holds(row, ("M", "slope", *genus))


def _short_sigma(text: str) -> str:
    """The short_spec of a sigma text, the one spelling that sweep prints
    and caches under.  Raises ValueError on text that names no profile;
    whether it fits a degree is checked per row."""
    return RamificationProfile(as_partition(text) or (1,)).short_spec


def cmd_sweep(args) -> int:
    ds = _parse_d_list(args)
    try:
        sigma = _short_sigma(args.sigma)
    except ValueError as e:
        raise ValueError(f"invalid sigma: {e}") from e
    cache = _result_cache(args)
    kind = "sweep" + ("+genus" if args.genus else "")
    rows, cached = [], 0
    for d in ds:
        row, hit = _cached(cache, _cache_key(kind, d, sigma),
                           lambda row: _sweep_row_ok(row, args.genus),
                           lambda: _sweep_row(d, sigma, args.genus, args.max_degree))
        rows.append(row)
        cached += hit
    order = ("d", "sigma", "N", "M", "slope", "genus", "note")
    payload = [{k: row[k] for k in order if k in row} for row in rows]
    lines = [
        "  ".join(f"{k}={v}" for k, v in row.items()) for row in payload
    ]
    if cache:
        print(f"({cached} cache hits)", file=sys.stderr)
    _emit(args, payload, lines)
    return 0


def cmd_probe_g3(args) -> int:
    _at_least("--max-prime", args.max_prime, 5)
    # the largest prime the probe uses is held to the bound before any
    # sieve; one lies in (bound, 2 bound] (Bertrand), so look no higher
    bound = formulas.MAX_CLOSED_FORM_DEGREE
    top = min(args.max_prime, 2 * bound)
    check_capacity(max(filter(formulas.is_prime, range(top + 1))), bound,
                   "closed-form degree")
    rows = formulas.g3_slope_probe(formulas.primes_up_to(args.max_prime))
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
    _at_least("--d", args.d, 1)
    pair = "/".join(f"--{o}" for o in ("alpha", "beta") if vars(args)[o] is not None)
    pick = "/".join(f"--{o}" for o in ("sigma", "index") if vars(args)[o] is not None)
    if pair and pick:
        raise ValueError(f"{pair} cannot be given with {pick}")
    if pair in ("--alpha", "--beta"):
        raise ValueError(f"{pair} needs {'--beta' if pair == '--alpha' else '--alpha'}")
    if pair:
        # a connected surface of degree >= 2 moves every square, and the
        # two strings name at most as many squares as they have characters
        if args.d > max(1, len(args.alpha) + len(args.beta)):
            raise ValueError("surface is not connected")
        surface = _surface(args.d, args.alpha, args.beta)
    elif args.sigma is None:
        raise ValueError("need either --alpha/--beta or --sigma with --index")
    else:
        prof = _profile(args)
        classes = enumerate_classes(args.d, prof)
        if not classes:
            raise ValueError(f"d={args.d} sigma={prof} has no cover classes")
        index = args.index or 0
        if not 0 <= index < len(classes):
            raise ValueError(f"--index {index} out of range (0..{len(classes) - 1})")
        surface = origami.SquareTiledSurface.from_pair(classes[index])
    doc = origami.render(surface, format=args.format)
    if args.mark_weierstrass:
        parity = origami.weierstrass_parity(CoverClass(surface.v, surface.h))
        note = f"integer Weierstrass points: {parity}"
        if args.format == "svg":
            doc = doc.replace("</svg>", f"<!-- {note} -->\n</svg>")
        else:
            doc += note + "\n"
    _write(args, doc)
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

    def output(sp, formats=("json", "csv", "table"), default="table"):
        sp.add_argument("--format", choices=formats, default=default)
        sp.add_argument("--output", help="write to file instead of stdout")

    def max_degree(sp):
        sp.add_argument(
            "--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
            help="enumeration safety bound (default %(default)s)",
        )

    def common(sp):
        sp.add_argument("--d", type=int, required=True, help="cover degree")
        sp.add_argument(
            "--sigma",
            required=True,
            help="branch class: nontrivial parts, e.g. '3' or '2,2' "
            "(short form; 1s are implied)",
        )
        output(sp)
        max_degree(sp)

    sp = sub.add_parser("enumerate", help="list all cover classes")
    common(sp)
    sp.set_defaults(handler="cmd_enumerate")

    sp = sub.add_parser("counts", help="per-type counts, N, M, slope")
    common(sp)
    sp.add_argument(
        "--method", choices=("brute", "burnside", "formula"), default="brute"
    )
    sp.add_argument("--cache-dir")
    sp.set_defaults(handler="cmd_counts")

    sp = sub.add_parser("slope", help="slope and its ingredients")
    common(sp)
    sp.set_defaults(handler="cmd_slope")

    sp = sub.add_parser("components", help="monodromy components")
    common(sp)
    sp.add_argument("--genus", type=int, help="assert the cover genus")
    sp.set_defaults(handler="cmd_components")

    sp = sub.add_parser("genus", help="orbit-based genus, chi, closed forms")
    common(sp)
    sp.set_defaults(handler="cmd_genus")

    sp = sub.add_parser("orbifold", help="orbifold points and chi")
    common(sp)
    sp.set_defaults(handler="cmd_orbifold")

    sp = sub.add_parser("characters", help="character table of S_d")
    sp.add_argument("--d", type=int, required=True)
    output(sp, ("json", "csv"), "csv")
    sp.set_defaults(handler="cmd_characters")

    sp = sub.add_parser(
        "genfun-check", help="exp/log identity between cover series"
    )
    sp.add_argument("--d-max", type=int, default=6)
    sp.add_argument("--dump", action="store_true",
                    help="include all coefficients in the output")
    output(sp, ("json", "table"))
    sp.set_defaults(handler="cmd_genfun_check")

    sp = sub.add_parser("verify", help="dual-path verification bundles")
    sp.add_argument("--family", choices=formulas.FAMILIES)
    sp.add_argument("--primes", help="comma-separated primes (default 5,7)")
    sp.add_argument("--appendix", action="store_true")
    sp.add_argument("--dejonquieres", action="store_true")
    sp.add_argument("--slope10", action="store_true")
    sp.add_argument("--components", action="store_true")
    sp.add_argument("--origami", action="store_true")
    sp.set_defaults(handler="cmd_verify")

    sp = sub.add_parser("sweep", help="N/M/slope over a degree range")
    degrees = sp.add_mutually_exclusive_group()
    degrees.add_argument("--d", type=int)
    degrees.add_argument("--d-range", help="a..b inclusive")
    sp.add_argument("--primes-only", action="store_true")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--genus", action="store_true", help="include genus")
    sp.add_argument("--cache-dir")
    output(sp)
    max_degree(sp)
    sp.set_defaults(handler="cmd_sweep")

    sp = sub.add_parser("probe-g3", help="slope table for the g=3 family")
    sp.add_argument("--max-prime", type=int, default=formulas.MAX_CLOSED_FORM_DEGREE)
    output(sp)
    sp.set_defaults(handler="cmd_probe_g3")

    sp = sub.add_parser("origami", help="square-tiled surface tools")
    osub = sp.add_subparsers(dest="origami_command", required=True)
    rp = osub.add_parser("render", help="draw one surface")
    rp.add_argument("--d", type=int, required=True)
    rp.add_argument("--sigma")
    rp.add_argument("--index", type=int, help="class index in enumeration order")
    rp.add_argument("--alpha", help="explicit v permutation, cycle notation")
    rp.add_argument("--beta", help="explicit h permutation, cycle notation")
    output(rp, ("ascii", "svg"), "ascii")
    rp.add_argument("--mark-weierstrass", action="store_true")
    rp.set_defaults(handler="cmd_origami_render")

    # the usage as argparse before 3.13 wraps it at 80 columns; 3.13 joins
    # "..." onto the line of choices, so one fixed layout keeps --help equal
    pad = " " * len(f"usage: {p.prog} ")
    p.usage = f"%(prog)s [-h]\n{pad}{{{','.join(sub.choices)}}}\n{pad}..."
    return p


@functools.lru_cache(maxsize=1)
def _parser_for(max_degree: int, max_prime: int) -> argparse.ArgumentParser:
    """The parser that ``main`` reuses while the bound constants that its
    defaults show (the arguments) stay the same."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    bounds = DEFAULT_MAX_DEGREE, formulas.MAX_CLOSED_FORM_DEGREE
    args = _parser_for(*bounds).parse_args(argv)
    try:
        if hasattr(args, "max_degree"):  # a bound below 1 is bad input, before any work
            _at_least("--max-degree", args.max_degree, 1)
        # handlers are named, not captured, so the reused parser runs the
        # module's current one
        return globals()[args.handler](args)
    except CapacityError as e:
        code, message = EXIT_CAPACITY, str(e)
    except CacheError as e:
        code, message = EXIT_CACHE, str(e)
    except ValueError as e:
        code, message = EXIT_INVALID, str(e)
    except Exception as e:  # a defect, never a verdict: exit 1 means FAIL only
        code, message = EXIT_INTERNAL, f"internal: {type(e).__name__}: {e}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
