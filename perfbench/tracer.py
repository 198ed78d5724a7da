"""Spans recorded from outside the package under test.

``instrument`` replaces public functions of the package with wrappers
that open a span around each call; the workloads open further spans
around their own call sites.  Spans (id, parent, name, start, end) and
counters stay in memory and are written out when the process ends.
Untraced runs use ``NullTracer`` and install no wrapper at all.
"""
from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional


def rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NullTracer:
    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float]):
        self.run_id = run_id
        self.clock = clock  # times are reference seconds (speedclock.py)
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.rss: dict[str, float] = {}  # layer -> high-water after its spans
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, self.clock(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = self.clock()
        self._stack.pop()
        layer = rec[2].split(".", 1)[0]
        self.rss[layer] = rss_mb()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [r[4] - r[3] for r in self.spans if r[2] == name]

    def summary(self) -> dict[str, float]:
        """Per span name: ``<name>.s`` (time in outermost spans of that
        name) and ``<name>.calls``; per layer: ``busy_s`` (time in
        outermost spans of the layer), ``self_s`` (span time not covered
        by child spans) and ``rss_mb``; plus every counter."""
        by_id = {r[0]: r for r in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for r in self.spans:
            if r[1] is not None:
                child_time[r[1]] += r[4] - r[3]

        def has_ancestor(r, pred) -> bool:
            p = r[1]
            while p is not None:
                if pred(by_id[p]):
                    return True
                p = by_id[p][1]
            return False

        out: dict[str, float] = defaultdict(float)
        calls = Counter(r[2] for r in self.spans)
        for r in self.spans:
            name, dur = r[2], r[4] - r[3]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur - child_time[r[0]]
            if not has_ancestor(r, lambda a: a[2] == name):
                out[f"{name}.s"] += dur
            if not has_ancestor(r, lambda a: a[2].split(".", 1)[0] == layer):
                out[f"{layer}.busy_s"] += dur
        out.update((f"{name}.calls", n) for name, n in calls.items())
        for layer, mb in self.rss.items():
            out[f"{layer}.rss_mb"] = mb
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "toruscovers" or n.startswith("toruscovers."))]


def _wrap(tracer: Tracer, original: Callable, name: "str | Callable[..., str]",
          on_result: Optional[Callable]) -> Callable:
    """``original`` inside a span; ``name`` may be a function of the call's
    arguments, and ``on_result(tracer, result)`` can add counters."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(rec)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def patch_function(tracer: Tracer, module, attr: str,
                   name: "str | Callable[..., str]",
                   on_result: Optional[Callable] = None) -> None:
    """Wrap ``module.attr`` and every other reference to the same function
    object in the package's modules, so that calls made inside the
    package are traced too."""
    original = getattr(module, attr)
    wrapper = _wrap(tracer, original, name, on_result)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def patch_method(tracer: Tracer, cls, attr: str, name: str,
                 on_result: Optional[Callable] = None) -> None:
    """Wrap a plain method or classmethod defined on ``cls``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(tracer, raw.__func__, name, on_result)))
    else:
        setattr(cls, attr, _wrap(tracer, raw, name, on_result))


def instrument(tracer: Tracer) -> None:
    """Install the wrappers that give each layer's per-call spans."""
    from toruscovers import characters, cli, covers, formulas, geometry
    from toruscovers import monodromy, origami

    def count_classes(tr, classes):
        tr.count("covers.classes", len(classes))

    def count_orbits(tr, dec):
        tr.count("monodromy.components", len(dec.components))
        tr.count("monodromy.local_orbits", len(dec.local_orbits))

    def count_hit(tr, value):
        if value is not None:
            tr.count("cli.cache_hits")

    def count_parity(tr, _):
        tr.count("origami.parity_checked")

    def by_method(degree, k, parts, method="characters"):
        return f"characters.disconnected_count.{method}"

    plan = [
        (covers, "enumerate_classes", "covers.enumerate_classes", count_classes),
        (covers, "canonical_pair", "covers.canonicalize", None),
        (monodromy, "decompose", "monodromy.decompose", count_orbits),
        (monodromy, "involution_pairs", "monodromy.involution_pairs", None),
        (monodromy, "action_graph_dot", "monodromy.action_graph_dot", None),
        (geometry, "curve_invariants", "geometry.curve_invariants", None),
        (geometry, "component_slope", "geometry.component_slope", None),
        (origami, "ur_orbits", "origami.ur_orbits", None),
        (origami, "weierstrass_parity", "origami.weierstrass_parity", count_parity),
        (origami, "cylinders", "origami.cylinders", None),
        (characters, "disconnected_count", by_method, None),
        (characters, "build_generating_functions", "characters.genfun_build", None),
        (characters, "series_exp", "characters.series", None),
        (characters, "series_log", "characters.series", None),
        (formulas, "g3_slope_probe", "formulas.g3_slope_probe", None),
        (formulas, "assembled_N_M", "formulas.assembled_N_M", None),
        (formulas, "closed_N_M", "formulas.closed_N_M", None),
        (formulas, "genus_closed", "formulas.genus_closed", None),
        (formulas, "ramanujan_check", "formulas.identities", None),
        (formulas, "convolution_identity", "formulas.identities", None),
        (formulas, "sum_identity_l1l2", "formulas.identities", None),
        (formulas, "prime_convolution_value", "formulas.identities", None),
        (formulas, "dejonquieres", "formulas.dejonquieres", None),
        (formulas, "dejonquieres_positive", "formulas.dejonquieres", None),
    ]
    for module, attr, name, on_result in plan:
        patch_function(tracer, module, attr, name, on_result)
    patch_method(tracer, monodromy.OrbitDecomposition, "primitive_components",
                 "monodromy.primitive_components")
    patch_method(tracer, characters.CharacterTable, "build",
                 "characters.table_build")
    patch_method(tracer, cli.ResultCache, "get", "cli.cache_get", count_hit)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
