"""Outside-in span tracer for the surflink layers.

The tracer wraps each layer's public boundary functions where they are
defined and at every ``from ... import`` binding in sibling modules, so a
call is seen whichever module makes it.  Per-dart accessors stay unwrapped.
Every call records a span (name, start, end, parent, size) in memory; a
span's self time is its duration minus the time its child spans cover.
Result-derived work counts (darts traced, tetrahedra built, letters
reduced, ...) are added to counters at the same boundary.

Nothing here changes the program: ``install`` patches module attributes and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("surface_map", "fal_diagram", "generator", "bowtie", "curves_mcg", "constructions", "io", "cli")


def _map_size(m):
    return (0, len(m.rotation))


def _diagram_size(d):
    return (d.genus, d.map.vertex_count)


# (module, attribute, size of a call from its arguments, work count from its result)
# Sizes are (genus, vertex count), genus 0 where the call does not know it;
# exponent fits use the vertex count, which is c for an all-circle diagram.
TARGETS = (
    ("surface_map", "CombinatorialMap.__init__", lambda a, k: (0, len(a[1] if len(a) > 1 else k["rotation"])), None),
    ("surface_map", "trace_faces", lambda a, k: _map_size(a[0]), lambda r: len(r.face_of)),
    ("surface_map", "checkerboard_coloring", lambda a, k: _map_size(a[0]), None),
    ("surface_map", "cut_along_two_cut", lambda a, k: _map_size(a[0]), None),
    ("surface_map", "canonical_form", lambda a, k: _map_size(a[0]), None),
    ("fal_diagram", "validate_fal", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "check_weakly_prime", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "fill_all", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "augment", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "detect_twist_regions", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "choose_alternating_signs", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "check_wga", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "diagram_canonical_form", lambda a, k: _diagram_size(a[0]), None),
    ("fal_diagram", "diagrams_isomorphic", lambda a, k: _diagram_size(a[0]), None),
    (
        "generator",
        "generate_fal",
        lambda a, k: (a[0], a[1] if len(a) > 1 else k["c"]),
        lambda r: r.map.vertex_count - (2 * r.genus - 1),  # circle insertions needed
    ),
    ("bowtie", "decompose", lambda a, k: _diagram_size(a[0]), None),
    ("bowtie", "reglue", lambda a, k: (a[0].genus, a[0].c), None),
    ("bowtie", "build_nerve", lambda a, k: (a[0].genus, a[0].c), None),
    ("bowtie", "triangulate_white_faces", lambda a, k: (a[0].genus, a[0].c), None),
    ("bowtie", "prism_triangulation", lambda a, k: (a[0].genus, a[0].c), lambda r: r.tetrahedron_count),
    ("bowtie", "PrismTriangulation.export_gluing_table", None, None),
    ("curves_mcg", "dehn_reduce", lambda a, k: (a[1] if len(a) > 1 else k["g"], len(a[0])), None),
    ("curves_mcg", "conjugacy_equal", None, None),
    ("curves_mcg", "geometric_intersection_oracle", lambda a, k: (a[2] if len(a) > 2 else k["g"], len(a[0]) + len(a[1])), None),
    ("curves_mcg", "mcg_apply", None, None),
    ("constructions", "build_layered", None, None),
    ("constructions", "build_doubled", None, None),
    ("constructions", "build_mapping_torus", None, None),
    ("constructions", "build_trivial_torus", None, None),
    ("constructions", "annular_fill", None, None),
    ("constructions", "fill_to_wga", None, None),
    ("io", "diagram_from_json_dict", None, None),
    ("io", "load_diagram", None, None),
    ("io", "load_family_spec", None, None),
    ("io", "build_link_from_spec", None, None),
    ("io", "diagram_to_json_dict", None, None),
    ("io", "dumps_json", None, len),
    ("io", "dump_diagram", None, None),
    ("io", "file_digest", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Span and counter store; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, size) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, size=None):
        rec = self._open(name, size)
        try:
            yield rec
        finally:
            self._close(rec)

    def add(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def _wrap(self, name: str, fn, size_fn, work_fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name, size_fn(args, kwargs) if size_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if work_fn is not None:
                tracer.counters[name + ":work"] += work_fn(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"surflink.{layer}") for layer in LAYERS}
        for layer, attr, size_fn, work_fn in TARGETS:
            owner = modules[layer]
            if "." in attr:
                owner = getattr(owner, attr.split(".")[0])
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf)
            wrapped = self._wrap(f"{layer}.{attr}", original, size_fn, work_fn)
            self._patch(owner, leaf, wrapped)
            if "." in attr:
                continue
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapped)
        return self

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- export / merge --------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, data: dict, parent: int) -> None:
        """Attach spans recorded by another process below span `parent`.

        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's timestamps share the parent's time base."""
        base = len(self.spans)
        for name, start, end, par, size in data["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + base, size])
        for name, value in data["counters"].items():
            self.counters[name] += value


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def loglog_slope(spans: list[list], name: str, min_size: int = 8) -> float:
    """Least-squares slope of log(median inclusive time) on log(size) over
    the distinct sizes seen for `name`; 0.0 when fewer than two sizes."""
    by_size = defaultdict(list)
    for n, start, end, _, size in spans:
        if n == name and size is not None and size[1] >= min_size:
            by_size[size[1]].append(end - start)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(max(statistics.median(v), 1e-9)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def median_by_size(spans: list[list], name: str) -> dict:
    by_size = defaultdict(list)
    for n, start, end, _, size in spans:
        if n == name and size is not None:
            by_size[tuple(size)].append(end - start)
    return {size: (statistics.median(v), len(v)) for size, v in by_size.items()}


def nearest_ancestor_counts(spans: list[list], ancestor: str, name: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    inside = [False] * len(spans)
    total = 0
    for i, (n, _, _, parent, _) in enumerate(spans):
        inside[i] = n == ancestor or (parent >= 0 and inside[parent])
        if n == name and parent >= 0 and inside[parent]:
            total += 1
    return total


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "harness"


def per_layer_metrics(tracer: Tracer, items: int, overhead_frac: float, cli_parts: dict) -> dict:
    """The per-layer metric set of BENCHMARK.json, normalised per item."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for (name, *_), st in zip(spans, selfs):
        self_s[name] += st
        calls[name] += 1
    work = tracer.counters
    n = max(items, 1)

    def per_item(x):
        return x / n

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    tf = "surface_map.trace_faces"
    prism = "bowtie.prism_triangulation"
    gen = "generator.generate_fal"
    maps_in_gen = nearest_ancestor_counts(spans, gen, "surface_map.CombinatorialMap.__init__")
    metrics = {
        "surface_map.maps_built": (per_item(calls["surface_map.CombinatorialMap.__init__"]), "count/item"),
        "surface_map.build_s": (per_item(self_s["surface_map.CombinatorialMap.__init__"]), "s/item"),
        "surface_map.trace_faces_calls": (per_item(calls[tf]), "count/item"),
        "surface_map.trace_faces_s": (per_item(self_s[tf]), "s/item"),
        "surface_map.us_per_dart_traced": (
            1e6 * self_s[tf] / work[tf + ":work"] if work[tf + ":work"] else 0.0,
            "us/dart",
        ),
        "surface_map.cut_calls": (per_item(calls["surface_map.cut_along_two_cut"]), "count/item"),
        "surface_map.cut_s": (per_item(self_s["surface_map.cut_along_two_cut"]), "s/item"),
        "surface_map.canonical_form_s": (per_item(self_s["surface_map.canonical_form"]), "s/item"),
        "surface_map.canonical_form_exponent_c": (loglog_slope(spans, "fal_diagram.diagram_canonical_form"), "slope"),
        "fal_diagram.weakly_prime_s": (per_item(self_s["fal_diagram.check_weakly_prime"]), "s/item"),
        "fal_diagram.weakly_prime_exponent_c": (loglog_slope(spans, "fal_diagram.check_weakly_prime"), "slope"),
        "fal_diagram.validate_s": (per_item(self_s["fal_diagram.validate_fal"]), "s/item"),
        "fal_diagram.fill_s": (per_item(self_s["fal_diagram.fill_all"]), "s/item"),
        "fal_diagram.fill_exponent_c": (loglog_slope(spans, "fal_diagram.fill_all"), "slope"),
        "fal_diagram.augment_s": (per_item(self_s["fal_diagram.augment"]), "s/item"),
        "fal_diagram.twist_regions_s": (per_item(self_s["fal_diagram.detect_twist_regions"]), "s/item"),
        "fal_diagram.wga_s": (per_item(self_s["fal_diagram.check_wga"]), "s/item"),
        "generator.generate_s": (per_item(self_s[gen]), "s/item"),
        "generator.exponent_c": (loglog_slope(spans, gen), "slope"),
        "generator.useful_build_ratio": (work[gen + ":work"] / maps_in_gen if maps_in_gen else 0.0, "ratio"),
        "bowtie.decompose_s": (per_item(self_s["bowtie.decompose"]), "s/item"),
        "bowtie.nerve_s": (per_item(self_s["bowtie.build_nerve"]), "s/item"),
        "bowtie.prism_s": (per_item(self_s[prism] + self_s["bowtie.triangulate_white_faces"]), "s/item"),
        "bowtie.prism_exponent_c": (loglog_slope(spans, prism), "slope"),
        "bowtie.tetrahedra": (per_item(work[prism + ":work"]), "count/item"),
        "bowtie.us_per_tet": (
            1e6 * (self_s[prism] + self_s["bowtie.triangulate_white_faces"]) / work[prism + ":work"]
            if work[prism + ":work"]
            else 0.0,
            "us/tet",
        ),
        "curves_mcg.oracle_calls": (per_item(calls["curves_mcg.geometric_intersection_oracle"]), "count/item"),
        "curves_mcg.oracle_s": (per_item(self_s["curves_mcg.geometric_intersection_oracle"]), "s/item"),
        "curves_mcg.dehn_reduce_calls": (per_item(calls["curves_mcg.dehn_reduce"]), "count/item"),
        "curves_mcg.dehn_reduce_s": (per_item(self_s["curves_mcg.dehn_reduce"]), "s/item"),
        "curves_mcg.letters_reduced": (
            per_item(sum(s[4][1] for s in spans if s[0] == "curves_mcg.dehn_reduce")),
            "count/item",
        ),
        "curves_mcg.conjugacy_s": (per_item(self_s["curves_mcg.conjugacy_equal"]), "s/item"),
        "constructions.build_s": (per_item(layer_self("constructions")), "s/item"),
        "io.load_s": (
            per_item(sum(self_s[f"io.{f}"] for f in ("diagram_from_json_dict", "load_diagram", "load_family_spec"))),
            "s/item",
        ),
        "io.dump_s": (
            per_item(sum(self_s[f"io.{f}"] for f in ("diagram_to_json_dict", "dumps_json", "dump_diagram"))),
            "s/item",
        ),
        "io.bytes_out": (per_item(work["io.dumps_json:work"] + work["cli.bytes_out"]), "B/item"),
        "cli.interpreter_s": (cli_parts.get("interpreter_s", 0.0), "s/item"),
        "cli.import_s": (cli_parts.get("import_s", 0.0), "s/item"),
        "cli.command_s": (cli_parts.get("command_s", 0.0), "s/item"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return metrics


def layer_accounting(tracer: Tracer, wall: float) -> dict:
    """Self seconds per layer, the harness's own share, and the remainder of
    the traced wall time not inside any item span."""
    selfs = self_times(tracer.spans)
    out = defaultdict(float)
    in_items = 0.0
    for (name, start, end, parent, _), st in zip(tracer.spans, selfs):
        out[layer_of(name)] += st
        if parent < 0:
            in_items += end - start
    out["outside_items"] = wall - in_items
    return dict(out)


def write_spans(path, tracer: Tracer) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(tracer.export(), fh)
