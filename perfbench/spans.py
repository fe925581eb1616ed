"""Per-layer tracing from outside the package.

Timing wrappers are installed on public functions of the ``burnside``
modules, at every module that holds a reference to them, and removed again
afterwards.  Spans are kept in memory for one pass over the op list and folded
into per-layer totals when the pass ends.  A layer's self time is its span's
duration minus the time covered by its child spans.  A call made while a
span of the same name is already open (recursion) folds into that span.

Stage sizes (generators, relation rows and nonzeros, matrix shapes) and
the abelian call counts are recorded in a separate counting pass, so that
the work of measuring them never lands in a span's time.

Functions that a later version of the package no longer has are reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter


def _matrix_cells(matrix) -> int:
    return matrix.num_rows * matrix.num_cols


def _size_generators(tracer, args, result):
    tracer.counts["bng.generators"] += len(result)


def _size_relations(tracer, args, result):
    tracer.counts["relations.rows"] += result.num_rows
    tracer.counts["relations.nnz"] += sum(
        1 for row in result.entries for x in row if x
    )


def _size_snf(tracer, args, result):
    tracer.counts["zlinalg.snf.cells"] += _matrix_cells(args[0])
    V = result[2]
    bits = max((abs(x).bit_length() for row in V.entries for x in row), default=0)
    tracer.maxima["zlinalg.snf.v_max_bits"] = max(
        tracer.maxima.get("zlinalg.snf.v_max_bits", 0), bits
    )


def _size_hnf(tracer, args, result):
    tracer.counts["zlinalg.hnf.rows"] += args[0].num_rows
    tracer.counts["zlinalg.hnf.cells"] += _matrix_cells(args[0])


# (span name, module, attribute path, stage-size recorder)
SPANS = (
    ("cli.run", "burnside.cli", "run", None),
    ("bng.enumerate_generators", "burnside.bng", "enumerate_generators", _size_generators),
    ("bng.reduce_class", "burnside.bng", "reduce_class", None),
    ("bng.equal_classes", "burnside.bng", "equal_classes", None),
    ("relations.relation_rows", "burnside.relations", "relation_rows", _size_relations),
    ("relations.expand_b2", "burnside.relations", "expand_b2", None),
    ("relations.expand_prop46", "burnside.relations", "expand_prop46", None),
    ("zlinalg.smith_normal_form", "burnside.zlinalg", "smith_normal_form", _size_snf),
    ("zlinalg.hermite_normal_form", "burnside.zlinalg", "hermite_normal_form", _size_hnf),
    ("groups.from_json", "burnside.groups", "FiniteGroup.from_json", None),
    ("groups.class_representative", "burnside.groups", "FiniteGroup.class_representative", None),
    ("groups.normalizer", "burnside.groups", "FiniteGroup.normalizer", None),
    # the invariant-factor basis computed behind SubgroupRef.structure
    ("groups.abelian_basis", "burnside.groups", "_split_abelian_basis", None),
    ("symbols.canonicalize_symbol", "burnside.symbols", "canonicalize_symbol", None),
    ("symbols.construction_a", "burnside.symbols", "construction_a", None),
    ("symbols.restrict_character", "burnside.symbols", "restrict_character", None),
)

# Called too often to time without distorting the numbers: counted only.
COUNTERS = (
    ("abelian.add.calls", "burnside.abelian", "AbelianGroup.add"),
    ("abelian.reduce.calls", "burnside.abelian", "AbelianGroup.reduce"),
    ("abelian.subgroup_generated.calls", "burnside.abelian", "AbelianGroup.subgroup_generated"),
)

# Which end-to-end metrics each layer's numbers should move, on which
# workload, written down before any change is measured.
TARGETS = {
    "zlinalg.smith_normal_form, zlinalg.snf.cells, zlinalg.snf.v_max_bits":
        "bn_structure wall_s and op_p90_ms, bn_queries setup_s, peak_rss_mib "
        "(the U and V transforms); zero calls on symbol_calculus",
    "zlinalg.hermite_normal_form, zlinalg.hnf.rows, zlinalg.hnf.cells":
        "bn_structure wall_s, through the verify-prop71 ops",
    "bng.enumerate_generators, bng.generators, relations.relation_rows, "
    "relations.rows, relations.nnz":
        "bn_structure op_p50_ms, bn_queries setup_s",
    "bng.reduce_class, bng.equal_classes":
        "bn_queries op_p50_ms and op_p90_ms; zero calls on bn_structure",
    "abelian.add.calls, abelian.reduce.calls, abelian.subgroup_generated.calls":
        "all three workloads (counted, not timed)",
    "groups.from_json, groups.class_representative, groups.normalizer, "
    "groups.abelian_basis":
        "symbol_calculus setup_s and op_p90_ms",
    "symbols.canonicalize_symbol, symbols.construction_a, "
    "symbols.restrict_character, relations.expand_b2, relations.expand_prop46":
        "symbol_calculus op_p50_ms",
    "cli.run": "bn_structure; expected to stay flat",
}

SIZE_COUNTS = (
    "bng.generators",
    "relations.rows",
    "relations.nnz",
    "zlinalg.snf.cells",
    "zlinalg.hnf.rows",
    "zlinalg.hnf.cells",
)
SIZE_MAXIMA = ("zlinalg.snf.v_max_bits",)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw value)`` for a dotted path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return None
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Installs wrappers, records the spans of the current pass, keeps totals."""

    def __init__(self):
        self.enabled = True
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list = []

    # installation ---------------------------------------------------------

    def install(self, counters=False):
        """Wrap the spans, or with ``counters`` the counted functions and
        the stage-size recorders only, so that counting adds nothing to the
        spans' times."""
        if counters:
            for name, module, path in COUNTERS:
                self._patch(name, module, path, self._count_wrapper(name))
            for name, module, path, sizer in SPANS:
                if sizer is not None:
                    self._patch(name, module, path, self._size_wrapper(name, sizer))
        else:
            for name, module, path, _ in SPANS:
                self._patch(name, module, path, self._span_wrapper(name))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _patch(self, name, module, path, make_wrapper):
        found = _resolve(module, path)
        if found is None:
            self.absent.add(name)
            return
        owner, attr, raw = found
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if not callable(fn):
            self.absent.add(name)
            return
        wrapper = make_wrapper(fn)
        if static:
            wrapper = staticmethod(wrapper)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)
        if inspect.isclass(owner):
            return
        # every other module of the package that imported the same function
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or mod is None:
                continue
            if mod_name != "burnside" and not mod_name.startswith("burnside."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, key, raw))
                    setattr(mod, key, wrapper)

    def _count_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _size_wrapper(self, name, sizer):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled or name in self._open:
                    return fn(*args, **kwargs)
                self._open.add(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._open.discard(name)
                try:
                    sizer(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.absent.add(name + ".sizes")
                return result

            return wrapper

        return make

    def _span_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled or name in self._open:
                    return fn(*args, **kwargs)
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self._stack.append(index)
                self._open.add(name)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    self._open.discard(name)
                    self._stack.pop()
                    self.spans[index] = (name, t0, t1, parent)
                return result

            return wrapper

        return make

    def span_cost(self) -> float:
        """Seconds one span wrapper adds to a call: a wrapped no-op against
        a bare one, best of a few repeats."""
        calls, repeats = 20000, 5
        def noop():
            return None

        wrapped = self._span_wrapper("calibration")(noop)
        enabled, self.enabled = self.enabled, True
        recorded, self.spans = self.spans, []
        best = math.inf
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            self.spans = []
            best = min(best, (t2 - t1) - (t1 - t0))
        self.enabled, self.spans = enabled, recorded
        return best / calls

    # aggregation ----------------------------------------------------------

    def take_pass(self) -> tuple[Counter, Counter]:
        """Per-layer (calls, self seconds) of the spans recorded since the
        last call; the spans are then dropped."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, t0, t1, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered
        self.spans = []
        return calls, self_s

    def take_counts(self) -> tuple[Counter, dict]:
        counts, maxima = Counter(self.counts), dict(self.maxima)
        self.counts.clear()
        self.maxima.clear()
        return counts, maxima
