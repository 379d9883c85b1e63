"""In-memory span tracing around the public functions of each contragenic layer.

The tracer replaces every module-level binding of a traced function, in every
``contragenic`` module, with a wrapper that records a span
``(id, name, start, end, parent, op, attrs)``.  Because ``from .x import f``
copies the binding, each calling module sees the wrapper exactly where it
would have seen the original.  Nothing inside the package is edited.

Counts derived from arguments or results (term pairs, harmonicity, zero
results, output bytes) are computed outside the traced call and recorded as
``bench.count`` child spans of the caller, so they never inflate the self
or inclusive time of any layer.  ``per_layer_metrics`` turns a span list
plus the lru cache deltas into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

COUNT_SPAN = "bench.count"

#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "exact.scalar_pairing.calls": "count",
    "exact.scalar_pairing.self_s": "s",
    "exact.scalar_pairing.term_pairs": "count",
    "exact.scalar_pairing.useful_ratio": "ratio",
    "exact.ball_monomial_integral.hit_ratio": "ratio",
    "exact.max_coeff_bits": "bits",
    "fields.inner_product.calls": "count",
    "fields.inner_product.self_s": "s",
    "fields.inner_product.zero_ratio": "ratio",
    "fields.inner_product.fischer_eligible_ratio": "ratio",
    "harmonic.degree_basis.s": "s",
    "harmonic.solid_harmonic.s": "s",
    "monogenic.monogenic_basis.s": "s",
    "spaces.ambigenic_basis.s": "s",
    "spaces.contragenic_basis.s": "s",
    "spaces.vec_basis.s": "s",
    "spaces.gram_matrix.s": "s",
    "spaces.gram_matrix.entries": "count",
    "spaces.matrix_rank.s": "s",
    "checks.gram_suite.s": "s",
    "checks.bergman_suite.s": "s",
    "bergman.kernel.s": "s",
    "bergman.kernel.hit_ratio": "ratio",
    "bergman.project.calls": "count",
    "bergman.project.self_s": "s",
    "decompose.decompose.self_s": "s",
    "decompose.norm_report.self_s": "s",
    "fieldio.parse.s": "s",
    "fieldio.render.s": "s",
    "fieldio.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
}

#: span groups reported as one inclusive ``.s`` metric
PARSE_SPANS = ("fieldio.read_field_document", "fieldio.FieldDocument.from_json",
               "fieldio.FieldDocument.to_field")
RENDER_SPANS = ("fieldio.FieldDocument.to_json", "fieldio.ReportDocument.render")
SOLID_SPANS = ("harmonic.solid_harmonic", "harmonic.uv_term")


# -- argument and result counters ----------------------------------------------

def _parity_counts(poly) -> dict:
    counts: dict = {}
    for a, b, c in poly.terms:
        key = (a & 1, b & 1, c & 1)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _pairing_counts(p, q) -> dict:
    """Term pairs of a moment pairing, and how many have all-even exponents.

    A pair integrates to a nonzero value only when the exponent sums are all
    even, i.e. when both monomials share one parity class per variable.
    """
    qc = _parity_counts(q)
    useful = sum(n * qc.get(key, 0) for key, n in _parity_counts(p).items())
    return {"term_pairs": len(p.terms) * len(q.terms), "useful_pairs": useful}


def _fischer_degree(field):
    """The common degree if every nonzero component is harmonic and homogeneous
    of that degree; -1 for the zero field; None otherwise."""
    degree = -1
    for poly in field.components():
        if not poly.terms:
            continue
        if not poly.is_homogeneous() or not poly.is_harmonic():
            return None
        d = poly.degree()
        if degree not in (-1, d):
            return None
        degree = d
    return degree


class _FischerCounter:
    """Counts pairings the Fischer identity could serve.

    Degrees are memoized by object identity, holding a reference to each
    field so that its id stays unique: basis fields and decomposition parts
    are paired many times, and their Laplacians dominate the counting cost.
    """

    def __init__(self):
        self._memo: dict = {}

    def degree(self, field):
        hit = self._memo.get(id(field))
        if hit is None:
            hit = self._memo[id(field)] = (field, _fischer_degree(field))
        return hit[1]

    def __call__(self, f, g) -> dict:
        df = self.degree(f)
        dg = self.degree(g) if df is not None else None
        eligible = df is not None and dg is not None and (df == dg or -1 in (df, dg))
        return {"fischer_eligible": int(eligible)}


def _inner_product_result(result, *_args) -> dict:
    return {"zero": int(result.is_zero())}


def _gram_counts(fields) -> dict:
    n = len(fields)
    return {"entries": n * (n + 1) // 2}


def _gram_bits(result, *_args) -> dict:
    return {"max_bits": coeff_bits(entry.q for row in result for entry in row)}


def _bytes_out(result, *_args) -> dict:
    return {"bytes_out": len(result.encode("utf-8"))}


# -- the tracer -----------------------------------------------------------------

class Tracer:
    """Collects spans from wrapped package functions while enabled."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []
        self._caches: dict = {}
        self._cache_start: dict = {}
        self.cache_delta: dict = {"ball": (0, 0), "kernel": (0, 0)}

    # recording
    def _record(self, name, start, end, parent, attrs=None) -> None:
        self.spans.append((len(self.spans), name, start, end, parent, self.op, attrs))

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            attrs = None
            if before is not None:
                c0 = clock()
                attrs = before(*args, **kwargs)
                tracer._record(COUNT_SPAN, c0, clock(), parent)
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; children follow it
            tracer._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op, attrs)
            if after is not None:
                c0 = clock()
                extra = after(result, *args, **kwargs)
                attrs = dict(attrs or {}, **extra)
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op, attrs)
                tracer._record(COUNT_SPAN, c0, clock(), parent)
            return result

        return wrapper

    # installation
    def install(self) -> None:
        """Wrap the traced functions wherever a contragenic module binds them."""
        # the package re-exports functions named like some modules (decompose)
        (bergman, checks, cli, decompose, exact, fieldio, fields, harmonic,
         monogenic, spaces) = (
            importlib.import_module(f"contragenic.{name}")
            for name in ("bergman", "checks", "cli", "decompose", "exact", "fieldio",
                         "fields", "harmonic", "monogenic", "spaces"))
        targets = [
            (exact, "scalar_pairing", "exact.scalar_pairing", _pairing_counts, None),
            (fields, "inner_product", "fields.inner_product",
             _FischerCounter(), _inner_product_result),
            (harmonic, "degree_basis", "harmonic.degree_basis", None, None),
            (harmonic, "solid_harmonic", "harmonic.solid_harmonic", None, None),
            (harmonic, "uv_term", "harmonic.uv_term", None, None),
            (monogenic, "monogenic_basis", "monogenic.monogenic_basis", None, None),
            (spaces, "ambigenic_basis", "spaces.ambigenic_basis", None, None),
            (spaces, "contragenic_basis", "spaces.contragenic_basis", None, None),
            (spaces, "vec_basis", "spaces.vec_basis", None, None),
            (spaces, "gram_matrix", "spaces.gram_matrix", _gram_counts, _gram_bits),
            (spaces, "matrix_rank", "spaces.matrix_rank", None, None),
            (checks, "gram_suite", "checks.gram_suite", None, None),
            (checks, "bergman_suite", "checks.bergman_suite", None, None),
            (bergman, "kernel", "bergman.kernel", None, None),
            (bergman, "project", "bergman.project", None, None),
            (decompose, "decompose", "decompose.decompose", None, None),
            (decompose, "norm_report", "decompose.norm_report", None, None),
            (fieldio, "read_field_document", "fieldio.read_field_document", None, None),
            (cli, "main", "cli.main", None, None),
        ]
        self._caches = {"ball": exact.ball_monomial_integral, "kernel": bergman.kernel}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "contragenic" or name.startswith("contragenic.")]
        for module, attr, span, before, after in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
            for key, value in list(checks.SUITES.items()):
                if value is original:
                    self._patches.append((checks.SUITES, key, original))
                    checks.SUITES[key] = wrapper

        doc = fieldio.FieldDocument
        methods = [
            (doc, "from_json", "fieldio.FieldDocument.from_json", None, staticmethod),
            (doc, "to_field", "fieldio.FieldDocument.to_field", None, None),
            (doc, "to_json", "fieldio.FieldDocument.to_json", _bytes_out, None),
            (fieldio.ReportDocument, "render", "fieldio.ReportDocument.render",
             _bytes_out, None),
        ]
        for cls, attr, span, after, kind in methods:
            raw = cls.__dict__[attr]
            original = getattr(cls, attr)
            wrapper = self._wrap(span, original, None, after)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def start(self) -> None:
        self._cache_start = {k: c.cache_info() for k, c in self._caches.items()}
        self.enabled = True

    def stop(self) -> None:
        """Pause recording; lru cache deltas accumulate over started intervals."""
        self.enabled = False
        for key, cache in self._caches.items():
            info, base = cache.cache_info(), self._cache_start[key]
            hits, misses = self.cache_delta[key]
            self.cache_delta[key] = (hits + info.hits - base.hits,
                                     misses + info.misses - base.misses)

    def dump(self) -> dict:
        """The spans and cache deltas as plain JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "cache_delta": {k: list(v) for k, v in self.cache_delta.items()},
        }


# -- deriving the per-layer metrics ------------------------------------------

def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(data: dict, import_s: float, max_coeff_bits: int) -> dict:
    """Per-layer metrics from dumped spans.

    Self time is a span's duration minus its children's; inclusive time is
    its duration minus the ``bench.count`` spans anywhere below it.
    """
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    count_time = [0.0] * len(spans)
    # a parent's id is always lower than its children's, so a reverse pass
    # has every span's count time complete before it is added to its parent
    for sid, name, start, end, parent, _op, _attrs in reversed(spans):
        if parent is not None:
            child_time[parent] += end - start
            own = end - start if name == COUNT_SPAN else 0.0
            count_time[parent] += count_time[sid] + own

    def ancestors(sid):
        parent = spans[sid][4]
        while parent is not None:
            yield spans[parent][1]
            parent = spans[parent][4]

    calls: dict = {}
    self_s: dict = {}
    attrs_sum: dict = {}
    for sid, name, start, end, _parent, _op, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]
        for key, value in (attrs or {}).items():
            old = attrs_sum.get((name, key), 0)
            attrs_sum[(name, key)] = max(old, value) if key == "max_bits" else old + value

    def inclusive(names) -> float:
        """Time inside the named spans, counting nested ones only once."""
        total = 0.0
        for sid, name, start, end, _parent, _op, _attrs in spans:
            if name in names and not any(a in names for a in ancestors(sid)):
                total += end - start - count_time[sid]
        return total

    def attr(name, key):
        return attrs_sum.get((name, key), 0)

    sp, ip = "exact.scalar_pairing", "fields.inner_product"
    ball_hits, ball_misses = data["cache_delta"]["ball"]
    k_hits, k_misses = data["cache_delta"]["kernel"]
    values = {
        "exact.scalar_pairing.calls": calls.get(sp, 0),
        "exact.scalar_pairing.self_s": self_s.get(sp, 0.0),
        "exact.scalar_pairing.term_pairs": attr(sp, "term_pairs"),
        "exact.scalar_pairing.useful_ratio": _ratio(attr(sp, "useful_pairs"),
                                                    attr(sp, "term_pairs")),
        "exact.ball_monomial_integral.hit_ratio": _ratio(ball_hits, ball_hits + ball_misses),
        "exact.max_coeff_bits": max(max_coeff_bits, attr("spaces.gram_matrix", "max_bits")),
        "fields.inner_product.calls": calls.get(ip, 0),
        "fields.inner_product.self_s": self_s.get(ip, 0.0),
        "fields.inner_product.zero_ratio": _ratio(attr(ip, "zero"), calls.get(ip, 0)),
        "fields.inner_product.fischer_eligible_ratio": _ratio(
            attr(ip, "fischer_eligible"), calls.get(ip, 0)),
        "spaces.gram_matrix.entries": attr("spaces.gram_matrix", "entries"),
        "bergman.kernel.hit_ratio": _ratio(k_hits, k_hits + k_misses),
        "bergman.project.calls": calls.get("bergman.project", 0),
        "bergman.project.self_s": self_s.get("bergman.project", 0.0),
        "decompose.decompose.self_s": self_s.get("decompose.decompose", 0.0),
        "decompose.norm_report.self_s": self_s.get("decompose.norm_report", 0.0),
        "harmonic.solid_harmonic.s": inclusive(SOLID_SPANS),
        "fieldio.parse.s": inclusive(PARSE_SPANS),
        "fieldio.render.s": inclusive(RENDER_SPANS),
        "fieldio.bytes_out": sum(attr(n, "bytes_out") for n in RENDER_SPANS),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.import_s": import_s,
    }
    for name in ("harmonic.degree_basis", "monogenic.monogenic_basis",
                 "spaces.ambigenic_basis", "spaces.contragenic_basis",
                 "spaces.vec_basis", "spaces.gram_matrix", "spaces.matrix_rank",
                 "checks.gram_suite", "checks.bergman_suite", "bergman.kernel"):
        values[name + ".s"] = inclusive((name,))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among exact rationals."""
    best = 0
    for value in values:
        value = Fraction(value)
        best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
    return best
