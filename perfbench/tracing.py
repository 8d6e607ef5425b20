"""In-memory spans around the public functions of each moonshine layer.

:class:`Tracer` patches the functions in ``TARGETS`` (module functions,
methods, a classmethod and a property getter) with wrappers that record
``[name, start, end, parent, job]``, and restores them on exit.  Hot
per-element methods such as ``Perm.__mul__`` or ``Mat2Z.__mul__`` are left
alone, since wrapping them would time the tracer instead of the program.

Counters run after a span has ended, inside a ``trace.count`` span of their
own, so no program span's self time includes counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction

from moonshine import cli, groups, modular, monster, sl2z
from moonshine.qseries import BiLaurentSeries, LaurentSeries

clock = time.perf_counter


def _bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _count_mul(counts, args, result):
    a, b = args
    if isinstance(b, LaurentSeries):
        la, lb = len(a.coeffs), len(b.coeffs)
        width = result.trunc - a.valuation - b.valuation
        ops = sum(min(lb, width - i) for i in range(min(la, width)))
    else:
        ops = len(a.coeffs)
    counts["qseries.mul.ops_computed"] += ops
    counts["qseries.mul.width_max"] = max(counts["qseries.mul.width_max"],
                                          result.trunc - result.valuation)
    counts["qseries.mul.coeff_bits_max"] = max(counts["qseries.mul.coeff_bits_max"],
                                               max(map(_bits, result.coeffs), default=0))


def _count_bimul(counts, args, result):
    """Pairs the product loop tries, and how many land inside the rectangle.

    The kept count comes from a prefix-sum grid of the second operand's
    exponents, so counting costs the rectangle's area, not the pair count.
    """
    a, b = args
    if not isinstance(b, BiLaurentSeries):
        counts["qseries.bimul.pairs"] += len(a.terms)
        counts["qseries.bimul.kept"] += len(a.terms)
        return
    pmin, pmax, qmin, qmax = a.rect
    w, h = pmax - pmin + 1, qmax - qmin + 1
    grid = [[0] * (h + 1) for _ in range(w + 1)]
    for m, n in b.terms:
        grid[m - pmin + 1][n - qmin + 1] += 1
    for i in range(1, w + 1):
        row, above = grid[i], grid[i - 1]
        for j in range(1, h + 1):
            row[j] += row[j - 1] + above[j] - above[j - 1]
    kept = 0
    for m1, n1 in a.terms:
        i0, i1 = max(pmin - m1, pmin) - pmin, min(pmax - m1, pmax) - pmin + 1
        j0, j1 = max(qmin - n1, qmin) - qmin, min(qmax - n1, qmax) - qmin + 1
        if i0 < i1 and j0 < j1:
            kept += grid[i1][j1] - grid[i0][j1] - grid[i1][j0] + grid[i0][j0]
    counts["qseries.bimul.pairs"] += len(a.terms) * len(b.terms)
    counts["qseries.bimul.kept"] += kept


def _count_reduce(counts, args, result):
    star, m, word = result
    tau = args[0]
    counts["sl2z.reduce.moves"] += len(word)
    values = (tau.x.numerator, tau.x.denominator, tau.y.numerator, tau.y.denominator,
              star.x.numerator, star.x.denominator, star.y.numerator, star.y.denominator,
              *m.rep.entries())
    counts["sl2z.reduce.bits_max"] = max(counts["sl2z.reduce.bits_max"],
                                         max(abs(v).bit_length() for v in values))


def _count_word(counts, args, result):
    counts["sl2z.word.moves"] += len(result)


def _count_elements(counts, args, result):
    counts["groups.elements.count"] += len(result)


def _count_chains(counts, args, result):
    counts["groups.all_series.chains"] += len(result)


# (owner, attribute, span name, counter); owner is a module or a class.
TARGETS = [
    (cli, "main", "cli.main", None),
    (modular, "j_expansion", "modular.j_expansion", None),
    (modular, "j_normalized", "modular.j_normalized", None),
    (modular, "eisenstein_normalized", "modular.eisenstein", None),
    (modular, "discriminant", "modular.discriminant", None),
    (LaurentSeries, "__mul__", "qseries.mul", _count_mul),
    (LaurentSeries, "inverse", "qseries.inverse", None),
    (LaurentSeries, "__pow__", "qseries.pow", None),
    (BiLaurentSeries, "__mul__", "qseries.bimul", _count_bimul),
    (monster, "knz_verify", "monster.knz", None),
    (monster.CoeffTable, "from_expansion", "monster.coeff_table", None),
    (groups.PermGroup, "elements", "groups.elements", _count_elements),
    (groups.PermGroup, "conjugacy_classes", "groups.classes", None),
    (groups.PermGroup, "composition_series", "groups.series", None),
    (groups.PermGroup, "jordan_holder_factors", "groups.jh", None),
    (groups.PermGroup, "all_composition_series", "groups.all_series", _count_chains),
    (groups.PermGroup, "factor_descriptors", "groups.factors", None),
    (sl2z, "reduce_to_fundamental", "sl2z.reduce", _count_reduce),
    (sl2z, "tau_equivalent", "sl2z.equiv", None),
    (sl2z, "word_decompose", "sl2z.word", _count_word),
    (sl2z, "evaluate_word", "sl2z.evaluate", None),
]

# Calls that are only counted: each binomial factor of the product identity
# is too small to span, and its cost belongs to monster.knz's self time.
COUNTED = [(monster, "_binomial_factor", "monster.knz.factors")]


class Tracer:
    """Records spans while installed (``with Tracer() as t: ...``)."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, job id]
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.errors = Counter()
        self._restore = []

    def wrap(self, name, fn, count=None):
        spans, stack, errors = self.spans, self.stack, self.errors
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                errors[layer] += 1
                raise
            span[2] = clock()
            stack.pop()
            if count is not None:
                start = clock()
                count(self.counts, args, result)
                spans.append(["trace.count", start, clock(), parent, self.job])
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                self._patch(owner, attr, property(self._cached_getter(name, raw.fget, count)))
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
            elif isinstance(owner, type):
                new = self.wrap(name, raw, count)
                for alias, value in list(owner.__dict__.items()):
                    if value is raw:          # __rmul__ = __mul__
                        self._patch(owner, alias, new)
            else:
                new = self.wrap(name, raw, count)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("moonshine")
                            and mod.__dict__.get(attr) is raw):
                        self._patch(mod, attr, new)
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, self._counted(key, owner.__dict__[attr]))
        return self

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _cached_getter(self, name, fget, count):
        """Span only the call that computes the cached value (``_elements``)."""
        traced = self.wrap(name, fget, count)

        def getter(obj):
            return fget(obj) if obj._elements is not None else traced(obj)
        return getter

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent, job), c in zip(self.spans, child)]

    def rollup(self):
        """Calls and summed self time per span name."""
        calls, self_s = Counter(), Counter()
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        return calls, self_s

    def write_jsonl(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer, output_bytes, overhead_ratio):
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    calls, self_s = tracer.rollup()
    c = tracer.counts
    pairs = c["qseries.bimul.pairs"]
    out = {
        "cli.calls": (calls["cli.main"], "count"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "modular.j_expansion.calls": (calls["modular.j_expansion"], "count"),
        "modular.j_expansion.self_s": (self_s["modular.j_expansion"], "s"),
        "modular.eisenstein.self_s": (self_s["modular.eisenstein"], "s"),
        "modular.discriminant.self_s": (self_s["modular.discriminant"], "s"),
        "qseries.mul.calls": (calls["qseries.mul"], "count"),
        "qseries.mul.self_s": (self_s["qseries.mul"], "s"),
        "qseries.mul.ops_computed": (c["qseries.mul.ops_computed"], "count"),
        "qseries.mul.width_max": (c["qseries.mul.width_max"], "count"),
        "qseries.mul.coeff_bits_max": (c["qseries.mul.coeff_bits_max"], "bits"),
        "qseries.inverse.calls": (calls["qseries.inverse"], "count"),
        "qseries.inverse.self_s": (self_s["qseries.inverse"], "s"),
        "qseries.pow.calls": (calls["qseries.pow"], "count"),
        "qseries.bimul.calls": (calls["qseries.bimul"], "count"),
        "qseries.bimul.self_s": (self_s["qseries.bimul"], "s"),
        "qseries.bimul.pairs": (pairs, "count"),
        "qseries.bimul.kept_ratio": (c["qseries.bimul.kept"] / pairs if pairs else 0.0, "ratio"),
        "monster.knz.calls": (calls["monster.knz"], "count"),
        "monster.knz.self_s": (self_s["monster.knz"], "s"),
        "monster.knz.factors": (c["monster.knz.factors"], "count"),
        "monster.coeff_table.self_s": (self_s["monster.coeff_table"], "s"),
        "groups.elements.self_s": (self_s["groups.elements"], "s"),
        "groups.elements.count": (c["groups.elements.count"], "count"),
        "groups.classes.self_s": (self_s["groups.classes"], "s"),
        "groups.series.self_s": (self_s["groups.series"], "s"),
        "groups.jh.self_s": (self_s["groups.jh"], "s"),
        "groups.all_series.self_s": (self_s["groups.all_series"], "s"),
        "groups.all_series.chains": (c["groups.all_series.chains"], "count"),
        "groups.factors.self_s": (self_s["groups.factors"], "s"),
        "sl2z.reduce.calls": (calls["sl2z.reduce"], "count"),
        "sl2z.reduce.self_s": (self_s["sl2z.reduce"], "s"),
        "sl2z.reduce.moves": (c["sl2z.reduce.moves"], "count"),
        "sl2z.reduce.bits_max": (c["sl2z.reduce.bits_max"], "bits"),
        "sl2z.equiv.self_s": (self_s["sl2z.equiv"], "s"),
        "sl2z.word.self_s": (self_s["sl2z.word"], "s"),
        "sl2z.word.moves": (c["sl2z.word.moves"], "count"),
        "sl2z.evaluate.self_s": (self_s["sl2z.evaluate"], "s"),
    }
    for layer in ("cli", "modular", "qseries", "monster", "groups", "sl2z"):
        out[f"{layer}.errors"] = (tracer.errors[layer], "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
