"""The three benchmark workloads: seeded job streams, fixed anchors, checks.

A workload hands the worker an endless job stream drawn from a seed, a
short list of anchor jobs that never depend on the seed, ``execute`` (the
only call the worker times) and ``check`` (run after the timer stops, on
the reference arithmetic in ``oracles``, never on the code being timed).

Streams are dealt in blocks of 100 jobs.  Each block holds a fixed count of
every job kind, and sizes are stratified over their range, so the mix a
run measures is the same on every seed and only the concrete inputs and
their order change.  Costs grow steeply with size, so the strata must be
narrow: with blocks of 20, the draw inside the top stratum alone moved the
groups workload's throughput by 20% from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from moonshine import cli, groups, sl2z

import oracles

ROOT = Path(__file__).resolve().parent.parent
BLOCK = 100


@dataclass
class Job:
    kind: str          # "cli", "lib", "reduce", "equiv" or "word"
    payload: object    # argv list, (family, n), point, point pair or PSLElement
    expect: tuple      # what ``check`` needs to know about the input
    tags: tuple        # mix properties, counted into the run's mix record


def run_cli(argv):
    """In-process CLI call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _log_strata(rng, count, lo, hi):
    """``count`` integers in [lo, hi], one from each log-uniform stratum, ascending."""
    span = math.log(hi + 1) - math.log(lo)
    return [min(hi, int(lo * math.exp(span * (i + rng.random()) / count)))
            for i in range(count)]


def _shuffled(rng, items):
    rng.shuffle(items)
    return items


def _deal(rng, kinds):
    """One block: (kind, count) pairs expanded and shuffled."""
    return _shuffled(rng, [k for k, n in kinds for _ in range(n)])


# -- series ------------------------------------------------------------------

def _read_j_table():
    values = {}
    text = (ROOT / "src" / "moonshine" / "data" / "j_coefficients.txt").read_text()
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            n, c = line.split()
            values[int(n)] = int(c)
    return values


def _parse_coeffs(text, as_json, lo):
    """Coefficients of exponents lo, lo+1, ... from a j/delta/eisenstein output."""
    if as_json:
        table = json.loads(text)["coefficients"]
        items = sorted((int(k), v) for k, v in table.items())
    else:
        items = [(int(n), c) for n, c in (line.split() for line in text.splitlines())]
    if [n for n, _ in items] != list(range(lo, lo + len(items))):
        raise ValueError("exponents are not consecutive")
    values = [Fraction(c) for _, c in items]
    return [v.numerator if v.denominator == 1 else v for v in values]


class Series:
    """CLI q-series jobs: j, delta, eisenstein and knz, plus the knz control."""

    ORDER_MAX = 300
    KNZ_MAX = 12
    WEIGHTS = (4, 6, 8, 10, 12, 14, 16)
    TRACE_JOBS = 400

    def __init__(self):
        self.j_head = _read_j_table()
        self.j_head[0] = 744
        self.delta = oracles.delta(self.ORDER_MAX + 1)
        self.eisenstein = {}
        self.longest_j = []
        self.j_digests = []   # (order, digest) of every j output, checked in finish()

    def anchors(self):
        return [self._cli(["j", "--order", "1000", "--normalized"], ("j", 1000, True), "large"),
                self._cli(["knz", "--order", "20"], ("knz", 0), "large"),
                self._cli(["j", "--order", "2000"], ("j", 2000, False), "large"),
                self._cli(["knz", "--order", "24"], ("knz", 0), "large")]

    @staticmethod
    def _cli(argv, expect, *tags):
        return Job("cli", argv, expect, tags)

    def stream(self, rng):
        while True:
            deck = _deal(rng, [("j", 30), ("jn", 15), ("delta", 15), ("eis", 15),
                               ("knz", 20), ("control", 5)])
            json_slots = set(rng.sample(range(BLOCK), BLOCK // 4))
            j_orders = _shuffled(rng, _log_strata(rng, 45, 1, self.ORDER_MAX))
            delta_orders = _shuffled(rng, _log_strata(rng, 15, 2, self.ORDER_MAX))
            eis_orders = _shuffled(rng, _log_strata(rng, 15, 1, self.ORDER_MAX))
            knz_orders = _shuffled(rng, [n - 1 for n in _log_strata(rng, 20, 1, self.KNZ_MAX + 1)])
            for slot, kind in enumerate(deck):
                tags = ["small"]
                if kind in ("j", "jn"):
                    n = j_orders.pop()
                    argv = ["j", "--order", str(n)] + (["--normalized"] if kind == "jn" else [])
                    expect = ("j", n, kind == "jn")
                elif kind == "delta":
                    n = delta_orders.pop()
                    argv, expect = ["delta", "--order", str(n)], ("delta", n)
                elif kind == "eis":
                    n, w = eis_orders.pop(), rng.choice(self.WEIGHTS)
                    argv = ["eisenstein", "--weight", str(w), "--order", str(n)]
                    expect = ("eisenstein", n, w)
                elif kind == "knz":
                    argv, expect = ["knz", "--order", str(knz_orders.pop())], ("knz", 0)
                else:
                    argv = ["knz", "--order", str(rng.randint(1, 6)), "--use-unnormalized-c0"]
                    expect = ("knz", 1)
                    tags.append("control")
                if slot in json_slots:
                    argv.append("--json")
                    tags.append("json")
                yield Job("cli", argv, expect, tuple(tags))

    @staticmethod
    def execute(job):
        return run_cli(job.payload)

    def check(self, job, result):
        rc, out = result
        as_json = "--json" in job.payload
        what = job.expect[0]
        if what == "knz":
            if rc != job.expect[1]:
                return False
            equal = json.loads(out)["equal"] if as_json else out.split("\n")[0] == "equal: true"
            return equal == (rc == 0)
        if rc != 0:
            return False
        if what == "j":
            _, n, normalized = job.expect
            coeffs = _parse_coeffs(out, as_json, -1)
            if len(coeffs) != n + 1:
                return False
            if n >= 1:
                if coeffs[1] != (0 if normalized else 744):
                    return False
                coeffs[1] = 744
            if any(coeffs[i + 1] != self.j_head[i] for i in range(-1, min(n, 6))):
                return False
            if len(coeffs) > len(self.longest_j):
                self.longest_j = coeffs
            self.j_digests.append((n, oracles.digest(coeffs)))
            return True
        if what == "delta":
            n = job.expect[1]
            return _parse_coeffs(out, as_json, 1) == self.delta[1:n]
        n, w = job.expect[1:]
        if w not in self.eisenstein:
            self.eisenstein[w] = oracles.eisenstein(w, self.ORDER_MAX + 1)
        return _parse_coeffs(out, as_json, 0) == self.eisenstein[w][:n]

    def finish(self):
        """Check the longest J against E4^3 = J * Delta and every j output
        against its prefix; returns the number of j jobs that fail."""
        if not oracles.j_identity_holds(self.longest_j):
            return len(self.j_digests)
        return sum(oracles.digest(self.longest_j[:n + 1]) != d for n, d in self.j_digests)


# -- groups ------------------------------------------------------------------

_MAKERS = {"C": groups.cyclic_group, "D": groups.dihedral_group,
           "A": groups.alternating_group, "S": groups.symmetric_group}


def _is_cyclic(family, n):
    return family == "C" or (family == "A" and n <= 3) or (family == "S" and n <= 2)


class Groups:
    """Group jobs: ``group`` CLI calls and composition-series library sweeps."""

    C_MAX = 200      # the criterion-08 families: C1..C200, D3..D100,
    D_MAX = 100      # and A_n, S_n of order at most 200 (n <= 5)
    SMALL_MAX = 5
    ACTIONS = ("classes", "series", "factors")
    TRACE_JOBS = 200

    def anchors(self):
        return [self._cli("C", 1000, "factors", "large"), self._cli("A", 6, "factors", "large")]

    @staticmethod
    def _cli(family, n, action, *tags):
        tags = ("cli", "cyclic" if _is_cyclic(family, n) else "noncyclic") + tags
        return Job("cli", ["group", "--name", f"{family}{n}", "--action", action],
                   (family, n, action), tags)

    def stream(self, rng):
        while True:
            jobs = []
            for mode, family, count in (("cli", "C", 20), ("cli", "D", 15), ("cli", "A", 5),
                                        ("cli", "S", 10), ("lib", "C", 20), ("lib", "D", 20),
                                        ("lib", "A", 5), ("lib", "S", 5)):
                if family == "C":
                    sizes = _log_strata(rng, count, 1, self.C_MAX)
                elif family == "D":
                    sizes = _log_strata(rng, count, 3, self.D_MAX)
                else:
                    sizes = [1 + i % self.SMALL_MAX for i in range(count)]
                # Actions cycle along the sorted sizes, so every size range
                # gets each action and no seed draws only costly ones.
                offset = rng.randrange(len(self.ACTIONS))
                for i, n in enumerate(sizes):
                    if mode == "cli":
                        action = self.ACTIONS[(i + offset) % len(self.ACTIONS)]
                        jobs.append(self._cli(family, n, action, "small"))
                    else:
                        kind = "cyclic" if _is_cyclic(family, n) else "noncyclic"
                        jobs.append(Job("lib", (family, n), (family, n, "lib"),
                                        ("lib", kind, "small")))
            yield from _shuffled(rng, jobs)

    @staticmethod
    def execute(job):
        if job.kind == "cli":
            return run_cli(job.payload)
        family, n = job.payload
        g = _MAKERS[family](n)
        chains = g.all_composition_series()
        return len(chains), {g.factor_descriptors(chain) for chain in chains}

    def check(self, job, result):
        family, n, action = job.expect
        order = oracles.group_order(family, n)
        if action == "lib":
            count, multisets = result
            return (count >= 1 and len(multisets) == 1
                    and oracles.factors_ok(family, n, [d.order for d in next(iter(multisets))]))
        rc, out = result
        if rc != 0:
            return False
        lines = out.splitlines()
        if action == "classes":
            sizes = [int(line.split()[0]) for line in lines]
            ok = sum(sizes) == order and all(order % s == 0 for s in sizes)
            return ok and (family != "C" or sizes == [1] * n)
        if action == "series":
            orders = [int(v) for v in lines[0].split()[1:]]
            steps = [b // a for a, b in zip(orders, orders[1:])]
            ok = (orders[0] == 1 and orders[-1] == order
                  and all(b % a == 0 and b > a for a, b in zip(orders, orders[1:])))
            return ok and (family != "C" or sorted(steps) == oracles.prime_factors(n))
        return oracles.factors_ok(family, n, [int(v) for v in out.split()])

    def finish(self):
        return 0


# -- sl2z --------------------------------------------------------------------

def _point(rng, deep):
    """Shallow: rational parts bounded by 10^6.  Deep: bounds 10^20..10^30
    and an imaginary part near 10^-e, so reduction needs dozens of moves."""
    if not deep:
        b = 10**6
        return (Fraction(rng.randint(-b, b), rng.randint(1, b)),
                Fraction(rng.randint(1, b), rng.randint(1, b)))
    b = 10 ** rng.randint(20, 30)
    return (Fraction(rng.randint(-b, b), rng.randint(1, b)),
            Fraction(rng.randint(1, b), rng.randint(1, b) * b))


def _matrix(rng, deep):
    """Product of random (T^k S) steps: entries near 10^3 shallow, 10^25 deep."""
    steps, kmax = (rng.randint(12, 18), 99) if deep else (rng.randint(2, 5), 9)
    m = (1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(2, kmax) * rng.choice((-1, 1))
        m = oracles.mat_mul(m, (k, -1, 1, 0))
    return m


class SL2Z:
    """Direct library calls: reduce, equivalence tests and word decomposition."""

    TRACE_JOBS = 10000

    def anchors(self):
        rng = random.Random("sl2z-anchors")
        return [self._job(rng, kind, True, "large")
                for kind in ("reduce", "equiv", "equiv-built", "word") * 2]

    def stream(self, rng):
        while True:
            deck = _deal(rng, [("reduce", 40), ("equiv", 15), ("equiv-built", 15), ("word", 30)])
            deep = set(rng.sample(range(BLOCK), BLOCK // 10))
            for slot, kind in enumerate(deck):
                yield self._job(rng, kind, slot in deep, "small")

    @staticmethod
    def _job(rng, kind, deep, size):
        tags = ("deep" if deep else "shallow", size)
        if kind == "word":
            m = _matrix(rng, deep)
            return Job("word", sl2z.PSLElement(sl2z.Mat2Z(*m)), (m,), tags)
        p1 = _point(rng, deep)
        if kind == "reduce":
            return Job("reduce", sl2z.UpperHalfPoint(*p1), (p1,), tags)
        p2 = oracles.moebius(_matrix(rng, False), p1) if kind == "equiv-built" else _point(rng, deep)
        pair = (sl2z.UpperHalfPoint(*p1), sl2z.UpperHalfPoint(*p2))
        return Job("equiv", pair, (p1, p2), tags + (kind,))

    @staticmethod
    def execute(job):
        if job.kind == "reduce":
            return sl2z.reduce_to_fundamental(job.payload)
        if job.kind == "equiv":
            return sl2z.tau_equivalent(*job.payload)
        word = sl2z.word_decompose(job.payload)
        return word, sl2z.evaluate_word(word)

    def check(self, job, result):
        if job.kind == "reduce":
            star, m, word = result
            star = (star.x, star.y)
            entries = m.rep.entries()
            return (oracles.in_domain(star) and oracles.moebius(entries, job.expect[0]) == star
                    and oracles.same_psl(oracles.word_matrix(word), entries))
        if job.kind == "equiv":
            p1, p2 = job.expect
            if oracles.canonical(p1) != oracles.canonical(p2):
                return result is None
            return result is not None and oracles.moebius(result.rep.entries(), p1) == p2
        word, value = result
        m = job.expect[0]
        return (oracles.same_psl(oracles.word_matrix(word), m)
                and oracles.same_psl(value.rep.entries(), m))

    def finish(self):
        return 0


WORKLOADS = {"series": Series, "groups": Groups, "sl2z": SL2Z}
