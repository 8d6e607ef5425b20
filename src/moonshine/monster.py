"""Moonshine numerology: embedded datasets, the McKay/Thompson decomposition
identities, bounded decomposition search, and the truncated two-variable
product identity p^-1 prod (1 - p^m q^n)^c(mn) = J(p) - J(q).

Every factor but (1 - p/q) has m >= 1 and n >= 0, and their product
F = sum F_M(q) p^M comes row by row from Newton's identity in p
(:func:`_knz_rows`): the logarithmic derivative turns the exponents c(mn)
into integer rows H_M(q), the unnormalised Hecke images of J (Borcherds,
Invent. Math. 109, 1992).  The one factor with a negative q-exponent is
multiplied in at the end.

The product identity only holds with the normalized coefficients (c(0) = 0):
a constant term of 744 would smuggle factors (1 - p^m)^744 into the left side,
and the verifier exposes exactly that as a negative control.
"""

from __future__ import annotations

import math
from enum import Enum
from importlib import resources

from ._errors import DomainError, MoonshineError
from ._record import Record
from .modular import BudgetExceeded, j_normalized
from .qseries import BiLaurentSeries


class InsufficientData(MoonshineError, ValueError):
    """The embedded or supplied datasets are too short for the request."""


class InsufficientCoefficients(MoonshineError, ValueError):
    """The coefficient table does not reach the order the check needs."""


class SearchSpaceTooLarge(MoonshineError, RuntimeError):
    """The bounded decomposition search exceeded its node budget."""


class DataFormatError(MoonshineError, ValueError):
    """A coefficient or dimension table is malformed; a table read from a
    file is named in the message, with the line where one applies."""


# knz_verify(order) runs Newton's identity over order + 2 rows of order + 2
# integer coefficients, about order^4 / 8 big-integer multiply-adds, and
# needs J to (order + 1)^2 + 1 coefficients.  At the limit knz_verify(40)
# took 0.31-0.36 s, 0.17-0.19 s of it building that J table (2-core Xeon
# VM, CPython 3.11.7).
KNZ_ORDER_LIMIT = 40

# Bytes read from an irrep-dimension file.  The monster's 194 irreducible
# dimensions have at most 27 digits each, a few kilobytes as a table, so a
# longer file is refused after this many bytes instead of being read whole.
IRREPS_FILE_LIMIT = 2 ** 20


def _read_table(data, name, first):
    """The values of the UTF-8 ``index value`` lines in the bytes ``data``
    of the file ``name``, whose indices must run first, first + 1, ... in
    order.  Blank lines and ``#`` comments are skipped."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{name}, line {line}: byte {data[exc.start]:#04x} "
                              f"is not UTF-8 text") from None
    values = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            index, value = map(int, line.split())
        except ValueError:
            raise DataFormatError(f"{name}, line {number}: expected two integers "
                                  f"'index value'") from None
        if index != first + len(values):
            raise DataFormatError(f"{name}, line {number}: index {index} where "
                                  f"{first + len(values)} is due")
        values.append(value)
    return values


def _resource_table(name, first):
    return _read_table(resources.files("moonshine.data").joinpath(name).read_bytes(),
                       name, first)


class CoeffTable(Record):
    """Exact coefficients c(n) for n = -1 .. max_index, with provenance."""

    __slots__ = ("values", "provenance", "normalized")

    def __init__(self, values: dict, provenance: str, normalized: bool = True):
        for n, v in values.items():
            if type(v) is not int:
                raise DataFormatError(f"c({n}) = {v!r} is not an int")
        if set(values) != set(range(-1, len(values) - 1)):
            raise DataFormatError("coefficient table must cover a contiguous range from -1")
        if values.get(-1) != 1:
            raise DataFormatError("c(-1) must be 1")
        if normalized and values.get(0, 0) != 0:
            raise DataFormatError("normalized table must have c(0) = 0")
        super().__init__(values, provenance, normalized)

    @classmethod
    def from_resource(cls) -> "CoeffTable":
        return cls(dict(enumerate(_resource_table("j_coefficients.txt", -1), -1)), "embedded")

    @classmethod
    def from_expansion(cls, order: int) -> "CoeffTable":
        """Coefficients computed live by :func:`j_normalized`."""
        series = j_normalized(order).series
        return cls({n: series.coefficient(n) for n in range(-1, order)}, "computed")

    @property
    def max_index(self) -> int:
        return len(self.values) - 2

    def has(self, n: int) -> bool:
        return n in self.values

    def c(self, n: int) -> int:
        """c(n), with the convention c(n) = 0 for n < -1."""
        if n < -1:
            return 0
        if n not in self.values:
            raise InsufficientCoefficients(f"c({n}) is beyond the table (max {self.max_index})")
        return self.values[n]

    def with_value(self, n: int, value: int) -> "CoeffTable":
        """A perturbed copy (for negative controls), normalized when its c(0) is 0."""
        values = dict(self.values)
        values[n] = value
        return CoeffTable(values, f"{self.provenance}, c({n}) overridden",
                          values.get(0, 0) == 0)


class IrrepDims(Record):
    """Leading monster irreducible dimensions r_1 <= r_2 <= ... (1-based)."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple):
        if not dims:
            raise DataFormatError("no dimensions")
        for i, r in enumerate(dims, 1):
            if type(r) is not int:
                raise DataFormatError(f"r_{i} = {r!r} is not an int")
        if dims[0] != 1:
            raise DataFormatError(f"r_1 must be 1, not {dims[0]}")
        for i, (a, b) in enumerate(zip(dims, dims[1:]), 2):
            if a >= b:
                raise DataFormatError(f"dimensions must increase, but r_{i} = {b} <= r_{i - 1}")
        super().__init__(dims)

    @classmethod
    def from_resource(cls) -> "IrrepDims":
        return cls(tuple(_resource_table("monster_irrep_dims.txt", 1)))

    @classmethod
    def from_file(cls, path) -> "IrrepDims":
        """Dimensions from a file of ``index value`` lines indexed 1, 2, ...;
        any fault, or a file longer than ``IRREPS_FILE_LIMIT`` bytes, raises
        DataFormatError naming the file."""
        with open(path, "rb") as fh:
            data = fh.read(IRREPS_FILE_LIMIT + 1)
        if len(data) > IRREPS_FILE_LIMIT:
            raise DataFormatError(f"{path}: longer than IRREPS_FILE_LIMIT = "
                                  f"{IRREPS_FILE_LIMIT} bytes")
        dims = tuple(_read_table(data, path, 1))
        try:
            return cls(dims)
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None

    @property
    def count(self) -> int:
        return len(self.dims)

    def r(self, i: int) -> int:
        if not 1 <= i <= len(self.dims):
            raise InsufficientData(f"r_{i} is not available (have {len(self.dims)} entries)")
        return self.dims[i - 1]

    def extended(self, *extra: int) -> "IrrepDims":
        return IrrepDims(self.dims + tuple(extra))


class Decomposition(Record):
    """Multiplicities (m_1, ..., m_k) with sum m_i * r_i equal to ``total``."""

    __slots__ = ("multiplicities", "total")


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_CONFIGURED = "not-configured"


class IdentityCheck(Record):
    __slots__ = ("label", "q_exponent", "coefficient", "decomposition", "status")


# The five classical decomposition identities, as multiplicity vectors over
# r_1, r_2, ...; the n-th identity targets the coefficient of q^(n-1).  The
# last two are gated on r_6, r_7 being configured (they are not shipped).
THOMPSON_IDENTITIES = (
    ("c(2)", 1, (1, 1)),
    ("c(3)", 2, (1, 1, 1)),
    ("c(4)", 3, (2, 2, 1, 1)),
    ("c(5)", 4, (3, 3, 1, 2, 1)),
    ("c(6)", 5, (4, 5, 3, 2, 1, 1, 1)),
)
_GATED_ON_FULL_HEAD = ("c(5)", "c(6)")


def mckay_identity_check(coeffs: CoeffTable, dims: IrrepDims):
    """Evaluate the five decomposition identities exactly.

    Returns one :class:`IdentityCheck` per identity.  The c(5) and c(6)
    checks report NOT_CONFIGURED unless at least seven dimensions are
    configured; they are never silently passed.
    """
    if dims.count < 5:
        raise InsufficientData("need at least the first five irreducible dimensions")
    results = []
    for label, n, mults in THOMPSON_IDENTITIES:
        gated = label in _GATED_ON_FULL_HEAD and dims.count < 7
        if gated or len(mults) > dims.count:
            results.append(IdentityCheck(label, n, None, None, CheckStatus.NOT_CONFIGURED))
            continue
        if not coeffs.has(n):
            raise InsufficientData(f"coefficient table too short for {label}")
        expected = coeffs.c(n)
        actual = sum(m * dims.r(i + 1) for i, m in enumerate(mults))
        status = CheckStatus.PASS if actual == expected else CheckStatus.FAIL
        results.append(IdentityCheck(label, n, expected, Decomposition(mults, actual), status))
    return results


def graded_dimension_check(coeffs: CoeffTable, claimed_dims) -> bool:
    """Whether the claimed graded dimensions, indexed from -1, match c(n)."""
    for i, dim in enumerate(claimed_dims, start=-1):
        if not coeffs.has(i) or coeffs.c(i) != dim:
            return False
    return True


def decompose_bounded(target: int, dims: IrrepDims, max_mult: int, max_parts: int,
                      node_budget: int = 10_000_000):
    """All multiplicity vectors over the first ``max_parts`` dimensions.

    Depth-first search from the largest dimension downward, each multiplicity
    bounded by ``max_mult``; results are exact and exhaustive within the
    bounds.
    """
    if target < 0:
        raise DomainError("target must be >= 0")
    if max_mult < 1 or max_parts < 1:
        raise DomainError("bounds must be >= 1")
    if dims.count < max_parts:
        raise InsufficientData(f"need {max_parts} dimensions, have {dims.count}")
    rs = dims.dims[:max_parts]
    reach = [0]
    for r in rs:
        reach.append(reach[-1] + max_mult * r)
    results = []
    nodes = 0

    def walk(i, remaining, tail):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchSpaceTooLarge(f"more than {node_budget} search nodes")
        if i < 0:
            if remaining == 0:
                results.append(Decomposition(tuple(reversed(tail)), target))
            return
        if remaining > reach[i + 1]:
            return
        for m in range(min(max_mult, remaining // rs[i]), -1, -1):
            tail.append(m)
            walk(i - 1, remaining - m * rs[i], tail)
            tail.pop()

    walk(max_parts - 1, target, [])
    return results


class KnzResult(Record):
    __slots__ = ("lhs", "rhs", "equal")

    def mismatches(self):
        """Sorted (m, n, lhs, rhs) for every monomial where the sides differ."""
        keys = set(self.lhs.terms) | set(self.rhs.terms)
        out = []
        for m, n in sorted(keys):
            a = self.lhs.terms.get((m, n), 0)
            b = self.rhs.terms.get((m, n), 0)
            if a != b:
                out.append((m, n, a, b))
        return out


def _binomial_factor(rect):
    """(1 - p/q)^c(-1), the one factor with a negative q-exponent, on ``rect``:
    every :class:`CoeffTable` holds c(-1) = 1."""
    return BiLaurentSeries({(0, 0): 1, (1, -1): -1}, rect)


def _knz_rows(width, c):
    """Rows F_0 .. F_(width-1) of F = prod_{m>=1, n>=0} (1 - p^m q^n)^c(mn).

    F = sum_M F_M(q) p^M, and each row is the list of its first ``width``
    coefficients in q.  Since p d/dp log F = -sum_M H_M(q) p^M, Newton's
    identity gives F_0 = 1 and M*F_M = -sum_{j=1..M} H_j F_(M-j), with the
    integer rows H_M(q) = sum_N q^N sum_{k | gcd(M, N)} (M/k) c(MN/k^2) and
    gcd(M, 0) = M, so c(0) enters through N = 0.  Each division by M is
    exact for integer exponents; a remainder raises ``ArithmeticError``.
    """
    rows = [[1] + [0] * (width - 1)]
    hecke = [None]
    for M in range(1, width):
        h = []
        for N in range(width):
            g = math.gcd(M, N)
            total = sum((M // k) * c(M * N // (k * k)) for k in range(1, g + 1) if g % k == 0)
            if total:
                h.append((N, total))
        hecke.append(h)
        acc = [0] * width
        for j in range(1, M + 1):
            f = rows[M - j]
            for i, hi in hecke[j]:
                for k in range(width - i):
                    acc[i + k] += hi * f[k]
        row = []
        for N, a in enumerate(acc):
            fm, rem = divmod(-a, M)
            if rem:
                raise ArithmeticError(f"row recurrence left remainder {rem} at p^{M} q^{N}")
            row.append(fm)
        rows.append(row)
    return rows


def knz_verify(order: int, coeffs: CoeffTable | None = None,
               unnormalized_c0: bool = False) -> KnzResult:
    """Verify p^-1 prod_{m>=1, n} (1 - p^m q^n)^c(mn) = J(p) - J(q), truncated.

    Both sides are computed on the exponent rectangle [-1, order]^2, with
    c(k) = 0 for k < -1 and the constant term of J(p) - J(q) cancelling.
    ``unnormalized_c0=True`` is the negative control distinguishing J - 744
    from J: it checks the perturbed table ``coeffs.with_value(0, 744)``,
    whose c(0) = 744 breaks the identity.  The factors with n >= 0 come as
    rows in p from :func:`_knz_rows`, for any integer exponents, so
    perturbed tables report their mismatches.  The one factor with n < 0 is
    (1 - p/q) itself, multiplied in afterwards: its exponent c(-1) is 1 in
    every :class:`CoeffTable`.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > KNZ_ORDER_LIMIT:
        raise BudgetExceeded(f"order {order} is past KNZ_ORDER_LIMIT = {KNZ_ORDER_LIMIT}")
    need = (order + 1) ** 2
    if coeffs is None:
        coeffs = CoeffTable.from_expansion(need + 1)
    if coeffs.max_index < max(need, order):
        raise InsufficientCoefficients(
            f"need c(n) through n = {max(need, order)}, table stops at {coeffs.max_index}")
    if unnormalized_c0:
        coeffs = coeffs.with_value(0, 744)

    # The working rectangle keeps the p^-1 prefactor out until the end, and
    # its q-range extends one past the target: (1 - p/q) is the only source
    # of negative q-degrees, so row terms at q-degree order+1 still land
    # inside the target after it.  Every other factor only raises degrees,
    # so the rows truncated at q^(order+1) and p^(order+1) lose nothing.
    # The rectangle starts at p^0: shifted to p^-1, it would lose the p/q
    # term of (1 - p/q) at order 0.
    work_rect = (0, order + 1, -1, order + 1)
    rows = _knz_rows(order + 2, coeffs.c)
    f = BiLaurentSeries({(m, n): v for m, row in enumerate(rows) for n, v in enumerate(row)},
                        work_rect)
    acc = _binomial_factor(work_rect) * f
    final_rect = (-1, order, -1, order)
    lhs = BiLaurentSeries({(m - 1, n): v for (m, n), v in acc.terms.items() if n <= order},
                          final_rect)
    rhs_terms = {}
    for k in range(-1, order + 1):
        if k:
            rhs_terms[(k, 0)] = coeffs.c(k)
            rhs_terms[(0, k)] = -coeffs.c(k)
    rhs = BiLaurentSeries(rhs_terms, final_rect)
    return KnzResult(lhs, rhs, lhs == rhs)


# -- documented monster constants ---------------------------------------------

MONSTER_ORDER_FACTORIZATION = (
    (2, 46), (3, 20), (5, 9), (7, 6), (11, 2), (13, 3), (17, 1), (19, 1),
    (23, 1), (29, 1), (31, 1), (41, 1), (47, 1), (59, 1), (71, 1),
)


class MonsterFacts(Record):
    """Documented constants about the monster; recorded, not computed."""

    __slots__ = ("order_factorization", "conjugacy_class_count",
                 "distinct_mckay_thompson_series", "mckay_thompson_span_dimension")

    def __init__(self, order_factorization: tuple = MONSTER_ORDER_FACTORIZATION,
                 conjugacy_class_count: int = 194, distinct_mckay_thompson_series: int = 172,
                 mckay_thompson_span_dimension: int = 163):
        super().__init__(order_factorization, conjugacy_class_count,
                         distinct_mckay_thompson_series, mckay_thompson_span_dimension)

    @property
    def order(self) -> int:
        return math.prod(p**e for p, e in self.order_factorization)


MONSTER_FACTS = MonsterFacts()


def monster_order() -> int:
    """The order of the monster group, from its prime factorization."""
    return MONSTER_FACTS.order
