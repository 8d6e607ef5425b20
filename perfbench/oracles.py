"""Reference arithmetic for checking benchmark outputs.

Nothing here imports moonshine: every check runs on a route that shares no
code with what the benchmark times.  Series are plain lists of exact
coefficients starting at exponent 0; points are (x, y) Fraction pairs and
matrices (a, b, c, d) integer tuples.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from operator import mul


# -- q-series ----------------------------------------------------------------

def series_mul(a, b, n):
    """Schoolbook product of two series starting at q^0, first n terms."""
    rb = b[::-1]
    lb = len(b)
    out = []
    for k in range(n):
        lo = max(0, k - lb + 1)
        hi = min(k, len(a) - 1)
        if lo > hi:
            out.append(0)
            continue
        start = lb - 1 - k + lo
        out.append(sum(map(mul, a[lo:hi + 1], rb[start:start + hi - lo + 1])))
    return out


def divisor_sums(k, n):
    """[sigma_k(0) = 0, sigma_k(1), ..., sigma_k(n-1)] by a sieve."""
    sig = [0] * n
    for d in range(1, n):
        dk = d**k
        for m in range(d, n, d):
            sig[m] += dk
    return sig


def bernoulli(n):
    """B_n by the Akiyama-Tanigawa algorithm (agrees with B_n for even n >= 2)."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def eisenstein(weight, n):
    """First n coefficients of E_w = 1 - (2w/B_w) sum sigma_{w-1}(m) q^m."""
    scale = Fraction(-2 * weight) / bernoulli(weight)
    sig = divisor_sums(weight - 1, n)
    out = [Fraction(1)] + [scale * s for s in sig[1:]]
    return [c.numerator if c.denominator == 1 else c for c in out]


def delta(n):
    """Coefficients of Delta at exponents 0..n-1 (Delta = q - 24 q^2 + ...).

    Uses Jacobi's identity prod (1 - q^m)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2),
    raised to the 8th power by sparse products, so the work is far below a
    dense schoolbook power.
    """
    m = max(n - 1, 1)
    cube = []
    k = 0
    while k * (k + 1) // 2 < m:
        cube.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    prod = [1] + [0] * (m - 1)
    for _ in range(8):
        nxt = [0] * m
        for e, c in cube:
            for i in range(m - e):
                if prod[i]:
                    nxt[i + e] += c * prod[i]
        prod = nxt
    return ([0] + prod)[:n]


def j_identity_holds(j_coeffs):
    """Whether E4^3 == J * Delta on every exponent the given J determines.

    ``j_coeffs`` lists c(-1), c(0), ..., c(N-1) of J (with c(0) = 744);
    q * J starts at q^0, Delta / q starts at q^0, and their product must
    equal E4^3 through q^N.
    """
    n = len(j_coeffs)
    e4 = eisenstein(4, n)
    e4_cubed = series_mul(series_mul(e4, e4, n), e4, n)
    unit = delta(n + 1)[1:]
    return series_mul(j_coeffs, unit, n) == e4_cubed


def digest(values):
    """Short fingerprint of a coefficient list, for prefix checks at the end."""
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# -- integers and groups -------------------------------------------------------

def prime_factors(n):
    """Prime factorisation of n >= 1 as a sorted list with repetition."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def group_order(family, n):
    """|G| for C<n>, D<n> (order 2n), A<n> and S<n>."""
    if family == "C":
        return n
    if family == "D":
        return 2 * n
    if family == "S":
        return math.factorial(n)
    return max(math.factorial(n) // 2, 1)


def factors_ok(family, n, orders):
    """Composition-factor orders multiply to |G|; cyclic groups give primes."""
    if math.prod(orders) != group_order(family, n):
        return False
    if family == "C":
        return sorted(orders) == prime_factors(n)
    return True


# -- PSL2(Z) -----------------------------------------------------------------

HALF = Fraction(1, 2)


def mat_mul(m, k):
    a, b, c, d = m
    e, f, g, h = k
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def same_psl(m, k):
    return m == k or m == tuple(-v for v in k)


def word_matrix(word):
    """Left-to-right product of ("T", k) and ("S", 1) moves."""
    acc = (1, 0, 0, 1)
    for gen, exp in word:
        acc = mat_mul(acc, (1, exp, 0, 1) if gen == "T" else (0, -1, 1, 0))
    return acc


def moebius(m, point):
    a, b, c, d = m
    x, y = point
    den = (c * x + d) ** 2 + (c * y) ** 2
    return (((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den)


def in_domain(point):
    x, y = point
    return x * x + y * y >= 1 and -HALF <= x <= HALF


def canonical(point):
    """The orbit's representative in the closed domain, boundary folded left.

    Translate into [-1/2, 1/2), invert while inside the unit circle, then
    send the right half of the arc and the Re = 1/2 edge to their left
    partners, so two points share an orbit exactly when these agree.
    """
    x, y = point
    while True:
        x -= math.floor(x + HALF)
        norm = x * x + y * y
        if norm >= 1:
            break
        x, y = -x / norm, y / norm
    if x * x + y * y == 1 and x > 0:
        x = -x
    return x, y
