"""Temperley-Lieb recoupling quantities at a root of unity.

Everything is evaluated exactly in cyclotomic fields.  The theory at index
r >= 3 (level k = r - 2) uses the Kauffman variable A = i * e^(-2*pi*i/(4r))
= zeta_{4r}^(r-1), loop value d = -A^2 - A^(-2), and quantum integers taken
at q = A^2:

    [n] = (A^(2n) - A^(-2n)) / (A^2 - A^(-2))

A theory is the two integers `TheoryParams(r, order)`, nothing more: A is
zeta_order^a_exponent, and d is `delta_n(t, 1)`.

Every quantity below lies in Q(A) = Q(zeta_{N_A}), N_A = 4r / gcd(r - 1, 4r)
the order of A (5, 14, 32 at r = 5, 7, 8).  Each quantity has one
function, which evaluates it there and embeds its one result into the
theory's working order lcm(4r, 72) (360, 504, 288), which the braid
representation needs for sqrt2, sqrt3 and its SU(3) phase; canonical forms
are unique and interned, so the embedded value is the very object a
working-order evaluation would build.  Nets compose by calling these same
functions at the Q(A) theory (`_qa_theory`), where every value is held at
N_A or at 1 and the embedding is the identity.  The 120 theta, tet and 6j
queries of the `recoupling` benchmark, written out by `to_dict`, take
12-22 ms in a fresh process, against 27-49 ms evaluated at the working
order (2-vCPU Xeon VM, Python 3.11.7).

Closed trivalent networks are evaluated through the standard quantum-
factorial closed forms, division-free: every denominator is a product of
quantum factorials, so each net is a signed product of cached [n]! and
cached 1/[n]!.  The inverse factorials are built as 1/[n]! = 1/[n-1]! * 1/[n],
so a theory runs one exact `Cyclo.inv` per quantum integer [1] .. [r-1],
each at order N_A <= 4r, rather than one per division.  For an admissible
triple (a, b, c) with vertex exponents m = (a+c-b)/2, n = (a+b-c)/2,
p = (b+c-a)/2:

    theta(a, b, c) = (-1)^(m+n+p) [m+n+p+1]! [m]! [n]! [p]! / ([a]! [b]! [c]!)

The tetrahedral net tet(a, b, e, c, d, f) uses the vertex triples
(a, d, e), (b, c, e), (a, b, f), (c, d, f); with half-sums a_i of the four
triples and b_j of the three label "squares" it equals

    (prod_ij [b_j - a_i]! / ([a]![b]![c]![d]![e]![f]!))
        * sum_s (-1)^s [s+1]! / (prod_i [s - a_i]! prod_j [b_j - s]!)

summed over max(a_i) <= s <= min(b_j).  The 6j-symbol combines the two:

    sixj(a, b, k, c, d, i) = tet(a, b, k, c, d, i) * delta_i
                             / (theta(a, d, i) * theta(c, b, k))

where 1/theta is the theta closed form with numerator and denominator
factorials swapped (`inv_theta`).

Sign conventions are pinned by golden tests against the level-4 values
(theta(2,2,2) = 2/sqrt(3), tet table entries, R-value anchors).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

from .cyclo import Cyclo, root_of_unity


class InadmissibleTripleError(ValueError):
    """A trivalent vertex violates parity, triangle, or level bounds."""


class ZeroDenominatorError(ZeroDivisionError):
    """A net evaluation hit a vanishing theta or quantum factorial."""


# the braid representation's constants at level 4 (the SU(3) phase, sqrt2,
# sqrt3) live in Q(zeta_72), so a public value is held at lcm(4r, 72); the
# nets themselves lie in Q(A) and are evaluated there (see `_qa_theory`)
_BASE_ORDER = 72


class TheoryParams(NamedTuple):
    """The theory at index r >= 3 with its values held in Q(zeta_order);
    A = zeta_{4r}^(r-1), so order * (r - 1) must be a multiple of 4r.  The
    `lru_cache` keys below hash and compare it as a tuple of two ints."""

    r: int
    order: int

    @property
    def k(self) -> int:
        """The level r - 2."""
        return self.r - 2

    @property
    def label_set(self) -> tuple[int, ...]:
        """The labels 0 .. r - 2."""
        return tuple(range(self.r - 1))

    @property
    def a_exponent(self) -> int:
        """A == zeta_order ** a_exponent."""
        return self.order * (self.r - 1) // (4 * self.r)


def theory(r: int) -> TheoryParams:
    """Recoupling theory at index r (level k = r - 2), held at the working
    order lcm(4r, 72)."""
    if r < 3:
        raise ValueError("theory index r must be at least 3")
    return TheoryParams(r, math.lcm(4 * r, _BASE_ORDER))


@lru_cache(maxsize=None)
def _qa_theory(r: int) -> TheoryParams:
    """The theory at index r held in Q(A) = Q(zeta_{N_A}), with
    N_A = 4r / gcd(r - 1, 4r) the order of A: 5, 14, 32 and 13 at r = 5, 7,
    8 and 13, where the working order is 360, 504, 288 and 936.  Every net,
    quantum integer and factorial is evaluated here."""
    return TheoryParams(r, 4 * r // math.gcd(r - 1, 4 * r))


class VertexExponents(NamedTuple):
    """Strand counts m = (a+c-b)/2, n = (a+b-c)/2, p = (b+c-a)/2 at an
    admissible vertex."""

    m: int
    n: int
    p: int


def vertex_exponents(a: int, b: int, c: int) -> VertexExponents:
    m, n, p = (a + c - b) // 2, (a + b - c) // 2, (b + c - a) // 2
    if min(m, n, p) < 0 or (a + b + c) % 2:
        raise InadmissibleTripleError(f"({a},{b},{c}) is not a valid vertex")
    return VertexExponents(m, n, p)


def admissible(t: TheoryParams, a: int, b: int, c: int) -> bool:
    """Parity, triangle, and level conditions for a trivalent vertex."""
    if min(a, b, c) < 0:
        raise ValueError("labels must be nonnegative")
    if (a + b + c) % 2:
        return False
    if a > b + c or b > a + c or c > a + b:
        return False
    return a + b + c <= 2 * t.k


def quantum_int(t: TheoryParams, n: int) -> Cyclo:
    """[n] at q = A^2, computed as the geometric sum q^(n-1) + q^(n-3) + ...
    + q^(1-n), which avoids any division.  q is a root of unity of order
    p = N / gcd(N, 2 * a_exponent) with q^2 != 1, so [n + p] = [n] and
    [-n] = -[n] = [p - n]; n is reduced mod p first, so the sum has fewer
    than p terms for every n."""
    qa = _qa_theory(t.r)
    q_exponent = 2 * qa.a_exponent
    n %= qa.order // math.gcd(qa.order, q_exponent)
    value = Cyclo.zero()
    for j in range(n):
        value = value + root_of_unity(qa.order, q_exponent * (n - 1 - 2 * j))
    return value.embed(t.order)


@lru_cache(maxsize=None)
def quantum_fact(t: TheoryParams, n: int) -> Cyclo:
    """[n]! = [n][n-1]...[1] with [0]! = 1.  The product runs in Q(A); the
    entry of a working-order theory is the embedding of that value."""
    if n < 0:
        raise ValueError("quantum factorial needs n >= 0")
    qa = _qa_theory(t.r)
    if t.order != qa.order:
        return quantum_fact(qa, n).embed(t.order)
    if n == 0:
        return Cyclo.one()
    return quantum_fact(t, n - 1) * quantum_int(t, n)


@lru_cache(maxsize=None)
def inv_quantum_fact(t: TheoryParams, n: int) -> Cyclo:
    """1/[n]! = 1/[n-1]! * 1/[n], in Q(A) as for `quantum_fact`; raises
    ZeroDenominatorError for n >= r, where [r] and so every [n]! from there
    on vanishes."""
    if n < 0:
        raise ValueError("quantum factorial needs n >= 0")
    qa = _qa_theory(t.r)
    if t.order != qa.order:
        return inv_quantum_fact(qa, n).embed(t.order)
    if n == 0:
        return Cyclo.one()
    q = quantum_int(t, n)
    if q.is_zero():
        raise ZeroDenominatorError(f"[{n}] vanishes at r = {t.r}")
    return inv_quantum_fact(t, n - 1) * q.inv()


def _factorial_product(
    t: TheoryParams, odd: bool, up: Iterable[int], down: Iterable[int]
) -> Cyclo:
    """(-1)^odd * prod_{u in up} [u]! / prod_{l in down} [l]!, division-free."""
    value = Cyclo.one()
    for n in up:
        value = value * quantum_fact(t, n)
    for n in down:
        value = value * inv_quantum_fact(t, n)
    return -value if odd else value


def delta_n(t: TheoryParams, n: int) -> Cyclo:
    """Loop value of the closed n-strand projector: (-1)^n [n+1]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = quantum_int(_qa_theory(t.r), n + 1)
    return (-value if n % 2 else value).embed(t.order)


def r_value(t: TheoryParams, a: int, b: int, c: int) -> Cyclo:
    """Twist eigenvalue R_a^{b,c} = (-1)^((b+c-a)/2) A^((b(b+2)+c(c+2)-a(a+2))/2)."""
    if not admissible(t, b, c, a):
        raise InadmissibleTripleError(f"(b,c,a)=({b},{c},{a}) is not admissible")
    half_sum = (b + c - a) // 2
    exponent = (b * (b + 2) + c * (c + 2) - a * (a + 2)) // 2
    qa = _qa_theory(t.r)
    value = root_of_unity(qa.order, qa.a_exponent * exponent)
    return (-value if half_sum % 2 else value).embed(t.order)


def _theta_factorials(
    t: TheoryParams, a: int, b: int, c: int
) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """(odd sign, numerator, denominator) of the theta closed form: the
    factorial arguments (m+n+p+1, m, n, p) over (a, b, c)."""
    if not admissible(t, a, b, c):
        raise InadmissibleTripleError(f"({a},{b},{c}) is not admissible")
    v = vertex_exponents(a, b, c)
    s = v.m + v.n + v.p
    return s % 2 == 1, (s + 1, v.m, v.n, v.p), (a, b, c)


def theta(t: TheoryParams, a: int, b: int, c: int) -> Cyclo:
    """Exact theta-net value of the closed two-vertex network."""
    odd, num, den = _theta_factorials(t, a, b, c)
    return _factorial_product(_qa_theory(t.r), odd, num, den).embed(t.order)


def inv_theta(t: TheoryParams, a: int, b: int, c: int) -> Cyclo:
    """1/theta(a, b, c): the same closed form with the factorials swapped."""
    odd, num, den = _theta_factorials(t, a, b, c)
    return _factorial_product(_qa_theory(t.r), odd, den, num).embed(t.order)


def tet(t: TheoryParams, a: int, b: int, e: int, c: int, d: int, f: int) -> Cyclo:
    """Exact tetrahedral-net value T[a b e; c d f]; see the module docstring
    for the vertex convention."""
    triples = ((a, d, e), (b, c, e), (a, b, f), (c, d, f))
    for triple in triples:
        if not admissible(t, *triple):
            raise InadmissibleTripleError(f"vertex {triple} is not admissible")
    qa = _qa_theory(t.r)
    half = [(x + y + z) // 2 for x, y, z in triples]
    squares = [(b + d + e + f) // 2, (a + c + e + f) // 2, (a + b + c + d) // 2]
    acc = Cyclo.zero()
    for s in range(max(half), min(squares) + 1):
        acc = acc + _factorial_product(
            qa, s % 2 == 1, (s + 1,), [s - ai for ai in half] + [bj - s for bj in squares]
        )
    outer = _factorial_product(
        qa, False, [bj - ai for bj in squares for ai in half], (a, b, c, d, e, f)
    )
    return (outer * acc).embed(t.order)


def sixj(t: TheoryParams, a: int, b: int, k: int, c: int, d: int, i: int) -> Cyclo:
    """6j-symbol {a b k; c d i} = T[a b k; c d i] * delta_i / (theta(a,d,i) theta(c,b,k))."""
    qa = _qa_theory(t.r)
    value = tet(qa, a, b, k, c, d, i) * delta_n(qa, i)
    value = value * inv_theta(qa, a, d, i) * inv_theta(qa, c, b, k)
    return value.embed(t.order)
