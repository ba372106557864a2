"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as an integer coefficient vector of length phi(N) (the
canonical remainder modulo the N-th cyclotomic polynomial Phi_N) together
with a positive common denominator, unique at its order.  One global
canonicalization applies: a value that happens to be rational is always
stored at order 1, whatever order it was computed in.  The canonical byte
form ``order:n0,n1,.../den`` (:meth:`Cyclo.key_bytes`), from which matrix
keys are joined, is cached in one slot filled on first use.

Values are interned: every constructor ends in one table lookup, so a
canonical (order, nums, den) is one object, and zero is ``Cyclo.zero()``
itself.  Each object carries a serial id from a module counter, and the
product and sum memos are keyed by the pair of operand ids, so a memo hit
hashes two ints and never calls ``__hash__`` or ``__eq__``.  Every sum of
products in the package is one call to :func:`combine`, which reads those
memos directly; otherwise only the operators read them.  At one order the
interning is also an identity test: two values held there are equal
exactly when they are one object, so the group closure names a matrix by
the serial ids of its entries.  Ids are never reused, so clearing the
tables could not alias an old memo entry or a closure's key.
Nothing clears them yet: the intern table, like the memos, grows for the
life of the process, and it keeps every value ever built, conjugates,
Galois images and embeddings included; every CLI process measured keeps
the memos at a few thousand entries, so ROADMAP item 5 reports their sizes
rather than bounding them.
Equality and hashing go by value (identity is only a fast path).

The per-order data is Phi_N's degree and its nonzero lower terms, O(phi(N))
integers.  Phi_N itself is built from the radical of N, one small exact
division per distinct prime (see :func:`cyclotomic_polynomial`).  Every map
from exponents to the power basis (a root of unity, a Galois image, an
embedding into a multiple order) is one scatter: add each coefficient at
its exponent mod N, then reduce mod Phi_N.  A product convolves the
nonzero coefficients of both factors only, then reduces once.

Arithmetic between values of different orders promotes both to the lcm
order first.  Each value has one form whatever order holds it: its form at
its conductor, the least M whose field Q(zeta_M) holds it, reached by one
slice or scatter per prime descended (see :func:`_descend`) and kept in a
slot filled on first use.  Equality across orders, the hash of an
irrational value and :meth:`Cyclo.embed` into an order that is not a
multiple all go through that form, so equal values held at different orders
share a dict key.  A rational hashes as the equal ``int`` or ``Fraction``.
Key bytes stay per order, so the group-theory layer embeds every matrix
entry into one working order.

Inverses use only the field's own operations: x^-1 is the product of
the Galois conjugates sigma(x), sigma != 1, times 1/N(x), where the norm
N(x), the product of all conjugates, is rational.  Division is
multiplication by that inverse.

Nothing here ever touches floating point except :meth:`Cyclo.to_complex`,
which exists for display and cross-checking only.

Values are immutable and all operations are pure, so sharing across threads
is safe; the lazy byte-form and conductor-form slots are idempotent (every
filling writes an equal value), and the per-order data, the intern table
and the operation memos are insert-only dicts whose entries are idempotent,
safe for concurrent reads once built.  Two threads interning one value at
once may each build an object; ``dict.setdefault`` keeps the first stored,
and both return it, so a race costs one discarded object and never a memo
hit.  A second object of one value must never escape (say, from a cleared
table): it would still be equal by value, but a closure meeting both would
count one group element twice.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]
CycloLike = Union["Cyclo", int, Fraction]


class NonDivisibleOrderError(ValueError):
    """Embedding requested into a cyclotomic field that does not hold the value."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-order reduction


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # num, den: int coefficients low-to-high, den monic; division is exact.
    num = list(num)
    dd = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den) if d]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in terms:
                num[i - dd + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _substitute_power(poly: list[int], k: int) -> list[int]:
    """Coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _prime_factors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first.

    Built from the radical m = rad(n), the product of n's distinct primes:
    starting from Phi_1 = x - 1, each prime p not dividing m gives
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x), one exact division per prime, and
    then Phi_n(x) = Phi_m(x^(n/m)) (Cohen, GTM 138, section 3.5)."""
    if n < 1:
        raise ValueError("order must be positive")
    poly, m = [-1, 1], 1
    # ascending primes: the last quotient, the longest, has the shortest divisor
    for p in _prime_factors(n):
        poly, m = _poly_div_exact(_substitute_power(poly, p), poly), m * p
    return tuple(_substitute_power(poly, n // m))


class _Context:
    """Per-order data: the degree phi(N) of Phi_N and its nonzero lower
    terms, the reduction rule x^deg = -(tail), O(phi(N)) integers."""

    __slots__ = ("order", "deg", "tail")

    def __init__(self, order: int):
        phi = cyclotomic_polynomial(order)
        self.order = order
        self.deg = len(phi) - 1
        self.tail = tuple((i, c) for i, c in enumerate(phi[:-1]) if c)

    def reduce(self, coeffs: list[int]) -> list[int]:
        deg = self.deg
        tail = self.tail
        for e in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[e]
            if c:
                coeffs[e] = 0
                base = e - deg
                for i, t in tail:
                    coeffs[base + i] -= c * t
        return coeffs[:deg]


_CONTEXTS: dict[int, _Context] = {}


def _context(order: int) -> _Context:
    ctx = _CONTEXTS.get(order)
    if ctx is None:
        ctx = _Context(order)
        _CONTEXTS[order] = ctx
    return ctx


# ---------------------------------------------------------------------------
# the field element


class Cyclo:
    """An element of Q(zeta_N), immutable and exactly canonical."""

    __slots__ = ("order", "nums", "den", "_conductor", "_bytes", "_id")

    order: int
    nums: tuple[int, ...]
    den: int
    _conductor: Cyclo | None
    _bytes: bytes | None

    def __init__(self, order: int, nums: tuple[int, ...], den: int, _raw: bool = False):
        if not _raw:
            raise TypeError("use the Cyclo constructors (rational, root_of_unity, ...)")
        self.order = order
        self.nums = nums
        self.den = den
        self._conductor = None
        self._bytes = None
        self._id = next(_SERIALS)

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(order: int, nums: Iterable[int], den: int) -> "Cyclo":
        nums = list(nums)
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        if order > 1 and not any(nums[1:]):
            order, nums = 1, nums[:1]
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [c // g for c in nums]
        key = (order, tuple(nums), den)
        value = _INTERNED.get(key)
        if value is None:
            value = _INTERNED.setdefault(key, Cyclo(*key, _raw=True))
        return value

    def __reduce__(self):
        # a copy or an unpickled value is the interned one, never a second
        # object carrying another value's serial id
        return Cyclo._make, (self.order, self.nums, self.den)

    @staticmethod
    def rational(value: RationalLike) -> "Cyclo":
        f = Fraction(value)
        return Cyclo._make(1, [f.numerator], f.denominator)

    @staticmethod
    def zero() -> "Cyclo":
        return _ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _ONE

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.den == 1 and not any(self.nums)

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational value")
        return Fraction(self.nums[0], self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of the canonical remainder mod Phi_N, as fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- arithmetic ----------------------------------------------------------

    def _lift_vec(self, order: int) -> list[int]:
        """Coefficient vector of this value re-indexed at a multiple order
        (no canonicalization); denominator is unchanged."""
        if self.order == order:
            return list(self.nums)
        return _reindex(_context(order), self.nums, order // self.order)

    def __add__(self, other: CycloLike) -> "Cyclo":
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        key = (self._id, other._id)
        hit = _ADD_MEMO.get(key)
        if hit is not None:
            return hit
        a, b = self, other
        order = a.order if a.order == b.order else math.lcm(a.order, b.order)
        av = a._lift_vec(order)
        bv = b._lift_vec(order)
        if a.den == b.den:
            result = Cyclo._make(order, [x + y for x, y in zip(av, bv)], a.den)
        else:
            g = math.gcd(a.den, b.den)
            sa = b.den // g
            sb = a.den // g
            nums = [x * sa + y * sb for x, y in zip(av, bv)]
            result = Cyclo._make(order, nums, a.den * sa)
        _ADD_MEMO[key] = result
        return result

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo._make(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other: CycloLike) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: CycloLike) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: CycloLike) -> "Cyclo":
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        key = (self._id, other._id)
        hit = _MUL_MEMO.get(key)
        if hit is not None:
            return hit
        a, b = self, other
        if a.order == 1:
            c = a.nums[0]
            result = Cyclo._make(b.order, [c * x for x in b.nums], a.den * b.den)
        elif b.order == 1:
            c = b.nums[0]
            result = Cyclo._make(a.order, [c * x for x in a.nums], a.den * b.den)
        else:
            order = a.order if a.order == b.order else math.lcm(a.order, b.order)
            an = a._lift_vec(order)
            bn = b._lift_vec(order)
            bterms = [(j, bj) for j, bj in enumerate(bn) if bj]
            conv = [0] * (2 * len(an) - 1)
            for i, ai in enumerate(an):
                if ai:
                    for j, bj in bterms:
                        conv[i + j] += ai * bj
            ctx = _context(order)
            result = Cyclo._make(order, ctx.reduce(conv), a.den * b.den)
        _MUL_MEMO[key] = result
        return result

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Exact inverse x^-1 = (prod_{sigma != 1} sigma(x)) / N(x).

        The norm N(x) is built up the unit group (Z/N)^*: with y the
        product of x's conjugates over a subgroup H, and u a unit of order
        k modulo H, y * sigma_u(y) * ... * sigma_u^(k-1)(y) is the product
        over H<u>.  The orbit product takes O(log k) multiplications by
        binary splitting.  Once H is the whole group, y = N(x) is rational
        and the cofactor times 1/N(x) is the inverse."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        y, cof = self, _ONE
        order = self.order
        subgroup = {1}
        for u in range(2, order):
            if u in subgroup or math.gcd(u, order) != 1:
                continue
            k, w = 1, u
            while w not in subgroup:
                k, w = k + 1, w * u % order
            c = _orbit_product(y, u, k - 1, order).galois(u)
            y, cof = y * c, cof * c
            subgroup = {h * pow(u, t, order) % order for h in subgroup for t in range(k)}
        # y = N(x) is a nonzero rational; its reciprocal does not re-enter inv
        sign = 1 if y.nums[0] > 0 else -1
        return cof * Cyclo._make(1, [sign * y.den], abs(y.nums[0]))

    def __truediv__(self, other: CycloLike) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: CycloLike) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "Cyclo":
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conj(self) -> "Cyclo":
        """Complex conjugation, i.e. the automorphism zeta |-> zeta^(N-1)."""
        return self.galois(self.order - 1)

    def galois(self, j: int) -> "Cyclo":
        """Image under zeta |-> zeta^j (j coprime to the order)."""
        if self.order == 1:
            return self
        if math.gcd(j, self.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        return Cyclo._make(self.order, _reindex(_context(self.order), self.nums, j), self.den)

    # -- embeddings ----------------------------------------------------------

    def embed(self, target_order: int) -> "Cyclo":
        """The same field element expressed in Q(zeta_M), for any M whose
        field holds it (a multiple, a divisor or neither of the order): the
        value re-indexed into M's power basis, from its own order when M is
        a multiple and from its conductor form otherwise.  The canonical
        form at M is unique, so both give the one interned object.  Raises
        NonDivisibleOrderError when Q(zeta_M) does not hold the value."""
        if target_order < 1:
            raise ValueError("order must be positive")
        if self.order == target_order or self.order == 1:
            return self
        if target_order % self.order == 0:
            return Cyclo._make(target_order, self._lift_vec(target_order), self.den)
        low = self._conductor_form()
        if target_order % low.order:
            raise NonDivisibleOrderError(f"value does not lie in Q(zeta_{target_order})")
        return Cyclo._make(target_order, low._lift_vec(target_order), low.den)

    def _conductor_form(self) -> "Cyclo":
        """This value at its conductor, the least order whose field holds
        it, kept on first use.  Whether Q(zeta_M) holds a value depends on
        each prime's exponent in M alone, so one descending pass over the
        primes reaches the conductor."""
        form = self._conductor
        if form is None:
            form = self
            for p in _prime_factors(self.order):
                while form.order % p == 0:
                    down = _descend(form, p)
                    if down is None:
                        break
                    form = down
            self._conductor = form
        return form

    # -- comparisons / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Cyclo:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.order == other.order:
            return self.nums == other.nums and self.den == other.den
        if self.order == 1 or other.order == 1:
            # rationals are canonically order 1; any order > 1 value is irrational
            return False
        # fields, not identity: a second object of one value still compares equal
        a, b = self._conductor_form(), other._conductor_form()
        return a.order == b.order and a.nums == b.nums and a.den == b.den

    def __hash__(self) -> int:
        if self.order == 1:  # a rational hashes as the equal int or Fraction
            return hash(Fraction(self.nums[0], self.den) if self.den > 1 else self.nums[0])
        return hash(self._conductor_form().key_bytes())

    def key_bytes(self) -> bytes:
        """Canonical byte form ``order:n0,n1,.../den``, unique per value at a
        given order; computed on first use and kept."""
        if self._bytes is None:
            self._bytes = b"%d:%s/%d" % (
                self.order, b",".join(b"%d" % n for n in self.nums), self.den
            )
        return self._bytes

    def __bool__(self) -> bool:
        return not self.is_zero()

    def to_complex(self) -> complex:
        """Float embedding sum c_e * exp(2*pi*i*e/N); display only."""
        import cmath

        tau = 2j * math.pi / self.order
        acc = 0j
        for e, c in enumerate(self.nums):
            if c:
                acc += (c / self.den) * cmath.exp(tau * e)
        return acc

    def to_dict(self) -> dict:
        approx = self.to_complex()
        return {
            "order": self.order,
            # most coefficients of a high-order value are zero: skip their gcd
            "coeffs": [_fraction_str(n, self.den) if n else "0" for n in self.nums],
            "approx": [approx.real, approx.imag],
        }

    def __repr__(self) -> str:
        if self.order == 1:
            return str(Fraction(self.nums[0], self.den))
        terms = []
        for e, c in enumerate(self.nums):
            if c:
                coeff = Fraction(c, self.den)
                if e == 0:
                    terms.append(str(coeff))
                elif coeff == 1:
                    terms.append(f"z{self.order}^{e}")
                else:
                    terms.append(f"{coeff}*z{self.order}^{e}")
        return " + ".join(terms) if terms else "0"


def _fraction_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, without building the Fraction."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _reindex(ctx: _Context, nums: Iterable[int], step: int) -> list[int]:
    """Power-basis coefficients at ctx's order of sum_e nums[e] * zeta^(e * step):
    scatter each term to its exponent mod N, then reduce mod Phi_N."""
    order = ctx.order
    out = [0] * order
    for e, c in enumerate(nums):
        if c:
            out[e * step % order] += c
    return ctx.reduce(out)


def _descend(x: Cyclo, p: int) -> Cyclo | None:
    """x's form in Q(zeta_M), M = N/p, for a prime p dividing N = x.order;
    None when Q(zeta_M) does not hold x.

    When p^2 divides N, Phi_N(z) = Phi_M(z^p): Q(zeta_M) holds exactly the
    values with coefficients only on exponents divisible by p, and every
    p-th coefficient is the M-form.  When p divides N once, zeta_N =
    zeta_M^s * zeta_p^t with s = p^-1 mod M, and the relative trace sends
    zeta_N^e to zeta_M^(s*e) times p - 1 if p divides e, else -1
    (Washington, GTM 83, ch. 2).  That scatter, reduced mod Phi_M, is
    p - 1 times the only candidate, kept if it lifts back to x."""
    nums = x.nums
    order = x.order // p
    if order % p == 0:
        if any(c for e, c in enumerate(nums) if e % p):
            return None
        return Cyclo._make(order, nums[::p], x.den)
    s = pow(p, -1, order)
    out = [0] * order
    for e, c in enumerate(nums):
        if c:
            out[s * e % order] += c * (p - 1) if e % p == 0 else -c
    trace = _context(order).reduce(out)
    if _reindex(_context(x.order), trace, p) != [c * (p - 1) for c in nums]:
        return None
    return Cyclo._make(order, trace, x.den * (p - 1))


def _orbit_product(y: Cyclo, u: int, m: int, order: int) -> Cyclo:
    """prod_{t < m} sigma_u^t(y) for m >= 1, by binary splitting on m:
    P(2l) = P(l) * sigma_u^l(P(l)) and P(l + 1) = y * sigma_u(P(l))."""
    prod, length = y, 1
    for bit in bin(m)[3:]:
        prod = prod * prod.galois(pow(u, length, order))
        length *= 2
        if bit == "1":
            prod = y * prod.galois(u)
            length += 1
    return prod


def _coerce(value: CycloLike) -> "Cyclo":
    if isinstance(value, Cyclo):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclo.rational(value)
    return NotImplemented


# one object per canonical (order, nums, den), numbered in creation order;
# the memos are keyed by the serial ids of the two operands, so a lookup
# hashes two ints.  Serial ids are never reused, not even if the tables
# were cleared, unlike id() of a collected object.
_INTERNED: dict[tuple[int, tuple[int, ...], int], Cyclo] = {}
_SERIALS = itertools.count()
_MUL_MEMO: dict[tuple[int, int], Cyclo] = {}
_ADD_MEMO: dict[tuple[int, int], Cyclo] = {}


def combine(rows: Sequence[Sequence[Cyclo]], vectors: Sequence[Sequence[Cyclo]]
            ) -> tuple[tuple[Cyclo, ...], ...]:
    """Row i of the result is sum_k rows[i][k] * vectors[k], a tuple as long
    as the vectors: each entry adds its nonzero products in index order from
    the first (association decides the order at which a sum that passes
    through a rational is held), so it is the one interned value of that
    sum.  Zero is tested by identity, and every product and partial sum is
    first looked up in the memos, so a hit makes no Python-level call.  A
    row whose one nonzero entry is 1 gives that vector's tuple itself, and
    a row with no nonzero entry gives zeros.  This is the package's one sum
    of products: a matrix product, the minors of `UnitaryMatrix.det` and
    the braid generators' mixing sums are calls to it."""
    mul_memo, add_memo = _MUL_MEMO, _ADD_MEMO
    out = []
    for row in rows:
        acc = None
        k = -1  # a plain counter: a zip or range per row measured slower here
        for a in row:
            k += 1
            if a is _ZERO:
                continue
            if a is _ONE:
                scaled = vectors[k]
            else:
                aid = a._id
                scaled = [
                    _ZERO if y is _ZERO
                    else hit if (hit := mul_memo.get((aid, y._id))) is not None
                    else a * y
                    for y in vectors[k]
                ]
            if acc is None:
                acc = scaled
            else:
                # a zero of the running sum takes the product as it is (0 + p is p)
                acc = [
                    y if x is _ZERO
                    else x if y is _ZERO
                    else hit if (hit := add_memo.get((x._id, y._id))) is not None
                    else x + y
                    for x, y in zip(acc, scaled)
                ]
        out.append((_ZERO,) * len(vectors[0]) if acc is None else tuple(acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# named constructors


def root_of_unity(order: int, k: int = 1) -> Cyclo:
    """zeta_order^k in canonical reduced form."""
    if order < 1:
        raise ValueError("order must be positive")
    return Cyclo._make(order, _reindex(_context(order), (0, 1), k), 1)


def sqrt2(order: int) -> Cyclo:
    """sqrt(2) = zeta_8 + zeta_8^-1 (positive real embedding); the working
    order must be divisible by 8."""
    if order % 8:
        raise ValueError("sqrt2 needs a working order divisible by 8")
    return root_of_unity(order, order // 8) + root_of_unity(order, order - order // 8)


def sqrt3(order: int) -> Cyclo:
    """sqrt(3) = zeta_12 + zeta_12^-1; the working order must be divisible
    by 12."""
    if order % 12:
        raise ValueError("sqrt3 needs a working order divisible by 12")
    return root_of_unity(order, order // 12) + root_of_unity(order, order - order // 12)


_ZERO = Cyclo._make(1, [0], 1)
_ONE = Cyclo._make(1, [1], 1)

