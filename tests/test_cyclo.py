import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracles import leibniz_det

from su3braid import cyclo
from su3braid.cyclo import (
    Cyclo,
    NonDivisibleOrderError,
    _context,
    combine,
    cyclotomic_polynomial,
    root_of_unity,
    sqrt2,
    sqrt3,
)
from su3braid.matrix import UnitaryMatrix

ORDERS = [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]


def cyclo_values(order):
    """Random elements with bounded coefficients at a fixed order."""
    deg = len(cyclotomic_polynomial(order)) - 1
    coeff = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=6)
    return st.builds(
        lambda nums, d: sum(
            (Cyclo.rational(Fraction(c, d)) * root_of_unity(order, e) for e, c in enumerate(nums)),
            Cyclo.zero(),
        ),
        st.lists(coeff, min_size=deg, max_size=deg),
        den,
    )


any_cyclo = st.sampled_from([3, 8, 12, 72]).flatmap(cyclo_values)


# -- construction ------------------------------------------------------------

def test_phi_tables():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(72) == (1,) + (0,) * 11 + (-1,) + (0,) * 11 + (1,)


def test_root_of_unity_basics():
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(1, 0) == 1
    # i * e^(-i pi/12) = e^(5 i pi/12) = zeta_24^5 = zeta_72^15
    v = root_of_unity(72, 15)
    oracle = 1j * cmath.exp(-1j * math.pi / 12)
    assert abs(v.to_complex() - oracle) < 1e-12
    assert v == root_of_unity(24, 5).embed(72)


def test_coeff_length_is_degree():
    for order in ORDERS:
        z = root_of_unity(order)
        assert len(z.coeffs) == len(cyclotomic_polynomial(order)) - 1


def test_zeta_has_exact_multiplicative_order():
    for order in ORDERS:
        z = root_of_unity(order)
        power = Cyclo.one()
        for k in range(1, order):
            power = power * z
            assert power != 1, (order, k)
        assert power * z == 1


# -- ring operations -----------------------------------------------------------

def test_add_mul_neg_examples():
    z8 = root_of_unity(8)
    s = z8 + z8 ** 7
    assert s * s == 2
    x = root_of_unity(72, 11) + Fraction(2, 3)
    assert x * Cyclo.one() == x
    assert x + (-x) == 0


def test_inverse_examples():
    assert Cyclo.rational(2).inv() == Fraction(1, 2)
    for order, k in ((8, 3), (72, 29)):
        z = root_of_unity(order, k)
        assert z.inv() == root_of_unity(order, order - k)
    r3 = sqrt3(72)
    assert r3 * (r3 / 3) == 1
    assert r3.inv() == r3 / 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().inv()
    with pytest.raises(ZeroDivisionError):
        Cyclo.one() / 0


def test_conj_examples():
    z3 = root_of_unity(3)
    assert z3.conj() == root_of_unity(3, 2)
    assert Cyclo.rational(Fraction(-5, 7)).conj() == Fraction(-5, 7)
    a = root_of_unity(72, 15)  # the Kauffman variable at level 4
    assert a.conj() == root_of_unity(72, 57)


def test_galois_automorphisms():
    x = root_of_unity(12, 1) + Fraction(1, 3) * root_of_unity(12, 2)
    assert x.galois(11) == x.conj()
    assert x.galois(5).galois(5) == x  # 5*5 = 25 = 1 mod 12
    with pytest.raises(ValueError):
        x.galois(4)


def reference_powers(order):
    """Canonical remainders of zeta^e for every e < order, built by repeated
    multiplication by x and folding x^deg = -(tail); an independent reference
    for the scatter-and-reduce path of the field."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    tail = [(i, c) for i, c in enumerate(phi[:deg]) if c]
    powers = []
    vec = [1] + [0] * (deg - 1)
    for _ in range(order):
        powers.append(vec)
        lead = vec[-1]
        vec = [0] + vec[:-1]
        if lead:
            for i, c in tail:
                vec[i] -= lead * c
    return powers


def reference_reindex(powers, nums, step):
    """sum_e nums[e] * zeta^(e * step) from the reference power table."""
    order = len(powers)
    out = [0] * len(powers[0])
    for e, c in enumerate(nums):
        if c:
            for i, r in enumerate(powers[e * step % order]):
                if r:
                    out[i] += c * r
    return out


@pytest.mark.parametrize("order", list(range(1, 101)) + [360, 504, 1021])
def test_reindexing_matches_reference_power_table(order):
    powers = reference_powers(order)
    double = reference_powers(2 * order)
    deg = len(powers[0])

    def same(value, at, nums, den):
        # Cyclo._make only canonicalizes: sign, gcd, rationals to order 1
        canonical = Cyclo._make(at, nums, den)
        assert (value.order, value.nums, value.den) == (
            canonical.order, canonical.nums, canonical.den
        )

    for k in range(order):
        same(root_of_unity(order, k), order, powers[k], 1)
    nums = [(7 * e + 3) % 11 - 5 for e in range(deg)]
    x = sum(
        (Fraction(c, 3) * root_of_unity(order, e) for e, c in enumerate(nums)), Cyclo.zero()
    )
    same(x, order, nums, 3)
    units = [j for j in range(1, order) if math.gcd(j, order) == 1]
    for j in units[:3] + units[-1:]:
        same(x.galois(j), order, reference_reindex(powers, nums, j), 3)
    same(x.embed(2 * order), 2 * order, reference_reindex(double, nums, 2), 3)
    assert Cyclo.rational(5)._lift_vec(order) == [5] + [0] * (deg - 1)


def test_embed_examples():
    minus_one = root_of_unity(2, 1)
    assert minus_one.embed(72) == -1
    assert root_of_unity(9).embed(72) == root_of_unity(72, 8)
    z18 = root_of_unity(18)
    assert z18.embed(72).embed(18) == z18
    # zeta_12^4 = zeta_3 lies in Q(zeta_9), though neither order divides the other
    assert root_of_unity(12, 4).embed(9) == root_of_unity(9, 3)
    # into a multiple, the direct scatter from an order above the conductor
    # (Q(zeta_14) = Q(zeta_7)) and the route through the conductor meet in
    # one interned object
    x = root_of_unity(14, 3) + Fraction(1, 2) * root_of_unity(14, 4)
    assert x.order == 14 and x.embed(504) is x.embed(7).embed(504)


def test_embed_errors():
    with pytest.raises(NonDivisibleOrderError):
        root_of_unity(9).embed(12)
    # zeta_72 does not lie in Q(zeta_24)
    with pytest.raises(NonDivisibleOrderError):
        root_of_unity(72, 1).embed(24)


def test_sqrt_constants():
    assert sqrt2(72) ** 2 == 2
    assert sqrt3(72) ** 2 == 3
    assert abs(sqrt2(72).to_complex() - 1.41421356237309) < 1e-11
    assert abs(sqrt3(72).to_complex() - 1.73205080756887) < 1e-11
    with pytest.raises(ValueError):
        sqrt2(12)
    with pytest.raises(ValueError):
        sqrt3(8)


def test_to_complex_examples():
    assert Cyclo.one().to_complex() == 1 + 0j
    assert abs(root_of_unity(4).to_complex() - 1j) < 1e-15
    z18 = root_of_unity(18)
    assert abs(z18.to_complex() - cmath.exp(1j * math.pi / 9)) < 1e-12
    assert abs(z18.to_complex() - complex(0.9396926, 0.3420201)) < 1e-6


def test_rational_canonicalization():
    z3 = root_of_unity(3)
    assert (z3 + z3.conj()).order == 1
    assert z3 + z3.conj() == -1
    assert len({z3 + z3.conj(), -1}) == 1  # equal, so equal hashes
    assert (root_of_unity(8) * root_of_unity(8, 7)).order == 1
    # an irrational value hashes alike at every order that holds it
    z4, z8_2 = root_of_unity(4), root_of_unity(8, 2)
    assert len({z4, z8_2}) == 1
    assert {z4: "i"}.get(z8_2) == "i" and {z8_2: "i"}.get(z4) == "i"


def test_same_order_equality_compares_denominators():
    z = root_of_unity(72, 5)
    half = z * Fraction(1, 2)
    assert half.nums == z.nums and half != z
    assert half == z / 2 and hash(half) == hash(z / 2)
    assert z != root_of_unity(72, 6)


@pytest.mark.parametrize("value", [0, 1, -1, 7, -3, Fraction(1, 2), Fraction(-5, 3)])
def test_rational_eq_hash_contract(value):
    # equal values hash equally, so a rational and its Python number share a set
    c = Cyclo.rational(value)
    assert c == value and hash(c) == hash(value)
    assert len({c, value}) == 1
    assert {value: "python"}[c] == "python"


def reference_product(a, b):
    """The dense convolution of the lifted coefficient vectors, then one
    reduction mod Phi_N: the product before it looped over nonzero terms."""
    order = math.lcm(a.order, b.order)
    an = a._lift_vec(order)
    bn = b._lift_vec(order)
    conv = [0] * (2 * len(an) - 1)
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn):
                if bj:
                    conv[i + j] += ai * bj
    return Cyclo._make(order, _context(order).reduce(conv), a.den * b.den)


def seeded_value(rng, order, kind):
    """A root of unity, a sparse value (up to three roots of unity over a
    small denominator) or a dense one (every power-basis coefficient
    random)."""
    if kind == "root":
        return root_of_unity(order, rng.randrange(order))
    den = rng.randint(1, 6)
    if kind == "sparse":
        return sum(
            (Fraction(rng.choice([-3, -1, 1, 2]), den) * root_of_unity(order, rng.randrange(order))
             for _ in range(rng.randint(1, 3))),
            Cyclo.zero(),
        )
    deg = len(cyclotomic_polynomial(order)) - 1
    return Cyclo._make(order, [rng.randint(-9, 9) for _ in range(deg)], den)


@pytest.mark.parametrize("orders, kinds", [
    ((72, 72), ("root", "root")),
    ((72, 72), ("root", "sparse")),
    ((72, 72), ("sparse", "dense")),
    ((72, 72), ("dense", "dense")),
    ((97, 97), ("root", "root")),
    ((97, 97), ("root", "sparse")),
    ((97, 97), ("sparse", "sparse")),
    ((97, 97), ("dense", "dense")),
    ((504, 504), ("root", "root")),
    ((504, 504), ("sparse", "sparse")),
    ((504, 504), ("dense", "root")),
    ((504, 504), ("dense", "dense")),
    ((4084, 4084), ("root", "root")),
    ((4084, 4084), ("sparse", "root")),
    ((4084, 4084), ("dense", "sparse")),
    ((24, 36), ("dense", "dense")),
    ((56, 72), ("sparse", "dense")),
    ((8, 9), ("root", "dense")),
    ((1021, 4), ("sparse", "root")),
    ((1, 504), ("dense", "dense")),
])
def test_product_matches_dense_reference(orders, kinds):
    rng = random.Random(f"{orders}{kinds}")
    a, b = (seeded_value(rng, n, kind) for n, kind in zip(orders, kinds))
    for x, y in ((a, b), (b, a)):
        got, want = x * y, reference_product(x, y)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_coefficient_strings_match_fraction():
    # numerators negative, zero and sharing a factor with the denominator
    x = Cyclo._make(72, [-4, 0, 3, 6, -6, 5, 12, -1] + [0] * 16, 12)
    assert x.den == 12
    coeffs = x.to_dict()["coeffs"]
    assert coeffs == [str(Fraction(n, 12)) for n in x.nums]
    assert coeffs[:8] == ["-1/3", "0", "1/4", "1/2", "-1/2", "5/12", "1", "-1/12"]
    assert Cyclo.rational(Fraction(-6, 4)).to_dict()["coeffs"] == ["-3/2"]
    assert Cyclo.zero().to_dict()["coeffs"] == ["0"]
    assert root_of_unity(72, 30).to_dict()["coeffs"] == [str(n) for n in root_of_unity(72, 30).nums]


def test_serialization_shape():
    d = root_of_unity(72, 15).to_dict()
    assert d["order"] == 72
    assert len(d["coeffs"]) == 24
    assert d["coeffs"][15] == "1"
    assert len(d["approx"]) == 2


# -- interning and the memos ----------------------------------------------------

def test_equal_canonical_values_are_one_object():
    z72 = root_of_unity(72)
    assert root_of_unity(8).embed(72) is root_of_unity(72, 9) is root_of_unity(72, 81) is z72 ** 9
    assert sqrt2(72) is root_of_unity(72, 9) + root_of_unity(72, 63)
    assert Cyclo.rational(0) is Cyclo.zero() is z72 - z72 is 0 * z72
    assert Cyclo.rational(Fraction(4, 2)) is Cyclo.rational(2) is sqrt2(8) * sqrt2(8)
    z3 = root_of_unity(3)
    assert z3 + z3.conj() is Cyclo.rational(-1) is -Cyclo.one()
    x = Fraction(3, 7) * z72 ** 17 - root_of_unity(8)
    assert Cyclo._make(72, x.nums, x.den) is x
    assert Cyclo._make(72, [-2 * c for c in x.nums], -2 * x.den) is x
    assert (x * 2) / 2 is x and x.inv().inv() is x and x.conj().conj() is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
    # equal values held at different orders are different objects, still equal
    assert root_of_unity(4) == root_of_unity(8, 2) and root_of_unity(4) is not root_of_unity(8, 2)


def test_equal_values_at_one_working_order_are_one_object():
    # the closure names a matrix by its entries' serial ids, which is exact
    # only if every path to a value held at the working order ends at one
    # object: a product, an embedding, a root of unity, a sum whose partial
    # sum is rational, and the kernel `combine`, whose zero factors are skipped
    z = root_of_unity(72)
    target = root_of_unity(72, 21)
    half = Fraction(1, 2)
    through_rational = z ** 21 + (half - target)
    assert through_rational is Cyclo.rational(half)
    paths = [
        root_of_unity(72, 10) * root_of_unity(72, 11),
        z ** 21,
        root_of_unity(24, 7).embed(72),
        root_of_unity(72, 21 + 72 * 3),
        (through_rational + target) - half,
        _kernel_dot([z ** 20, Cyclo.zero(), sqrt2(72)], [z, z, Cyclo.zero()]),
        target.conj().conj(),
        target * Fraction(2, 3) * Fraction(3, 2),
    ]
    assert [v is target for v in paths] == [True] * len(paths)
    assert {v._id for v in paths} == {target._id}
    # a value with several terms and a denominator, reached two ways
    x = Fraction(3, 7) * z ** 17 - root_of_unity(8).embed(72)
    y = (z ** 17 - Fraction(7, 3) * root_of_unity(72, 9)) * Fraction(3, 7)
    assert x is y and x.order == 72


def _reference_dot(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _kernel_dot(xs, ys):
    """sum_k xs[k] * ys[k] as one row of the kernel against one-entry vectors."""
    (entry,), = combine([xs], [(y,) for y in ys])
    return entry


@given(any_cyclo, any_cyclo, any_cyclo, st.sampled_from([Cyclo.zero(), Cyclo.one()]))
def test_memo_hits_equal_a_fresh_computation(x, y, z, c):
    pairs = [([x, y], [y, z]), ([c, x, z], [z, c, y]), ([c], [x])]

    def kernel():
        return [x * y, y * x, x + y, y + x, z * c, z + c] + [_kernel_dot(a, b) for a, b in pairs]

    kernel()  # fills the memos, so the next run reads every result from them
    remembered = kernel()
    cyclo._MUL_MEMO.clear()
    cyclo._ADD_MEMO.clear()
    fresh = kernel()
    assert [v.key_bytes() for v in remembered] == [v.key_bytes() for v in fresh]
    assert [v.key_bytes() for v in remembered[6:]] == [
        _reference_dot(a, b).key_bytes() for a, b in pairs
    ]


# -- the sum-of-products kernel ------------------------------------------------
# Every value below is rational or held at order 72, so an irrational sum
# is held at 72 whatever its association, and equal values are one object.

PHASES = [root_of_unity(72, k) for k in range(72)]
WORKING = [
    root_of_unity(72, 5), root_of_unity(72, 9) + root_of_unity(72, 40), sqrt2(72),
    Fraction(3, 7) * root_of_unity(72, 17) - root_of_unity(72, 9),
]
RATIONALS = [Cyclo.one(), Cyclo.rational(-1), Cyclo.rational(Fraction(-2, 3)), Cyclo.rational(3)]


def drawn_row(dim):
    """A row that is all zero, all zero but one 1, all zero but one phase,
    dense, or a mix of zeros, rationals and working-order values."""
    zero = Cyclo.zero()

    def single(k, v):
        return tuple(v if j == k else zero for j in range(dim))

    position = st.integers(0, dim - 1)
    return st.one_of(
        st.just((zero,) * dim),
        position.map(lambda k: single(k, Cyclo.one())),
        st.builds(single, position, st.sampled_from(PHASES)),
        st.tuples(*[st.sampled_from(WORKING + RATIONALS)] * dim),
        st.tuples(*[st.sampled_from([zero, *WORKING[:2], *RATIONALS])] * dim),
    )


@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.tuples(*[drawn_row(dim)] * dim),
    st.integers(1, 4).flatmap(lambda width: st.tuples(*[drawn_row(width)] * dim)),
)))
def test_combine_is_the_index_order_sum(factors):
    rows, vectors = factors
    out = combine(rows, vectors)
    assert len(out) == len(rows) and all(type(line) is tuple for line in out)
    columns = list(zip(*vectors))
    for row, line in zip(rows, out):
        assert [entry._id for entry in line] == [_reference_dot(row, col)._id for col in columns]
        nonzero = [k for k, v in enumerate(row) if v is not Cyclo.zero()]
        if not nonzero:
            assert line == (Cyclo.zero(),) * len(columns)
        elif len(nonzero) == 1 and row[nonzero[0]] is Cyclo.one():
            assert line is vectors[nonzero[0]]  # the vector itself, no scalar product
    # the minors of det are kernel calls too
    m = UnitaryMatrix._make(rows)
    assert m.det() is leibniz_det(m)


# -- field axioms (property tests) ---------------------------------------------

@given(cyclo_values(72), cyclo_values(72), cyclo_values(72))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + 0 == x
    assert x * 1 == x
    assert x + (-x) == 0
    if not x.is_zero():
        assert x * x.inv() == 1


@given(cyclo_values(24), cyclo_values(24))
def test_conj_is_a_ring_homomorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(any_cyclo, any_cyclo)
def test_float_embedding_consistency(x, y):
    lhs = (x + y).to_complex()
    rhs = x.to_complex() + y.to_complex()
    assert abs(lhs - rhs) <= 1e-9
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) <= 1e-9


@given(cyclo_values(36))
def test_embedding_preserves_value(x):
    up = x.embed(72) if x.order > 1 else x
    assert up == x
    assert abs(up.to_complex() - x.to_complex()) < 1e-9


# -- sympy as a differential oracle ----------------------------------------------

def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.symbols("x")
    # every order to 200, then larger ones: the prime power 3^5, the theory
    # orders lcm(4r, 72) for r = 8, 7 and 13, the prime 1021 and the family
    # working order 4 * 1021
    for n in [*range(1, 201), 243, 288, 504, 936, 1021, 4084]:
        theirs = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in theirs), n


def sparse_values(order):
    """One or two roots of unity with small coefficients: sparse enough that
    the inverse of the (dense) inverse stays affordable at degree 144."""
    term = st.tuples(st.integers(0, order - 1), st.sampled_from([-2, -1, 1, 2]))
    return st.lists(term, min_size=1, max_size=2).map(
        lambda terms: sum((c * root_of_unity(order, e) for e, c in terms), Cyclo.zero())
    ).filter(lambda v: not v.is_zero())


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([97, 288, 360, 504]).flatmap(sparse_values))
def test_inverse_matches_sympy_and_round_trips(x):
    inverse = x.inv()
    assert x * inverse == 1
    assert inverse.inv() == x
    if x.order > 1:
        t = sympy.symbols("t")
        phi = sympy.Poly(cyclotomic_polynomial(x.order)[::-1], t, domain=sympy.QQ)
        poly = sympy.Poly([sympy.Rational(c) for c in x.coeffs[::-1]], t, domain=sympy.QQ)
        theirs = [Fraction(int(c.p), int(c.q)) for c in sympy.invert(poly, phi).all_coeffs()[::-1]]
        theirs += [Fraction(0)] * (len(inverse.coeffs) - len(theirs))
        assert inverse.coeffs == tuple(theirs)


def test_inverse_round_trip_of_a_generic_three_term_value():
    # generic rational coefficients at order 504 (phi = 144): the inverse is
    # dense, with numerators and denominator of about 190 digits
    x = 3 * root_of_unity(504, 5) + root_of_unity(504, 100) - Fraction(2, 7) * root_of_unity(504, 201)
    inverse = x.inv()
    assert x * inverse == 1
    assert inverse.inv() == x


@settings(deadline=None)
@given(
    st.sampled_from([12, 24, 36, 72]).flatmap(
        lambda order: st.tuples(cyclo_values(order), st.sampled_from([2, 3, 5]))
    )
)
def test_embed_round_trip(case):
    x, factor = case
    multiple = x.order * factor
    assert x.embed(multiple).embed(x.order) == x


@given(
    st.sampled_from([12, 24, 36]).flatmap(
        lambda order: st.tuples(st.just(order), cyclo_values(order), st.sampled_from([2, 3, 5]))
    )
)
def test_hash_contract_across_orders(case):
    # a value and its embedding into a multiple order are equal, so they
    # hash equally and make one set member
    order, x, factor = case
    up = x.embed(factor * order)
    assert up == x and hash(up) == hash(x)
    assert len({x, up}) == 1


def test_descent_matches_the_galois_fixed_field():
    # Galois theory, which the descent does not use: Q(zeta_M) inside
    # Q(zeta_N) is the field fixed by every zeta |-> zeta^u with u = 1 mod M
    rng = random.Random(20)
    outcomes = set()
    for order in (6, 12, 20, 24, 30, 36, 60, 72):
        divisors = [m for m in range(1, order + 1) if order % m == 0]
        units = [u for u in range(1, order) if math.gcd(u, order) == 1]
        for d in divisors:
            # a value of Q(zeta_d), written at the larger order
            x = sum(
                (rng.randint(-3, 3) * root_of_unity(order, order // d * e) for e in range(d)),
                Cyclo.zero(),
            ) / rng.randint(1, 4)
            for m in divisors:
                fixed = all(x.galois(u) == x for u in units if (u - 1) % m == 0)
                try:
                    low = x.embed(m)
                except NonDivisibleOrderError:
                    low = None
                assert (low is not None) == fixed, (x, m)
                if low is not None:
                    assert low.embed(order) == x
                outcomes.add(fixed)
    assert outcomes == {True, False}
