import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from su3braid import cyclo
from su3braid import recoupling as rc
from su3braid.cyclo import Cyclo, root_of_unity, sqrt3


# Independent float oracle at r = 6: q = A^2 = e^(5 i pi/6), so
# [n] = sin(5 n pi/6) / sin(5 pi/6).
def qint_oracle(n: int) -> float:
    return math.sin(5 * n * math.pi / 6) / math.sin(5 * math.pi / 6)


@pytest.fixture(scope="module")
def t6():
    return rc.theory(6)


def test_theory_level4(t6):
    assert t6.k == 4
    assert t6.label_set == (0, 1, 2, 3, 4)
    a = root_of_unity(t6.order, t6.a_exponent)
    assert a == root_of_unity(24, 5).embed(72)
    # cross-check: delta_1 equals the loop value d = -A^2 - A^-2 = sqrt(3)
    d = -(a * a) - root_of_unity(t6.order, -2 * t6.a_exponent)
    assert d == sqrt3(t6.order)
    assert rc.delta_n(t6, 1) == d


def test_theory_small_levels():
    t3 = rc.theory(3)
    assert t3.k == 1 and rc.delta_n(t3, 1) == 1
    with pytest.raises(ValueError):
        rc.theory(2)


def test_theory_is_plain_integers():
    assert rc.TheoryParams._fields == ("r", "order")
    t6 = rc.theory(6)
    assert t6 == (6, 72) and hash(t6) == hash((6, 72))
    # building a theory builds no scalar
    interned = len(cyclo._INTERNED)
    rc.theory(97), rc._qa_theory(97)
    assert len(cyclo._INTERNED) == interned
    # A = zeta_{4r}^(r-1), at the working order
    for r in range(3, 17):
        t = rc.theory(r)
        assert root_of_unity(t.order, t.a_exponent) == root_of_unity(4 * r, r - 1)


def test_quantum_int_values(t6):
    assert rc.quantum_int(t6, 1) == 1
    assert rc.quantum_int(t6, 3) == 2
    assert rc.quantum_int(t6, 2) == -sqrt3(t6.order)
    for n in range(0, 12):
        assert abs(rc.quantum_int(t6, n).to_complex() - qint_oracle(n)) < 1e-9


@pytest.mark.parametrize("r", range(3, 17))
def test_quantum_int_equals_the_direct_geometric_sum(r):
    # [n] = sum_{j < n} q^(n-1-2j) for n >= 0 and [-n] = -[n], summed term by
    # term with no periodicity assumed: the exponents of [n + 2] are those of
    # [n] plus n + 1 and -(n + 1)
    t = rc.theory(r)
    q = 2 * t.a_exponent
    period = t.order // math.gcd(t.order, q)
    assert period in (r, 2 * r)
    direct = [Cyclo.zero(), Cyclo.one()]
    while len(direct) < 3 * period:
        n = len(direct) - 1
        direct.append(
            root_of_unity(t.order, q * n) + direct[n - 1] + root_of_unity(t.order, -q * n)
        )
    for n in range(-2 * period, 3 * period):
        assert rc.quantum_int(t, n) == (direct[n] if n >= 0 else -direct[-n])


def test_quantum_int_chebyshev_recursion(t6):
    two = rc.quantum_int(t6, 2)
    for n in range(1, 11):
        lhs = rc.quantum_int(t6, n + 1)
        rhs = two * rc.quantum_int(t6, n) - rc.quantum_int(t6, n - 1)
        assert lhs == rhs


def test_quantum_fact(t6):
    assert rc.quantum_fact(t6, 0) == 1
    assert rc.quantum_fact(t6, 3) == -2 * sqrt3(t6.order)
    assert rc.quantum_fact(t6, 4) == 6


def test_quantum_fact_cache_hit_hashes_no_cyclo(t6, monkeypatch):
    # a theory is two ints; equal theories, built apart, share the entries
    assert rc.theory(6) == t6 and hash(rc.theory(6)) == hash(t6)
    want = rc.quantum_fact(t6, 4), rc.inv_quantum_fact(t6, 4)
    hashed = []
    cyclo_hash = Cyclo.__hash__

    def counting(self):
        hashed.append(self)
        return cyclo_hash(self)

    monkeypatch.setattr(Cyclo, "__hash__", counting)
    hits = rc.quantum_fact.cache_info().hits, rc.inv_quantum_fact.cache_info().hits
    assert (rc.quantum_fact(t6, 4), rc.inv_quantum_fact(rc.theory(6), 4)) == want
    assert rc.quantum_fact.cache_info().hits == hits[0] + 1
    assert rc.inv_quantum_fact.cache_info().hits == hits[1] + 1
    assert hashed == []


def test_delta_values(t6):
    assert rc.delta_n(t6, 0) == 1
    assert rc.delta_n(t6, 4) == 1
    assert rc.delta_n(t6, 2) == 2
    assert rc.delta_n(t6, 1) == sqrt3(t6.order)
    assert rc.delta_n(t6, 5) == 0  # level truncation


def test_admissible(t6):
    assert rc.admissible(t6, 2, 2, 0)
    assert not rc.admissible(t6, 2, 2, 5)
    assert not rc.admissible(t6, 4, 4, 4)
    with pytest.raises(ValueError):
        rc.admissible(t6, -1, 2, 2)


def test_vertex_exponents():
    v = rc.vertex_exponents(2, 2, 2)
    assert (v.m, v.n, v.p) == (1, 1, 1)
    v = rc.vertex_exponents(4, 2, 2)
    assert (v.m, v.n, v.p) == (2, 2, 0)
    with pytest.raises(rc.InadmissibleTripleError):
        rc.vertex_exponents(4, 1, 1)


def test_r_values(t6):
    assert rc.r_value(t6, 0, 2, 2).conj() == root_of_unity(72, 24)    # e^(2 i pi/3)
    assert rc.r_value(t6, 2, 2, 2).conj() == -root_of_unity(72, 12)   # -e^(i pi/3)
    assert rc.r_value(t6, 4, 2, 2).conj() == root_of_unity(72, 60)    # e^(-i pi/3)
    with pytest.raises(rc.InadmissibleTripleError):
        rc.r_value(t6, 1, 2, 2)


def test_theta_values(t6):
    rt3 = sqrt3(t6.order)
    assert rc.theta(t6, 2, 2, 0) == 2
    assert rc.theta(t6, 2, 2, 0) == rc.delta_n(t6, 2)
    assert rc.theta(t6, 2, 2, 2) == 2 / rt3
    assert rc.theta(t6, 2, 2, 4) == 1
    with pytest.raises(rc.InadmissibleTripleError):
        rc.theta(t6, 2, 2, 1)


def test_tet_table(t6):
    rt3 = sqrt3(t6.order)
    table = {
        (0, 0): rc.quantum_int(t6, 3),     # 2
        (2, 0): 2 / rt3,
        (2, 2): rc.quantum_int(t6, 0),     # 0
        (4, 0): rc.quantum_int(t6, 1),     # 1
        (4, 2): -1 / rt3,
        (4, 4): Fraction(1, 2),
    }
    for (i, j), expected in table.items():
        assert rc.tet(t6, 2, 2, j, 2, 2, i) == expected, (i, j)


def test_tet_symmetry_and_theta_identity(t6):
    for i in (0, 2, 4):
        for j in (0, 2, 4):
            assert rc.tet(t6, 2, 2, j, 2, 2, i) == rc.tet(t6, 2, 2, i, 2, 2, j)
        assert rc.theta(t6, 2, 2, i) == rc.tet(t6, 2, 2, i, 2, 2, 0)


def test_tet_inadmissible(t6):
    with pytest.raises(rc.InadmissibleTripleError):
        rc.tet(t6, 2, 2, 1, 2, 2, 0)


def test_sixj_values(t6):
    # frozen from the composition rule applied to the tet/theta table:
    #   {2 2 0; 2 2 0} = 2 * 1 / (2 * 2)             = 1/2
    #   {2 2 0; 2 2 2} = (2/sqrt3) * 2 / ((2/sqrt3)*2) = 1
    #   {2 2 2; 2 2 2} = 0 * 2 / ((2/sqrt3)^2)        = 0
    assert rc.sixj(t6, 2, 2, 0, 2, 2, 0) == Fraction(1, 2)
    assert rc.sixj(t6, 2, 2, 0, 2, 2, 2) == 1
    assert rc.sixj(t6, 2, 2, 2, 2, 2, 2) == 0


admissible_triples = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)


@given(admissible_triples)
def test_r_values_have_unit_modulus(triple):
    t = rc.theory(6)
    b, c, a = triple
    assume(rc.admissible(t, b, c, a))
    value = rc.r_value(t, a, b, c)
    assert value * value.conj() == 1


@given(admissible_triples)
def test_theta_is_symmetric(triple):
    t = rc.theory(6)
    a, b, c = triple
    assume(rc.admissible(t, a, b, c))
    base = rc.theta(t, a, b, c)
    assert rc.theta(t, b, a, c) == base
    assert rc.theta(t, c, b, a) == base


@given(st.integers(3, 8))
def test_level_truncation(r):
    t = rc.theory(r)
    assert rc.delta_n(t, t.k + 1) == 0


# -- division-free nets against the division-based closed forms ----------------
#
# The oracle works at the working order t.order throughout: its quantum
# integers are geometric sums of roots of unity built there, and it divides.

def ref_quantum_int(t, n):
    """[n] = sum_{j < |n|} q^(|n|-1-2j), negated for n < 0, with no period."""
    q = 2 * t.a_exponent
    acc = Cyclo.zero()
    for j in range(abs(n)):
        acc = acc + root_of_unity(t.order, q * (abs(n) - 1 - 2 * j))
    return -acc if n < 0 else acc


def ref_fact(t, n):
    value = Cyclo.one()
    for m in range(1, n + 1):
        value = value * ref_quantum_int(t, m)
    return value


def fields(t, x):
    """(order, nums, den) of x, after checking that x is held at t's working
    order (or is rational, which is canonically order 1)."""
    assert x.order in (1, t.order), x.order
    return x.order, x.nums, x.den


def ref_theta(t, a, b, c):
    """theta as numerator / denominator, one exact inverse per call."""
    if not rc.admissible(t, a, b, c):
        raise rc.InadmissibleTripleError(f"({a},{b},{c}) is not admissible")
    v = rc.vertex_exponents(a, b, c)
    s = v.m + v.n + v.p
    num = (
        ref_fact(t, s + 1)
        * ref_fact(t, v.m)
        * ref_fact(t, v.n)
        * ref_fact(t, v.p)
    )
    den = ref_fact(t, a) * ref_fact(t, b) * ref_fact(t, c)
    value = num / den
    return -value if s % 2 else value


def ref_tet(t, a, b, e, c, d, f):
    """tet with one exact division per summand and one for the exterior."""
    triples = ((a, d, e), (b, c, e), (a, b, f), (c, d, f))
    for triple in triples:
        if not rc.admissible(t, *triple):
            raise rc.InadmissibleTripleError(f"vertex {triple} is not admissible")
    half = [(x + y + z) // 2 for x, y, z in triples]
    squares = [(b + d + e + f) // 2, (a + c + e + f) // 2, (a + b + c + d) // 2]
    interior = Cyclo.one()
    for bj in squares:
        for ai in half:
            interior = interior * ref_fact(t, bj - ai)
    exterior = Cyclo.one()
    for edge in (a, b, c, d, e, f):
        exterior = exterior * ref_fact(t, edge)
    acc = Cyclo.zero()
    for s in range(max(half), min(squares) + 1):
        den = Cyclo.one()
        for ai in half:
            den = den * ref_fact(t, s - ai)
        for bj in squares:
            den = den * ref_fact(t, bj - s)
        term = ref_fact(t, s + 1) / den
        acc = acc - term if s % 2 else acc + term
    return interior / exterior * acc


def ref_sixj(t, a, b, k, c, d, i):
    delta_i = (-1) ** i * ref_quantum_int(t, i + 1)
    value = ref_tet(t, a, b, k, c, d, i)
    return value * delta_i / (ref_theta(t, a, d, i) * ref_theta(t, c, b, k))


def admissible_thetas(t):
    return [x for x in itertools.product(t.label_set, repeat=3) if rc.admissible(t, *x)]


def admissible_tets(t):
    """Label sets (a, b, e, c, d, f) whose four tet vertices are admissible."""
    return [
        (a, b, e, c, d, f)
        for a, b, e, c, d, f in itertools.product(t.label_set, repeat=6)
        if all(rc.admissible(t, *v) for v in ((a, d, e), (b, c, e), (a, b, f), (c, d, f)))
    ]


def admissible_sixjs(t):
    """Tet label sets whose second 6j normalisation theta(a, d, i) is defined."""
    return [x for x in admissible_tets(t) if rc.admissible(t, x[0], x[4], x[5])]


@pytest.mark.parametrize("r", range(3, 11))
def test_inverse_quantum_factorials(r):
    t = rc.theory(r)
    for n in range(r):
        assert rc.quantum_fact(t, n) * rc.inv_quantum_fact(t, n) == 1, n
    with pytest.raises(rc.ZeroDenominatorError):
        rc.inv_quantum_fact(t, r)


@pytest.mark.parametrize("r", [5, 6])
def test_division_free_nets_match_division_on_every_label_set(r):
    t = rc.theory(r)
    for x in admissible_thetas(t):
        assert fields(t, rc.theta(t, *x)) == fields(t, ref_theta(t, *x)), x
        assert rc.theta(t, *x) * rc.inv_theta(t, *x) == 1, x
    for x in admissible_tets(t):
        assert fields(t, rc.tet(t, *x)) == fields(t, ref_tet(t, *x)), x
    for x in admissible_sixjs(t):
        assert fields(t, rc.sixj(t, *x)) == fields(t, ref_sixj(t, *x)), x


@pytest.mark.parametrize("r", [7, 8])
def test_division_free_nets_match_division_on_a_sample(r):
    t = rc.theory(r)
    rng = random.Random(r)
    for x in rng.sample(admissible_thetas(t), 8):
        assert rc.theta(t, *x) == ref_theta(t, *x), x
    for x in rng.sample(admissible_tets(t), 8):
        assert rc.tet(t, *x) == ref_tet(t, *x), x
    for x in rng.sample(admissible_sixjs(t), 8):
        assert rc.sixj(t, *x) == ref_sixj(t, *x), x


def sample_label_sets(t, rng, size, count, valid):
    """count distinct label tuples of the given size passing valid, drawn
    uniformly from the label set with rejection."""
    found = set()
    while len(found) < count:
        x = tuple(rng.choice(t.label_set) for _ in range(size))
        if valid(x):
            found.add(x)
    return sorted(found)


def is_tet(t, x):
    """The four tet vertices of (a, b, e, c, d, f) are admissible."""
    a, b, e, c, d, f = x
    return all(rc.admissible(t, *v) for v in ((a, d, e), (b, c, e), (a, b, f), (c, d, f)))


def is_sixj(t, x):
    """A tet label set whose second 6j normalisation theta(a, d, i) is defined."""
    return is_tet(t, x) and rc.admissible(t, x[0], x[4], x[5])


def test_public_evaluators_return_the_working_order_value_at_r13():
    t = rc.theory(13)
    rng = random.Random(13)
    for x in sample_label_sets(t, rng, 3, 8, lambda x: rc.admissible(t, *x)):
        assert fields(t, rc.theta(t, *x)) == fields(t, ref_theta(t, *x)), x
        assert fields(t, rc.inv_theta(t, *x)) == fields(t, 1 / ref_theta(t, *x)), x
    for x in sample_label_sets(t, rng, 6, 6, lambda x: is_tet(t, x)):
        assert fields(t, rc.tet(t, *x)) == fields(t, ref_tet(t, *x)), x
    for x in sample_label_sets(t, rng, 6, 6, lambda x: is_sixj(t, x)):
        assert fields(t, rc.sixj(t, *x)) == fields(t, ref_sixj(t, *x)), x


@pytest.mark.parametrize("r", [5, 6, 13])
def test_each_quantity_has_one_route_through_q_a(r):
    # every public evaluator also takes the Q(A) theory: there it returns the
    # value held at N_A (or at 1 when rational), and that value, embedded
    # into the working order, is the very object the working-order call gives
    t, qa = rc.theory(r), rc._qa_theory(r)
    rng = random.Random(r)

    def one_route(name, *args):
        f = getattr(rc, name)
        value = f(qa, *args)
        assert value.order in (qa.order, 1), (name, args, value.order)
        assert value.embed(t.order) is f(t, *args), (name, args)

    for n in range(-r, 2 * r):
        one_route("quantum_int", n)
    for n in range(2 * r):
        one_route("quantum_fact", n)
        one_route("delta_n", n)
    for x in sample_label_sets(t, rng, 3, 8, lambda x: rc.admissible(t, *x)):
        one_route("r_value", *x)
        one_route("theta", *x)
        one_route("inv_theta", *x)
    for x in sample_label_sets(t, rng, 6, 6, lambda x: is_tet(t, x)):
        one_route("tet", *x)
    for x in sample_label_sets(t, rng, 6, 6, lambda x: is_sixj(t, x)):
        one_route("sixj", *x)


@pytest.mark.parametrize("r", [5, 6, 13])
def test_public_scalars_return_the_working_order_value(r):
    t = rc.theory(r)
    for n in range(-r, 3 * r):
        assert fields(t, rc.quantum_int(t, n)) == fields(t, ref_quantum_int(t, n)), n
    for n in range(2 * r):
        assert fields(t, rc.quantum_fact(t, n)) == fields(t, ref_fact(t, n)), n
        want = (-1) ** n * ref_quantum_int(t, n + 1)
        assert fields(t, rc.delta_n(t, n)) == fields(t, want), n
    for a, b, c in itertools.product(t.label_set, repeat=3):
        if rc.admissible(t, b, c, a):
            exponent = (b * (b + 2) + c * (c + 2) - a * (a + 2)) // 2
            want = (-1) ** ((b + c - a) // 2) * root_of_unity(t.order, t.a_exponent * exponent)
            assert fields(t, rc.r_value(t, a, b, c)) == fields(t, want), (a, b, c)


def test_one_inverse_per_quantum_integer(monkeypatch):
    t = rc.theory(5)
    rc.quantum_fact.cache_clear()
    rc.inv_quantum_fact.cache_clear()
    calls = []
    inv = Cyclo.inv

    def counting_inv(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(Cyclo, "inv", counting_inv)
    for x in admissible_sixjs(t):
        rc.sixj(t, *x)
    assert 0 < len(calls) <= t.r - 1
    # the nets run in Q(A), A a 4r-th root of unity: nothing is inverted at
    # the working order lcm(4r, 72) = 360
    assert all(4 * t.r % x.order == 0 for x in calls), [x.order for x in calls]
