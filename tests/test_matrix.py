"""The row-by-row exact product, the cached matrix keys and the minor
expansion determinant against the plain triple loop and `dot`, the
per-entry key formatter and the Leibniz sum, also on the non-unitary
shifted matrices of the characteristic polynomial oracle."""

import random
from fractions import Fraction

import matrix_oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from matrix_oracles import charpoly, leibniz_det, schoolbook_mul

from su3braid import braidrep, recoupling
from su3braid.cyclo import Cyclo, dot, root_of_unity, sqrt2
from su3braid.matrix import NotUnitaryError, UnitaryMatrix


def _reference_key(m):
    parts = []
    for row in m.rows:
        for v in row:
            parts.append(b"%d:%s/%d" % (v.order, b",".join(b"%d" % n for n in v.nums), v.den))
    return b"%d|" % m.dim + b";".join(parts)


def _representation(m):
    return tuple((v.order, v.nums, v.den) for row in m.rows for v in row)


def _assert_same_product(a, b):
    product, reference = a * b, schoolbook_mul(a, b)
    assert product == reference
    assert _representation(product) == _representation(reference)
    assert product.key_bytes() == _reference_key(reference)


def _seeded_pairs(group, seed, count):
    rng = random.Random(seed)
    matrices = group.matrices
    return [(rng.choice(matrices), rng.choice(matrices)) for _ in range(count)]


def test_product_matches_triple_loop_on_the_paper_group(paper_group):
    for a, b in _seeded_pairs(paper_group, 72, 120):
        _assert_same_product(a, b)
        _assert_same_product(a.conj_transpose(), b)


def test_product_matches_triple_loop_on_the_monomial_order_648_group(family_648):
    # D(18,1,1;2,1,1) is monomial: six of the nine entries of every element are 0
    assert all(
        sum(v.is_zero() for v in row) == 2 for m in family_648.matrices for row in m.rows
    )
    for a, b in _seeded_pairs(family_648, 648, 120):
        _assert_same_product(a, b)


def _mixed_order_pool():
    """Entries of orders 1, 8 and 72, zeros included, so that products and
    sums lift across orders and some rows and columns vanish."""
    z8, z72 = root_of_unity(8), root_of_unity(72)
    return [
        Cyclo.zero(), Cyclo.zero(), Cyclo.one(), Cyclo.rational(Fraction(-2, 3)),
        z8, z8 ** 3, sqrt2(8), z8 - Fraction(1, 5),
        z72, z72 ** 5, z72 ** 9 + z72 ** 40, Fraction(3, 7) * z72 ** 17 - z8,
    ]


def _mixed_matrices(seed, count):
    pool = _mixed_order_pool()
    rng = random.Random(seed)
    out = [UnitaryMatrix._make(tuple(tuple(Cyclo.zero() for _ in range(3)) for _ in range(3)))]
    for _ in range(count):
        out.append(UnitaryMatrix._make(
            tuple(tuple(rng.choice(pool) for _ in range(3)) for _ in range(3))
        ))
    return out


def test_product_matches_triple_loop_on_mixed_order_entries():
    matrices = _mixed_matrices(8, 40)
    orders = {v.order for m in matrices for row in m.rows for v in row}
    assert orders == {1, 8, 72}
    for a in matrices:
        for b in matrices[::5]:
            _assert_same_product(a, b)


# entries for drawn factors: the 72nd roots of unity (the phases of a
# monomial row), working-order values with several terms and rationals,
# which are held at order 1 beside them
_PHASES = [root_of_unity(72, k) for k in range(72)]
_WORKING = [
    root_of_unity(72, 5), root_of_unity(72, 9) + root_of_unity(72, 40), sqrt2(72),
    Fraction(3, 7) * root_of_unity(72, 17) - root_of_unity(72, 9),
]
_RATIONALS = [Cyclo.one(), Cyclo.rational(-1), Cyclo.rational(Fraction(-2, 3)), Cyclo.rational(3)]


def _drawn_row(dim):
    """A row that is all zero but one 1, all zero but one phase, dense, or
    a mix of zeros, rationals and working-order values."""
    zero = Cyclo.zero()

    def single(k, v):
        return tuple(v if j == k else zero for j in range(dim))

    position = st.integers(0, dim - 1)
    return st.one_of(
        position.map(lambda k: single(k, Cyclo.one())),
        st.builds(single, position, st.sampled_from(_PHASES)),
        st.tuples(*[st.sampled_from(_WORKING + _RATIONALS)] * dim),
        st.tuples(*[st.sampled_from([zero, *_WORKING[:2], *_RATIONALS])] * dim),
    )


def _drawn_matrix(dim):
    return st.tuples(*[_drawn_row(dim)] * dim).map(UnitaryMatrix._make)


@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(_drawn_matrix(dim), _drawn_matrix(dim))))
def test_product_entries_are_the_interned_dot_of_row_and_column(factors):
    a, b = factors
    product = a * b
    columns = list(zip(*b.rows))
    for row, out in zip(a.rows, product.rows):
        assert [entry._id for entry in out] == [dot(row, column)._id for column in columns]
        nonzero = [k for k, v in enumerate(row) if not v.is_zero()]
        if len(nonzero) == 1 and row[nonzero[0]] is Cyclo.one():
            assert out is b.rows[nonzero[0]]  # the other's row itself, no scalar product
    reference = schoolbook_mul(a, b)
    assert [[v._id for v in row] for row in product.rows] == [
        [v._id for v in row] for row in reference.rows
    ]


def test_charpoly_intermediates_match_triple_loop(paper_matrices, family_648, monkeypatch):
    # charpoly multiplies by M_k + b_k I, which is not unitary
    matrices = list(paper_matrices) + _mixed_matrices(3, 10)
    matrices += list(family_648.matrices[::97])
    sparse = [charpoly(m) for m in matrices]
    monkeypatch.setattr(UnitaryMatrix, "__mul__", schoolbook_mul)
    dense = [charpoly(m) for m in matrices]
    assert sparse == dense
    assert [[(v.order, v.nums, v.den) for v in c] for c in sparse] == [
        [(v.order, v.nums, v.den) for v in c] for c in dense
    ]


@pytest.mark.parametrize("source", ["paper", "648", "mixed"])
def test_key_bytes_matches_per_entry_formatter(source, paper_group, family_648):
    if source == "paper":
        matrices = paper_group.matrices
    elif source == "648":
        matrices = family_648.matrices[::7]
    else:
        matrices = _mixed_matrices(5, 30)
    for m in matrices:
        assert m.key_bytes() == _reference_key(m)
        assert m.key_bytes() == _reference_key(m)  # the cached entry forms are stable


def test_cyclo_arithmetic_with_plain_numbers_still_coerces():
    z = root_of_unity(72, 5)
    assert z + 1 == 1 + z
    assert (z * Fraction(1, 2)) * 2 == z
    assert (z.__add__("x"), z.__mul__(1.5)) == (NotImplemented, NotImplemented)


def test_power_equals_the_repeated_product(paper_matrices, monkeypatch):
    g1, g2 = paper_matrices
    m = g1 * g2
    identity = UnitaryMatrix.identity(3)
    for k in range(-3, 6):
        factor = m if k >= 0 else m.conj_transpose()
        repeated = identity
        for _ in range(abs(k)):
            repeated = repeated * factor
        assert _representation(m ** k) == _representation(repeated), k

    calls = []
    mul = UnitaryMatrix.__mul__
    monkeypatch.setattr(UnitaryMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert m ** 1 is m
    assert m ** 0 == identity
    assert _representation(m ** -1) == _representation(m.conj_transpose())
    assert calls == []
    m ** 5  # squares to m^4, then one product: three in all
    assert len(calls) == 3


def test_det_matches_leibniz_on_group_elements(paper_group, family_648):
    matrices = list(paper_group.matrices)
    matrices += random.Random(648).sample(family_648.matrices, 60)
    for m in matrices:
        assert m.det() == leibniz_det(m)


def test_det_matches_leibniz_on_charpoly_intermediates(paper_matrices, family_648, monkeypatch):
    # charpoly multiplies by M_k + b_k I, which is not unitary
    shifted = []
    add_scalar = matrix_oracles.add_scalar
    monkeypatch.setattr(
        matrix_oracles, "add_scalar", lambda m, c: shifted.append(add_scalar(m, c)) or shifted[-1]
    )
    for m in list(paper_matrices) + list(family_648.matrices[::97]) + _mixed_matrices(3, 10):
        charpoly(m)
    non_unitary = [m for m in shifted if not m.is_unitary()]
    assert (len(shifted), len(non_unitary)) == (2 * 20, 27)
    for m in shifted:
        assert m.det() == leibniz_det(m)
    for m in _mixed_matrices(4, 30):
        assert m.det() == leibniz_det(m)


def test_det_matches_leibniz_on_braid_generators():
    dims = []
    for r in range(3, 9):
        t = recoupling.theory(r)
        for c in t.label_set:
            basis = braidrep.fusion_basis(t, c)
            try:
                mid = braidrep.sigma_mid(t, basis)
            except ValueError:  # no known exact square root of a loop value
                continue
            for m in (mid, braidrep.sigma_odd(t, basis)):
                assert m.det() == leibniz_det(m), (r, c)
            dims.append(basis.dim)
    assert len(dims) == 16 and set(dims) == {1, 2, 3}


@pytest.mark.parametrize("dim", [6, 7])
def test_det_is_the_charpoly_constant_in_dimension_6_and_7(dim):
    # the Leibniz sum is too slow here; det M = (-1)^n p(0) for the monic
    # characteristic polynomial p, whose recursion shares no code with det
    pool = _mixed_order_pool()
    rng = random.Random(dim)
    m = UnitaryMatrix._make(
        tuple(tuple(rng.choice(pool) for _ in range(dim)) for _ in range(dim))
    )
    assert sum(v.is_zero() for row in m.rows for v in row) < dim * dim // 2
    assert m.det() == (-1) ** dim * charpoly(m)[0]


def test_from_rows_refuses_empty_non_square_and_non_unitary_input():
    for make in (lambda: UnitaryMatrix.from_rows([]), lambda: UnitaryMatrix.diagonal([])):
        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            make()
    with pytest.raises(ValueError, match="^matrix must be square$"):
        UnitaryMatrix.from_rows([[1, 0]])
    with pytest.raises(NotUnitaryError):
        UnitaryMatrix.from_rows([[1, 0], [0, 2]])
