import math
from fractions import Fraction

import pytest
from group_oracles import element_order
from matrix_oracles import charpoly

from su3braid import braidrep as br
from su3braid import recoupling as rc
from su3braid.cyclo import Cyclo, root_of_unity, sqrt2
from su3braid.matrix import UnitaryMatrix


@pytest.fixture(scope="module")
def t6():
    return rc.theory(6)


def brute_force_basis(t, c):
    """Enumeration oracle: internal labels alpha with (c, c, alpha) admissible."""
    return tuple(a for a in range(t.k + 1) if rc.admissible(t, c, c, a))


def test_fusion_basis(t6):
    assert br.fusion_basis(t6, 2).labels == (0, 2, 4)
    assert br.fusion_basis(t6, 0).labels == (0,)
    assert br.fusion_basis(t6, 1).labels == (0, 2)
    for c in range(5):
        assert br.fusion_basis(t6, c).labels == brute_force_basis(t6, c)
    with pytest.raises(ValueError):
        br.fusion_basis(t6, 9)


@pytest.mark.parametrize("r", range(3, 17))
def test_every_fusion_basis_starts_at_the_trivial_label(r):
    # (c, c, 0) is admissible for every charge c <= r - 2: 2c is even, the
    # triangle holds and 2c <= 2k, so no basis is empty
    t = rc.theory(r)
    for c in t.label_set:
        assert br.fusion_basis(t, c).labels[0] == 0, c


def test_sigma_odd_matches_display(t6):
    basis = br.fusion_basis(t6, 2)
    odd = br.sigma_odd(t6, basis)
    display = UnitaryMatrix.diagonal(
        [root_of_unity(72, 24), -root_of_unity(72, 12), root_of_unity(72, 60)]
    )
    assert odd == display
    assert odd.is_unitary()


def test_sigma_odd_order_before_phase(t6):
    # lcm of the orders of the three diagonal phases is 6
    basis = br.fusion_basis(t6, 2)
    odd = br.sigma_odd(t6, basis)
    assert element_order(odd, cap=50) == 6


def test_sigma_mid_entries(t6):
    basis = br.fusion_basis(t6, 2)
    mid = br.sigma_mid(t6, basis)
    t_const = sqrt2(72) / 2 * root_of_unity(72, 24)
    t_sq = t_const * t_const
    # (0,0) entry is t^2 = (1/2) e^(4 i pi/3)
    assert mid.rows[0][0] == t_sq
    assert mid.rows[0][0] == Fraction(1, 2) * root_of_unity(3, 2)
    display = UnitaryMatrix.from_rows(
        [[t_sq, t_const, -t_sq], [t_const, 0, t_const], [-t_sq, t_const, t_sq]]
    )
    assert mid == display
    assert all(mid.rows[i][j] == mid.rows[j][i] for i in range(mid.dim) for j in range(i))
    assert mid.is_unitary()


def test_sigma_mid_float_cross_check(t6):
    # independent numeric check of unitarity through the float embedding
    import numpy as np

    basis = br.fusion_basis(t6, 2)
    mid = br.sigma_mid(t6, basis)
    m = np.array([[v.to_complex() for v in row] for row in mid.rows])
    assert np.allclose(m @ m.conj().T, np.eye(3), atol=1e-12)


def test_su3_normalize(t6):
    basis = br.fusion_basis(t6, 2)
    odd = br.sigma_odd(t6, basis)
    phase = root_of_unity(72, 4)
    g1 = br.su3_normalize(odd, phase)
    assert g1.det() == 1
    assert br.su3_normalize(UnitaryMatrix.identity(3), 1) == UnitaryMatrix.identity(3)
    # shifting the phase by a cube root of unity still normalizes ...
    shifted = br.su3_normalize(odd, phase * root_of_unity(72, 24))
    assert shifted.det() == 1
    # ... but any other shift fails
    with pytest.raises(br.PhaseMismatchError):
        br.su3_normalize(odd, phase * root_of_unity(72, 8))


def test_paper_generators_displays(paper_matrices):
    g1, g2 = paper_matrices
    phase = root_of_unity(72, 4)
    t_const = sqrt2(72) / 2 * root_of_unity(72, 24)
    t_sq = t_const * t_const
    tbar_sq = t_sq.conj()
    assert g1 == UnitaryMatrix.diagonal([2 * tbar_sq, 2 * t_sq, -2 * tbar_sq]).scale(phase)
    assert g2 == UnitaryMatrix.from_rows(
        [[t_sq, t_const, -t_sq], [t_const, 0, t_const], [-t_sq, t_const, t_sq]]
    ).scale(phase)
    assert charpoly(g1) == charpoly(g2)


def test_generator_invariants(paper_matrices):
    g1, g2 = paper_matrices
    identity = UnitaryMatrix.identity(3)
    assert g1.is_unitary() and g2.is_unitary()
    assert g1.det() == 1 and g2.det() == 1
    assert g1 * g2 * g1 == g2 * g1 * g2
    assert g1 ** 2 * g2 ** 2 == g2 ** 2 * g1 ** 2
    assert g1 ** 18 == identity and g2 ** 18 == identity
    for exponent in range(1, 18):
        assert g1 ** exponent != identity
        assert g2 ** exponent != identity


def test_generator_spectrum(paper_matrices):
    g1, _ = paper_matrices
    spectrum = (
        root_of_unity(18, 7),
        -root_of_unity(18, 4),
        root_of_unity(18, 16),
    )
    for i, expected in enumerate(spectrum):
        assert g1.rows[i][i] == expected
    floats = [complex(v.to_complex()) for v in spectrum]
    angles = [math.pi * 7 / 9, math.pi * (1 + 4 / 9), -2 * math.pi / 9]
    for z, ang in zip(floats, angles):
        assert abs(z - complex(math.cos(ang), math.sin(ang))) < 1e-12


def test_small_charges_build_unitaries(t6):
    for c in (0, 1, 3, 4):
        basis = br.fusion_basis(t6, c)
        odd = br.sigma_odd(t6, basis)
        mid = br.sigma_mid(t6, basis)
        assert odd.is_unitary()
        assert mid.is_unitary()
        assert all(mid.rows[i][j] == mid.rows[j][i] for i in range(mid.dim) for j in range(i))


def test_sqrt_delta_limits():
    assert br._sqrt_delta(Cyclo.rational(Fraction(9, 4)), 72) == Fraction(3, 2)
    with pytest.raises(ValueError):
        br._sqrt_delta(Cyclo.rational(5), 72)
