import pytest
from hypothesis import HealthCheck, settings

from su3braid import braidrep, matgroup, recoupling
from su3braid.su3families import CParams, DParams, d_generators

settings.register_profile(
    "fixed",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def theory6():
    return recoupling.theory(6)


@pytest.fixture(scope="session")
def paper_matrices():
    return braidrep.paper_generators()


@pytest.fixture(scope="session")
def paper_group(paper_matrices):
    g1, g2 = paper_matrices
    return matgroup.close([g1, g2])


@pytest.fixture(scope="session")
def family_group():
    return matgroup.close(d_generators(DParams(CParams(9, 1, 1), 2, 1, 1)))


@pytest.fixture(scope="session")
def family_648():
    """D(18,1,1;2,1,1): monomial, order 648, with involutions."""
    return matgroup.close(d_generators(DParams(CParams(18, 1, 1), 2, 1, 1)))


@pytest.fixture(scope="session")
def named_elements(paper_group):
    """The defining words inside the order-162 group: F, A, B, T1, T2, T3."""
    g1, g2 = paper_group.generators
    word = lambda *idx: matgroup.word_eval(idx, [g1, g2])
    out = {
        "F": word(1, 2, -1, -1),
        "A": word(1, 2, 2, -1),
        "B": word(1, -2, -2, 1),
        "T1": word(1, 2, 1),
        "T2": word(2, 1, 1, 1, 1, 1, 1, 1, 1, 1, -2),
    }
    out["T3"] = matgroup.word_eval(out["T2"].word + (2, 1, 1) + out["T2"].word, [g1, g2])
    return out


@pytest.fixture(scope="session")
def subgroup_n(paper_group, named_elements):
    return matgroup.subgroup(paper_group, [named_elements["A"], named_elements["B"]])


@pytest.fixture(scope="session")
def subgroup_h(paper_group, named_elements):
    return matgroup.subgroup(paper_group, [named_elements["T1"], named_elements["T3"]])


@pytest.fixture(scope="session")
def verification_report():
    from su3braid.verify import run_theorem1_verification

    return run_theorem1_verification()
