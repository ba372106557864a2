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
    """The defining words inside the order-162 group, as matrices: F, A, B,
    T1, T2, T3."""
    gens = [paper_group.matrices[g] for g in paper_group.generators]
    word = lambda *idx: matgroup.word_eval(idx, gens)
    t2 = (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, -2)
    return {
        "F": word(1, 2, -1, -1),
        "A": word(1, 2, 2, -1),
        "B": word(1, -2, -2, 1),
        "T1": word(1, 2, 1),
        "T2": word(*t2),
        "T3": word(*t2, 2, 1, 1, *t2),
    }


@pytest.fixture(scope="session")
def subgroup_n(paper_group, named_elements):
    return matgroup.subgroup(
        paper_group, [paper_group.index_of(named_elements[k]) for k in ("A", "B")]
    )


@pytest.fixture(scope="session")
def subgroup_h(paper_group, named_elements):
    return matgroup.subgroup(
        paper_group, [paper_group.index_of(named_elements[k]) for k in ("T1", "T3")]
    )


@pytest.fixture(scope="session")
def verification_report():
    from su3braid.verify import run_theorem1_verification

    return run_theorem1_verification()
