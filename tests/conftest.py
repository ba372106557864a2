import pytest
from group_oracles import index_of, subgroup
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
    g1, g2 = (paper_group.matrices[g] for g in paper_group.generators)
    words = matgroup.WordEvaluator({"G1": g1, "G2": g2})
    t2 = [("G2", 1), ("G1", 9), ("G2", -1)]
    return {
        "F": words([("G1", 1), ("G2", 1), ("G1", -2)]),
        "A": words([("G1", 1), ("G2", 2), ("G1", -1)]),
        "B": words([("G1", 1), ("G2", -2), ("G1", 1)]),
        "T1": words([("G1", 1), ("G2", 1), ("G1", 1)]),
        "T2": words(t2),
        "T3": words([*t2, ("G2", 1), ("G1", 2), *t2]),
    }


@pytest.fixture(scope="session")
def signed_words(paper_group):
    """The product of a word as `close` records it, signed 1-based indices
    of the braid image's generators, through one `WordEvaluator`; None for
    the empty word."""
    words = matgroup.WordEvaluator(
        {s: paper_group.matrices[g] for s, g in enumerate(paper_group.generators, 1)}
    )
    return lambda word: words([(abs(s), 1 if s > 0 else -1) for s in word])


@pytest.fixture(scope="session")
def subgroup_n(paper_group, named_elements):
    return subgroup(
        paper_group, [index_of(paper_group, named_elements[k]) for k in ("A", "B")]
    )


@pytest.fixture(scope="session")
def subgroup_h(paper_group, named_elements):
    return subgroup(
        paper_group, [index_of(paper_group, named_elements[k]) for k in ("T1", "T3")]
    )


@pytest.fixture(scope="session")
def verification_report():
    from su3braid.verify import run_theorem1_verification

    return run_theorem1_verification()
