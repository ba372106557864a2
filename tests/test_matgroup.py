import functools
import itertools
import json
import math
import random
import re
from operator import itemgetter

import pytest
from group_oracles import (
    DecompositionNotFoundError, NoFactorizationError, NonUniqueFactorizationError,
    NotAbelianError, NotASubgroupError, OrderExceedsCapError, SemidirectReport,
    abelian_invariants, cayley_table, conjugacy_classes, decompose, element_order,
    extend_to_isomorphism, find_isomorphism, index_of, intersect, is_normal, key_set,
    same_matrix_set, semidirect_verify, subgroup,
)

from su3braid import matgroup as mg
from su3braid import verify
from su3braid.braidrep import paper_generators
from su3braid.cyclo import root_of_unity
from su3braid.matrix import UnitaryMatrix
from su3braid.su3families import CParams, DParams, c_generators, d_generators


def test_close_small_groups():
    d = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    assert d.order == 2
    assert d.matrices[0] == UnitaryMatrix.identity(3)
    c4 = mg.close([UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3)])])
    assert c4.order == 4


def test_close_generator_orders(paper_group, paper_matrices):
    g1, _ = paper_matrices
    assert mg.close([g1]).order == 18
    assert paper_group.order == 162


def test_close_cap():
    z = UnitaryMatrix.diagonal([root_of_unity(36), root_of_unity(36, 35)])
    with pytest.raises(mg.GroupTooLargeError):
        mg.close([z], cap=10)


def test_closure_soundness_sampled(paper_group):
    rng = random.Random(7)
    matrices = paper_group.matrices
    for _ in range(40):
        a = rng.choice(matrices)
        b = rng.choice(matrices)
        assert (a * b).key_bytes() in paper_group.keys
        assert a.conj_transpose().key_bytes() in paper_group.keys


def test_word_provenance(paper_group, signed_words):
    assert paper_group.words[0] == ()
    assert paper_group.matrices[0] == UnitaryMatrix.identity(3)
    for word, key in zip(paper_group.words[1:], paper_group.keys[1:]):
        assert signed_words(word).key_bytes() == key


def test_element_order(paper_group, named_elements):
    assert element_order(paper_group.matrices[0]) == 1
    assert element_order(named_elements["A"]) == 9
    assert element_order(named_elements["B"]) == 3
    assert element_order(named_elements["T1"]) == 2
    with pytest.raises(OrderExceedsCapError):
        element_order(named_elements["A"], cap=5)


def test_subgroup_orders(paper_group, named_elements, subgroup_n, subgroup_h):
    assert subgroup_n.order == 27
    assert subgroup_h.order == 6
    trivial = subgroup(paper_group, [0])
    assert trivial.order == 1
    # Lagrange on every subgroup we build
    for sub in (subgroup_n, subgroup_h, trivial):
        assert paper_group.order % sub.order == 0


def test_subgroup_rejects_outsiders(paper_group):
    stranger = UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])
    with pytest.raises(ValueError):
        subgroup(paper_group, [index_of(paper_group, stranger)])
    # an index outside 0..order-1, which would otherwise wrap or overrun
    for x in (-1, paper_group.order):
        with pytest.raises(ValueError):
            subgroup(paper_group, [x])


def test_index_of_a_matrix_held_at_another_order(family_group):
    d = UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3), 1])
    group = mg.close([d])
    assert group.working_order == 4
    assert d.embed(8) == d and d.embed(8).key_bytes() != d.key_bytes()
    assert index_of(group, d.embed(8)) == index_of(group, d) == group.generators[0]
    # F^3 of D(9,1,1;2,1,1) (working order 36) held at order 24, which
    # neither divides nor is divided by 36
    f = family_group.matrices[family_group.generators[1]]
    f3 = f * f * f
    held = f3.embed(12).embed(24)
    assert held.key_bytes() != f3.key_bytes()
    assert index_of(family_group, held) == index_of(family_group, f3)
    # zeta_8 does not lie in Q(zeta_4), Q(zeta_3) and Q(zeta_4) share no
    # embedding, and diag(-1, 1, -1) lies in Q(zeta_4) but not in the group
    strangers = [
        UnitaryMatrix.diagonal([entry, entry.conj(), 1])
        for entry in (root_of_unity(8), root_of_unity(3))
    ]
    for stranger in strangers + [UnitaryMatrix.diagonal([-1, 1, -1])]:
        with pytest.raises(ValueError):
            index_of(group, stranger)


def _outside():
    """A subgroup of a group other than the braid image."""
    group = mg.close([UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])])
    return subgroup(group, group.generators)


def test_is_normal(paper_group, subgroup_n, subgroup_h):
    assert is_normal(paper_group, subgroup_n)
    assert not is_normal(paper_group, subgroup_h)
    assert is_normal(paper_group, subgroup(paper_group, paper_group.generators))
    with pytest.raises(NotASubgroupError):
        is_normal(paper_group, _outside())
    with pytest.raises(NotASubgroupError):  # a group is not a subgroup record
        is_normal(paper_group, paper_group)


def test_intersect(paper_group, named_elements, subgroup_n, subgroup_h):
    cyc_a = subgroup(paper_group, [index_of(paper_group, named_elements["A"])])
    cyc_b = subgroup(paper_group, [index_of(paper_group, named_elements["B"])])
    assert intersect(cyc_a, cyc_b).order == 1
    assert intersect(subgroup_h, subgroup_n).order == 1
    assert intersect(subgroup_n, subgroup_n).order == subgroup_n.order


def test_groups_at_different_working_orders_are_refused(paper_group):
    # equal matrix sets held at orders 4 and 8: still two groups, so a
    # subgroup of one is refused by the other
    d = UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3), 1])
    a, b = mg.close([d]), mg.close([d.embed(8)])
    assert (a.order, a.working_order, b.order, b.working_order) == (4, 4, 4, 8)
    assert same_matrix_set(a, b)
    sub_a, sub_b = subgroup(a, a.generators), subgroup(b, b.generators)
    for query in (
        lambda: intersect(sub_a, sub_b),
        lambda: is_normal(a, sub_b),
        lambda: semidirect_verify(a, sub_b, sub_a),
        lambda: decompose(a, 0, sub_a, sub_b),
    ):
        with pytest.raises(NotASubgroupError, match="not taken in this group"):
            query()
    # at a shared working order, a subgroup of another group is refused too
    z72 = root_of_unity(72)
    outside = mg.close([UnitaryMatrix.diagonal([z72, z72.conj(), 1])])
    assert outside.working_order == paper_group.working_order
    with pytest.raises(NotASubgroupError, match="not taken in this group"):
        is_normal(paper_group, subgroup(outside, outside.generators))


def test_a_subgroup_belongs_to_the_group_it_was_taken_in(
    paper_group, family_group, subgroup_n, subgroup_h
):
    # an index of the family group names another element of the braid
    # image, so a subgroup taken in the family group is refused there
    taken = subgroup(family_group, family_group.generators[:1])
    assert taken.group is family_group and taken.order < 162
    for query in (
        lambda: is_normal(paper_group, taken),
        lambda: semidirect_verify(paper_group, subgroup_n, taken),
        lambda: semidirect_verify(paper_group, taken, subgroup_h),
        lambda: decompose(paper_group, 0, taken, subgroup_h),
        lambda: decompose(paper_group, 0, subgroup_n, taken),
        lambda: intersect(taken, subgroup_n),
        lambda: intersect(subgroup_n, taken),
    ):
        with pytest.raises(NotASubgroupError):
            query()


def test_abelian_invariants(paper_group, named_elements, subgroup_n, subgroup_h):
    assert abelian_invariants(subgroup_n) == (9, 3)
    cyc_a = subgroup(paper_group, [index_of(paper_group, named_elements["A"])])
    assert abelian_invariants(cyc_a) == (9,)
    trivial = subgroup(paper_group, [0])
    assert abelian_invariants(trivial) == ()
    with pytest.raises(NotAbelianError):
        abelian_invariants(subgroup_h)
    # rank 3 is outside the supported range: Z2^3 from diagonal sign matrices
    signs = [UnitaryMatrix.diagonal([1] * i + [-1] + [1] * (2 - i)) for i in range(3)]
    z2_cubed = mg.close(signs)
    with pytest.raises(DecompositionNotFoundError):
        abelian_invariants(subgroup(z2_cubed, z2_cubed.generators))


def test_semidirect_verify(paper_group, named_elements, subgroup_n, subgroup_h):
    report = semidirect_verify(paper_group, subgroup_n, subgroup_h)
    assert report.all_ok
    # N against itself: the intersection is N, not trivial
    self_report = semidirect_verify(paper_group, subgroup_n, subgroup_n)
    assert not self_report.trivial_intersection
    # <A> is too small: 9 * 6 != 162
    cyc_a = subgroup(paper_group, [index_of(paper_group, named_elements["A"])])
    small = semidirect_verify(paper_group, cyc_a, subgroup_h)
    assert not small.order_product
    with pytest.raises(NotASubgroupError):
        semidirect_verify(paper_group, subgroup_n, _outside())


def test_decompose(paper_group, named_elements, subgroup_n, subgroup_h):
    a, b, t3, t1 = (named_elements[k] for k in ("A", "B", "T3", "T1"))
    ns = hs = paper_group.matrices  # the factors are indices of the group
    g1, g2 = paper_group.generators
    n, h = decompose(paper_group, g1, subgroup_n, subgroup_h)
    assert ns[n] == a ** 5 * b ** 2 and hs[h] == t3
    n, h = decompose(paper_group, g2, subgroup_n, subgroup_h)
    assert ns[n] == a ** -1 * b and hs[h] == t3 * t1 * t3
    n, h = decompose(paper_group, 0, subgroup_n, subgroup_h)
    assert ns[n] == UnitaryMatrix.identity(3)
    assert hs[h] == UnitaryMatrix.identity(3)


def test_decompose_is_a_bijection(paper_group, subgroup_n, subgroup_h):
    pairs = set()
    for x in range(paper_group.order):
        n, h = decompose(paper_group, x, subgroup_n, subgroup_h)
        assert cayley_table(paper_group)[n][h] == x
        pairs.add((n, h))
    assert len(pairs) == 162
    assert pairs == {(n, h) for n in subgroup_n.members for h in subgroup_h.members}


def test_product_map_homomorphism_on_samples(paper_group, subgroup_n, subgroup_h):
    # psi(n1 * (h1 n2 h1^-1), h1 h2) == psi(n1, h1) * psi(n2, h2)
    rng = random.Random(11)
    ns, hs = ([paper_group.matrices[x] for x in s.members] for s in (subgroup_n, subgroup_h))
    for _ in range(25):
        n1, n2 = (rng.choice(ns) for _ in range(2))
        h1, h2 = (rng.choice(hs) for _ in range(2))
        twisted = n1 * (h1 * n2 * h1.conj_transpose())
        assert twisted * (h1 * h2) == (n1 * h1) * (n2 * h2)


def test_word_eval(signed_words, named_elements):
    f = signed_words((1, 2, -1, -1))
    assert f.key_bytes() == named_elements["F"].key_bytes()
    assert signed_words(()) is None  # no dimension; `equal` reads it as the identity
    t3 = named_elements["T3"]
    assert t3 == UnitaryMatrix.diagonal([-1, -1, 1])
    with pytest.raises(KeyError, match="3"):  # there is no generator 3
        signed_words((3,))


def test_check_relations(named_elements):
    gens = {k: named_elements[k] for k in ("A", "B", "T1", "T3")}
    eye = ()
    good = [
        ((("A", 9),), eye),
        ((("B", 3),), eye),
        ((("T1", 2),), eye),
        ((("T3", 2),), eye),
        ((("T1", 1), ("T3", 1)) * 3, eye),
        ((("T3", 1), ("T1", 1)) * 3, eye),
        ((("T1", 1), ("A", 1), ("T1", -1)), (("A", 1),)),
        ((("T3", 1), ("A", 1), ("T3", -1)), (("A", 7), ("B", 2))),
        ((("T1", 1), ("B", 1), ("T1", -1)), (("A", 6), ("B", 2))),
        ((("T3", 1), ("B", 1), ("T3", -1)), (("A", 3), ("B", 2))),
    ]
    words = mg.WordEvaluator(gens)
    assert all(words.equal(lhs, rhs) for lhs, rhs in good)
    assert not words.equal((("A", 8),), eye)
    with pytest.raises(KeyError):
        words.equal((("X", 1),), eye)


def test_word_evaluator_multiplies_each_prefix_once(named_elements, monkeypatch):
    a, b, t3 = (named_elements[k] for k in ("A", "B", "T3"))
    a3b = a * a * a * b
    products = []
    product = UnitaryMatrix.__mul__
    monkeypatch.setattr(UnitaryMatrix, "__mul__", lambda x, y: products.append(1) or product(x, y))
    words = mg.WordEvaluator({"A": a, "B": b, "T3": t3})
    assert words([("A", 3), ("B", 1)]) == a3b
    assert len(products) == 3  # A^3 two products, then B one
    assert words([("A", 3), ("B", 1), ("T3", 1)]) is words([("A", 3), ("B", 1), ("T3", 1)])
    assert len(products) == 4  # one past the known prefix A^3 B
    assert words([("B", 1), ("A", 3)]).key_bytes() == a3b.key_bytes()
    assert len(products) == 5  # the factor A^3 is kept too
    assert words(()) is None


def _closed(named_elements, *names):
    """The group closed from the named matrices on their own, with its own
    indices and table, where a `Subgroup` of the braid image has none."""
    return mg.close([named_elements[k] for k in names])


def test_conjugacy_classes(paper_group, named_elements):
    classes = conjugacy_classes(cayley_table(_closed(named_elements, "A", "B")))
    assert all(len(c) == 1 for c in classes)  # abelian: singletons
    classes = conjugacy_classes(cayley_table(paper_group))
    assert sum(len(c) for c in classes) == 162
    assert all(162 % len(c) == 0 for c in classes)
    identity_class = [c for c in classes if 0 in c]
    assert identity_class == [(0,)]


def test_cayley_table_shape(paper_group):
    table = cayley_table(paper_group)
    assert table[0] == list(range(162))
    assert [row[0] for row in table] == list(range(162))
    # every row and column is a permutation
    full = set(range(162))
    assert all(set(row) == full for row in table)
    assert all(set(column) == full for column in zip(*table))


def _direct_product_index(group, i, j):
    a, b = group.matrices[i], group.matrices[j]
    return group.keys.index((a * b).key_bytes())


@pytest.mark.parametrize("name", ["paper_group", "family_group", "closed N"])
def test_derived_table_equals_direct_products(request, named_elements, name):
    if name == "closed N":
        group = _closed(named_elements, "A", "B")
    else:
        group = request.getfixturevalue(name)
    n = group.order
    direct = [[_direct_product_index(group, i, j) for j in range(n)] for i in range(n)]
    assert cayley_table(group) == direct


def test_derived_table_order_648_seeded_entries(family_648):
    group = family_648
    assert group.order == 648
    table = cayley_table(group)
    rng = random.Random(648)
    for _ in range(300):
        i, j = rng.randrange(648), rng.randrange(648)
        assert table[i][j] == _direct_product_index(group, i, j)


def test_actions_are_left_multiplication(paper_group):
    for signed in (1, -1, 2, -2):
        g = paper_group.matrices[paper_group.generators[abs(signed) - 1]]
        if signed < 0:
            g = g.conj_transpose()
        perm = paper_group._actions[signed]
        assert sorted(perm) == list(range(162))
        for x in (0, 5, 77, 161):
            product = g * paper_group.matrices[x]
            assert paper_group.keys.index(product.key_bytes()) == perm[x]
    # an involution's inverse shares its action
    t3 = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    assert t3._actions[1] == t3._actions[-1] == (1, 0)


def test_corrupted_action_is_caught(paper_matrices):
    group = mg.close(list(paper_matrices))
    perm = list(group._actions[2])
    perm[40], perm[41] = perm[41], perm[40]
    group._actions[2] = tuple(perm)
    with pytest.raises(mg.CayleyTableError):
        cayley_table(group)


def test_corrupted_provenance_is_caught(paper_matrices):
    group = mg.close(list(paper_matrices))
    # re-point the parent of every element past the generator layer
    group._bfs_parent = group._bfs_parent[:5] + tuple(
        (p + 1) % group.order for p in group._bfs_parent[5:]
    )
    with pytest.raises(mg.CayleyTableError):
        cayley_table(group)


def _rebuilt(group, actions=None, bfs_mult=None, bfs_parent=None, generators=None):
    """A copy of `group` whose table is not built yet, with the given
    actions, provenance or generator indices in place of the closure's."""
    return mg.FiniteMatrixGroup(
        group.working_order, group.matrices, group.keys, group.words,
        group.generators if generators is None else generators,
        group._bfs_mult if bfs_mult is None else bfs_mult,
        group._bfs_parent if bfs_parent is None else bfs_parent,
        group._actions if actions is None else actions,
    )


def test_order_648_corruptions_are_caught(family_648):
    # a generator that is not an involution: its inverse has its own action
    signed = next(s for s in family_648._actions if family_648._actions[s] != family_648._actions[-s])
    rng = random.Random(6)
    for _ in range(4):
        perm = list(family_648._actions[signed])
        x, y = rng.sample(range(648), 2)
        perm[x], perm[y] = perm[y], perm[x]
        corrupted = {**family_648._actions, signed: tuple(perm)}
        with pytest.raises(mg.CayleyTableError):
            cayley_table(_rebuilt(family_648, actions=corrupted))
    parent = family_648._bfs_parent
    repointed = parent[:5] + tuple((p + 1) % 648 for p in parent[5:])
    with pytest.raises(mg.CayleyTableError):
        cayley_table(_rebuilt(family_648, bfs_parent=repointed))
    assert cayley_table(_rebuilt(family_648)) == cayley_table(family_648)


# ---------------------------------------------------------------------------
# the conditions of the table guard, one corrupted record each


def _generator_indices(group):
    out = {}
    for s, g in enumerate(group.generators, 1):
        out[s] = g
        out[-s] = group.keys.index(group.matrices[g].conj_transpose().key_bytes())
    return out


def _gather(action, row):
    """action o row, with -1 for an entry that is no index of `action`."""
    if min(row) >= 0 and max(row) < len(action):
        return list(itemgetter(*row)(action))
    return [action[y] if 0 <= y < len(action) else -1 for y in row]


def _derived_table(group, columns=None):
    """The table derived from the recorded actions and provenance, without
    the guard: row 0 is the identity, and row i is the action of
    `_bfs_mult[i]` applied to the row of `_bfs_parent[i]`, followed up to
    the root.  An entry it cannot read is -1: one in a row whose parent
    chain leaves the indices or never reaches 0, or outside an action.
    With `columns`, each row holds only its entries at those indices."""
    n = group.order
    rows = {0: list(range(n) if columns is None else columns)}
    for start in range(n):
        chain, i = [], start
        while i not in rows and 0 <= i < n and i not in chain:
            chain.append(i)
            i = group._bfs_parent[i]
        row = rows.get(i, [-1] * len(rows[0]))
        for j in reversed(chain):
            row = rows[j] = _gather(group._actions.get(group._bfs_mult[j], ()), row)
    return [rows[i] for i in range(n)]


def _failed_conditions(group, table):
    """The serial conditions a table fails: identity row and column, Latin
    square, generator rows equal to their actions, Light's test."""
    n = len(table)
    full = set(range(n))
    gens = _generator_indices(group)
    checks = {
        "identity": table[0] == list(range(n)) and [row[0] for row in table] == list(range(n)),
        "latin": all(set(row) == full for row in table)
        and all(set(col) == full for col in zip(*table)),
        "action": all(tuple(table[a]) == group._actions[s] for s, a in gens.items()),
        # (x*a)*y == x*(a*y) for every y, as whole rows
        "light": all(
            table[table[x][a]] == [table[x][ay] for ay in table[a]]
            for a in set(gens.values()) for x in range(n)
        ),
    }
    return {name for name, ok in checks.items() if not ok}


def _derived_row(group, i):
    """Row i of `_derived_table(group)` alone, built down i's parent chain:
    -1 throughout when the chain leaves the indices or never reaches 0."""
    chain = []
    while i and 0 <= i < group.order and i not in chain:
        chain.append(i)
        i = group._bfs_parent[i]
    row = list(range(group.order)) if i == 0 else [-1] * group.order
    for j in reversed(chain):
        row = _gather(group._actions.get(group._bfs_mult[j], ()), row)
    return row


def _certificate_failures(group):
    """The conditions of `mg._certify` that the record of `group` fails,
    each judged on its own, on the generator rows and the columns c_b of
    the derived table, about |S| n entries in place of its n^2; it reads
    only records whose derived table holds element indices."""
    n, k = group.order, len(group.generators)
    action = {s: list(group._actions.get(s, ())) for s in range(-k, k + 1) if s}
    gens = list(dict.fromkeys(group.generators))
    bs = list(dict.fromkeys([0, *gens]))
    entries = _derived_table(group, bs)
    column = {b: [row[c] for row in entries] for c, b in enumerate(bs)}
    positive = range(1, k + 1)
    holds = {
        "tree": all(
            0 <= group._bfs_parent[i] < i and 0 < abs(group._bfs_mult[i]) <= k for i in range(1, n)
        ),
        "permutation": all(sorted(action[s]) == list(range(n)) for s in positive),
        "inverse": all(
            len(action[-s]) == n and [action[-s][y] for y in action[s][:n]] == list(range(n))
            for s in positive
        ),
        "column 0": column[0] == list(range(n)),
        "generator rows": all(
            _derived_row(group, a) == action[s] for s, a in enumerate(group.generators, 1)
        ),
        "commute": all(
            action[s][column[b][x]] == column[b][action[s][x]]
            for s in positive for b in gens for x in range(n)
        ),
    }
    return {name for name, ok in holds.items() if not ok}


def _plain_elements(group):
    """Indices other than the identity and the signed generators, by index."""
    gens = set(_generator_indices(group).values())
    return [x for x in range(1, group.order) if x not in gens]


def _renamed(group, sigma, provenance=False):
    """`group` with element x renamed sigma[x], for an involution sigma, in
    its actions, and in its provenance too when `provenance` is set (sigma
    then fixes 0)."""
    n = group.order
    actions = {
        s: tuple(sigma[action[sigma[x]]] for x in range(n)) for s, action in group._actions.items()
    }
    if not provenance:
        return _rebuilt(group, actions=actions)
    return _rebuilt(
        group, actions=actions,
        bfs_mult=tuple(group._bfs_mult[sigma[x]] for x in range(n)),
        bfs_parent=(-1, *(sigma[group._bfs_parent[sigma[x]]] for x in range(1, n))),
    )


def _with_action(group, signed, action):
    return _rebuilt(group, actions={**group._actions, signed: tuple(action)})


def _bad_identity(group):
    # the identity renamed in the actions alone: the rows built down the
    # tree no longer take 0 to their own index
    u = _plain_elements(group)[0]
    sigma = list(range(group.order))
    sigma[0], sigma[u] = u, 0
    return _renamed(group, sigma)


def _bad_latin(group):
    # a generator action with a repeated entry, which every row it builds repeats
    x, y = _plain_elements(group)[:2]
    action = list(group._actions[2])
    action[x] = action[y]
    return _with_action(group, 2, action)


def _bad_action(group):
    # the first two generators' indices exchanged: the derived table is the
    # true one, but those two rows are not the actions recorded for them
    gens = group.generators
    return _rebuilt(group, generators=(gens[1], gens[0], *gens[2:]))


def _twisted(group, s, u, v):
    """`group` with the action of generator s composed with the
    transposition of indices u and v, and its inverse's action inverted to
    match, so that both are permutations and inverse to each other."""
    action = list(group._actions[s])
    action[u], action[v] = action[v], action[u]
    inverse = [0] * group.order
    for x, y in enumerate(action):
        inverse[y] = x
    return _rebuilt(group, actions={**group._actions, s: tuple(action), -s: tuple(inverse)})


@functools.cache
def _uncommuting(group):
    """The first `_twisted` record, over the positive generators and the
    pairs among the first leaves of the tree (plain elements that are no
    element's parent), whose generator actions and columns do not commute
    while every other condition of the certificate holds.  Each twist it
    tries costs a few derived columns, not an n^2 table; each session
    group's record is still found once and shared, and no test alters a
    record."""
    parents = set(group._bfs_parent)
    leaves = [x for x in _plain_elements(group) if x not in parents][:40]
    for s in range(1, len(group.generators) + 1):
        for u, v in itertools.combinations(leaves, 2):
            twisted = _twisted(group, s, u, v)
            if _certificate_failures(twisted) == {"commute"}:
                return twisted
    raise AssertionError("no twist at the leaves fails to commute alone")


# Each record gets the text of the first pass of `mg._certify` it fails;
# the ids name the serial condition its derived table was built to fail.
# A derived row is a product of the actions, so the records for the
# identity and the Latin condition fail other conditions too, and the one
# for Light's test fails the Latin condition as well.
@pytest.mark.parametrize("name", ["paper_group", "family_648"])
@pytest.mark.parametrize("condition, build, alone, messages", [
    ("identity", _bad_identity, False, dict.fromkeys(
        ["paper_group", "family_648"], "derived table column 0 is not the identity"
    )),
    ("latin", _bad_latin, False, dict.fromkeys(
        ["paper_group", "family_648"], "recorded action of generator 2 is not a permutation"
    )),
    ("action", _bad_action, True, {
        "paper_group": "derived table row 3 differs from the action of generator 1",
        "family_648": "derived table row 5 differs from the action of generator 1",
    }),
    ("light", _uncommuting, False, {
        "paper_group": "derived table products 1 * (14 * 1) and (1 * 14) * 1 differ",
        "family_648": "derived table products 3 * (33 * 3) and (3 * 33) * 3 differ",
    }),
], ids=[
    "identity-_bad_identity-False-row 0 or column 0",
    "latin-_bad_latin-False-Latin square",
    "action-_bad_action-True-differs from the action",
    "light-_uncommuting-False-Light's test",
])
def test_check_table_rejects_each_integer_condition(
    request, name, condition, build, alone, messages
):
    group = request.getfixturevalue(name)
    assert _failed_conditions(group, _derived_table(group)) == set()
    bad = build(group)
    failed = _failed_conditions(bad, _derived_table(bad))
    assert condition in failed
    if alone:
        assert failed == {condition}
    with pytest.raises(mg.CayleyTableError, match=f"^{re.escape(messages[name])}$"):
        mg._certify(bad)


def _forward_parent(group):
    """`group` with one element recorded as a generator times a later
    element, not below it in the tree: the parent chains still reach 0 and
    derive the true table, but not in index order."""
    n, parent, mult = group.order, group._bfs_parent, group._bfs_mult
    for i in _plain_elements(group):
        for m in (m for m in group._actions if m):
            p = group._actions[-m][i]  # element i is generator m times element p
            chain = p
            while chain > 0 and chain != i:
                chain = parent[chain]
            if p > i and chain == 0:
                return _rebuilt(
                    group,
                    bfs_mult=mult[:i] + (m,) + mult[i + 1:],
                    bfs_parent=parent[:i] + (p,) + parent[i + 1:],
                )
    raise AssertionError("no later element reaches 0 without passing through i")


def test_certificate_checks_each_condition(paper_group):
    # each record gets the text of the first condition it fails, and one
    # record for each condition but the identity column fails it alone
    group = paper_group
    assert _certificate_failures(group) == set()
    mg._certify(group)
    n, x = group.order, _plain_elements(group)[0]
    parent, mult = group._bfs_parent, group._bfs_mult
    swapped = list(group._actions[-1])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    not_a_tree = f"element {x} is not recorded as a generator times an earlier one"
    not_a_permutation = "recorded action of generator 2 is not a permutation"
    cases = [
        # a parent that is a later element, the element itself, or a step by
        # no generator
        ("tree", _forward_parent(group), True,
         "element 5 is not recorded as a generator times an earlier one"),
        ("tree", _rebuilt(group, bfs_parent=parent[:x] + (x,) + parent[x + 1:]), False, not_a_tree),
        ("tree", _rebuilt(group, bfs_mult=mult[:x] + (3,) + mult[x + 1:]), False, not_a_tree),
        # (P): a repeated entry, an entry out of range, one entry too many
        ("permutation", _bad_latin(group), False, not_a_permutation),
        ("permutation", _with_action(group, 2, [*group._actions[2][:-1], n]), False,
         not_a_permutation),
        ("permutation", _with_action(group, 2, [*group._actions[2], 0]), False, not_a_permutation),
        # an inverse's action with one entry too many, and with two swapped
        ("inverse", _with_action(group, -2, [*group._actions[-2], 0]), True,
         "recorded action of generator -2 is not its inverse's"),
        ("inverse", _with_action(group, -1, swapped), False,
         "recorded action of generator -1 is not its inverse's"),
        ("column 0", _bad_identity(group), False, "derived table column 0 is not the identity"),
        ("generator rows", _bad_action(group), True,
         "derived table row 3 differs from the action of generator 1"),
        ("commute", _uncommuting(group), True,
         "derived table products 1 * (14 * 1) and (1 * 14) * 1 differ"),
    ]
    for condition, bad, alone, text in cases:
        if alone:
            assert _certificate_failures(bad) == {condition}, text
        with pytest.raises(mg.CayleyTableError, match=f"^{re.escape(text)}$"):
            mg._certify(bad)
    # the samples alone: elements renamed in pairs within their tree layer,
    # in the actions and the provenance alike, pass every integer condition
    renamed = _renamed_in_layers(group, random.Random(0))
    assert _certificate_failures(renamed) == set()
    assert _failed_conditions(renamed, _derived_table(renamed)) == set()
    with pytest.raises(mg.CayleyTableError, match="disagrees with the exact product$"):
        mg._certify(renamed)


def _renamed_in_layers(group, rng):
    """`group` with half its plain elements renamed in pairs, each pair in
    one layer of the tree, in its actions and provenance alike: every
    integer condition holds, and only the sampled products see it."""
    layers = {}
    for y in _plain_elements(group):
        layers.setdefault(len(group.words[y]), []).append(y)
    sigma = list(range(group.order))
    for layer in layers.values():
        moved = rng.sample(layer, len(layer) // 4 * 2)
        for u, v in zip(moved[::2], moved[1::2]):
            sigma[u], sigma[v] = v, u
    return _renamed(group, sigma, provenance=True)


# ---------------------------------------------------------------------------
# the guard against the serial guard it shortens


def _serial_check_table(group, table):
    """The table guard with every check run on every table and the first
    failure raised: identity, Latin square, generator rows, Light's test
    over every distinct signed generator, samples."""
    n = group.order
    # row[:1] reads an empty row as []
    if table[0] != list(range(n)) or [row[:1] for row in table] != [[x] for x in range(n)]:
        raise mg.CayleyTableError("derived table row 0 or column 0 is not the identity")
    index = {k: i for i, k in enumerate(group.keys)}
    rows = {}
    for s, g in enumerate(group.generators, 1):
        rows[s] = g
        inverse = index.get(group.matrices[g].conj_transpose().key_bytes())
        if inverse is None:
            raise mg.CayleyTableError("a generator inverse is missing from the group")
        rows[-s] = inverse
    full = set(range(n))
    if (
        any(len(row) != n for row in table)
        or any(set(row) != full for row in table)
        or any(set(column) != full for column in zip(*table))
    ):
        raise mg.CayleyTableError("derived table is not a Latin square")
    for s, a in rows.items():
        if tuple(table[a]) != group._actions[s]:
            raise mg.CayleyTableError(
                f"derived table row {a} differs from the action of generator {s}"
            )
    for a in dict.fromkeys(rows.values()) if n > 1 else ():
        for x, row_x in enumerate(table):
            if table[row_x[a]] != [row_x[ay] for ay in table[a]]:
                raise mg.CayleyTableError(f"derived table fails Light's test at ({x}, {a})")
    rng = random.Random(0)
    for _ in range(min(256, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if index.get((group.matrices[i] * group.matrices[j]).key_bytes()) != table[i][j]:
            raise mg.CayleyTableError(
                f"derived table entry ({i}, {j}) disagrees with the exact product"
            )


def _guard_corpus(group, seed):
    """(label, group) cases for the guard: the valid record, the records
    built to fail one serial condition, malformed actions (short, long,
    empty, with an entry out of range), each signed action corrupted on its
    own and each positive one with its inverse, elements renamed within
    their tree layers, and provenance re-pointed, looped, swapped within a
    layer or naming no generator."""
    n, k = group.order, len(group.generators)
    rng = random.Random(seed)
    x = rng.choice(_plain_elements(group))
    s = rng.randrange(1, k + 1)

    def acting(label, signed, edit):
        action = list(group._actions[signed])
        edit(action)
        return label, _with_action(group, signed, action)

    def put(j, value):
        def edit(action):
            action[j] = value
        return edit

    def swap(i, j):
        def edit(action):
            action[i], action[j] = action[j], action[i]
        return edit

    yield "valid", group
    for build in (_bad_identity, _bad_latin, _bad_action, _uncommuting):
        yield build.__name__, build(group)
    yield acting("short action", s, list.pop)
    yield acting("long action", s, lambda action: action.append(rng.randrange(n)))
    yield acting("empty action", s, list.clear)
    yield acting("short inverse action", -s, list.pop)
    yield acting("negative entry", s, put(x, -rng.randrange(1, n)))
    yield acting("out-of-range entry", s, put(x, n + rng.randrange(n)))
    for signed in (1, -1, 2, -2):
        yield acting(f"action {signed} corrupted", signed, swap(*rng.sample(range(n), 2)))
    for signed in range(1, k + 1):
        yield f"action {signed} twisted with its inverse", _twisted(
            group, signed, *rng.sample(range(n), 2)
        )
    yield "renamed in layers", _renamed_in_layers(group, rng)
    parent, mult = group._bfs_parent, group._bfs_mult
    yield "re-pointed provenance", _rebuilt(
        group, bfs_parent=parent[:5] + tuple((p + 1) % n for p in parent[5:])
    )
    yield "looped provenance", _rebuilt(group, bfs_parent=parent[:x] + (x,) + parent[x + 1:])
    yield "no such generator", _rebuilt(group, bfs_mult=mult[:x] + (k + 1,) + mult[x + 1:])
    depth = len(group.words[x])
    y = next(y for y in _plain_elements(group) if y != x and len(group.words[y]) == depth)
    swapped_parent, swapped_mult = list(parent), list(mult)
    for seq in (swapped_parent, swapped_mult):
        seq[x], seq[y] = seq[y], seq[x]
    yield "swapped provenance", _rebuilt(
        group, bfs_mult=tuple(swapped_mult), bfs_parent=tuple(swapped_parent)
    )


# the serial guard's failures, and the passes of `mg._certify`, by their
# texts; Light's test fails first on no corpus record (see
# `test_check_table_rejects_each_integer_condition`)
_FAILURE_KINDS = ("row 0 or column 0", "Latin square", "differs from the action", "exact product")
_PASS_KINDS = (
    "earlier one", "not a permutation", "its inverse's", "column 0", "differs from the action",
    "products", "exact product",
)


def _guard_outcome(check, *args):
    try:
        check(*args)
    except mg.CayleyTableError as exc:
        return str(exc)
    return None


def _kind(failure, kinds):
    return failure and next(kind for kind in kinds if kind in failure)


@pytest.mark.parametrize("name, seed", [
    ("paper_group", 1), ("paper_group", 4), ("family_group", 2), ("family_group", 5),
    ("family_648", 3), ("family_648", 6),
])
def test_guard_matches_the_serial_guard(request, name, seed):
    # on every corpus record the guard raises nothing but CayleyTableError,
    # and it accepts exactly when the serial guard accepts the table
    # derived from that record
    group = request.getfixturevalue(name)
    outcomes, passes = set(), set()
    for label, g in _guard_corpus(group, seed):
        want = _guard_outcome(_serial_check_table, g, _derived_table(g))
        got = _guard_outcome(mg._certify, g)
        assert (got is None) == (want is None), label
        outcomes.add(_kind(want, _FAILURE_KINDS))
        passes.add(_kind(got, _PASS_KINDS))
    assert outcomes == {None, *_FAILURE_KINDS}
    assert passes == {None, *_PASS_KINDS}


def test_guard_makes_only_the_sampled_products(paper_matrices, named_elements, monkeypatch):
    group = mg.close(list(paper_matrices))
    t1, a, b = (index_of(group, named_elements[k]) for k in ("T1", "A", "B"))
    counted = []
    product = UnitaryMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    cayley_table(group)
    assert len(counted) == 256 == min(256, 162 ** 2)
    # a subgroup is read off the guarded table: no table and no product of its own
    h, n = subgroup(group, [t1]), subgroup(group, [a, b])
    trivial = subgroup(group, [0])
    assert (h.order, n.order, trivial.order) == (2, 27, 1)
    assert trivial.members == (0,)
    assert len(counted) == 256


def test_forked_guard_makes_only_the_sampled_products(family_648, monkeypatch):
    # the guard runs in process now; the order-648 table, which once took the
    # forked path, still makes only the 256 sampled products
    table_648 = cayley_table(family_648)
    counted = []
    product = UnitaryMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    assert cayley_table(_rebuilt(family_648)) == table_648
    assert len(counted) == 256


def test_csv_of_the_smallest_groups():
    # one index: itemgetter gives the label itself rather than a tuple
    trivial = mg.close([UnitaryMatrix.identity(3)])
    assert "".join(mg.cayley_csv_lines(trivial)) == "0\n"
    z2 = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    assert "".join(mg.cayley_csv_lines(z2)) == "0,1\n1,0\n"


def test_sympy_oracle_on_recorded_actions(paper_group, subgroup_n, named_elements):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    g = PermutationGroup([Permutation(list(paper_group._actions[s])) for s in (1, 2)])
    assert g.order() == 162
    assert len(g.conjugacy_classes()) == 22
    assert len(conjugacy_classes(cayley_table(paper_group))) == 22
    assert g.derived_subgroup().order() == 27
    table = cayley_table(paper_group)
    n = PermutationGroup([
        Permutation(table[index_of(paper_group, named_elements[k])]) for k in ("A", "B")
    ])
    assert n.order() == subgroup_n.order == 27
    assert n.is_normal(g)
    assert is_normal(paper_group, subgroup_n)
    assert tuple(sorted(n.abelian_invariants(), reverse=True)) == (9, 3)
    assert abelian_invariants(subgroup_n) == (9, 3)


def test_extend_to_isomorphism(paper_group, family_group):
    images = find_isomorphism(paper_group, family_group)
    phi = extend_to_isomorphism(paper_group, family_group, images)
    assert phi is not None and sorted(phi) == list(range(162))
    # identity images cannot extend to a bijection
    assert extend_to_isomorphism(paper_group, family_group, [0, 0]) is None
    assert extend_to_isomorphism(paper_group, family_group, images[:1]) is None


def test_find_isomorphism_positive(paper_group, family_group):
    images = find_isomorphism(paper_group, family_group)
    assert images is not None
    assert all(0 <= x < family_group.order for x in images)


def test_find_isomorphism_self(paper_group):
    images = find_isomorphism(paper_group, paper_group)
    assert images is not None
    assert images == list(paper_group.generators)


def test_find_isomorphism_order_mismatch(paper_group, named_elements):
    # the direct-product-style subgroup <A, B, T3> has order 54, not 162
    product_54 = _closed(named_elements, "A", "B", "T3")
    assert product_54.order == 54
    assert find_isomorphism(paper_group, product_54) is None


def test_decompose_error_cases(paper_group, named_elements, subgroup_h):
    cyc_a = subgroup(paper_group, [index_of(paper_group, named_elements["A"])])
    # only 9 * 6 = 54 of the 162 elements factor through <A> * H
    missing = 0
    for x in range(paper_group.order):
        try:
            decompose(paper_group, x, cyc_a, subgroup_h)
        except NoFactorizationError:
            missing += 1
    assert missing == 162 - 54
    # identity = I*I = T3*T3 inside <T3> * <T3>
    cyc_t3 = subgroup(paper_group, [index_of(paper_group, named_elements["T3"])])
    with pytest.raises(NonUniqueFactorizationError):
        decompose(paper_group, 0, cyc_t3, cyc_t3)
    stranger = UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])
    with pytest.raises(ValueError):
        decompose(paper_group, index_of(paper_group, stranger), cyc_t3, cyc_t3)
    for x in (-1, paper_group.order):
        with pytest.raises(ValueError):
            decompose(paper_group, x, cyc_t3, cyc_t3)
    with pytest.raises(NotASubgroupError):
        decompose(paper_group, 0, _outside(), subgroup_h)


def test_find_isomorphism_negative():
    c2 = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    c4 = mg.close([UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3)])])
    assert find_isomorphism(c2, c4) is None  # order mismatch
    # same order 4, different structure: C4 vs the Klein group
    klein = mg.close(
        [UnitaryMatrix.diagonal([-1, -1, 1]), UnitaryMatrix.diagonal([1, -1, -1])]
    )
    assert klein.order == 4
    assert find_isomorphism(c4, klein) is None
    assert find_isomorphism(klein, c4) is None


def test_same_matrix_set(paper_group, family_group, named_elements):
    assert not same_matrix_set(paper_group, family_group)
    assert same_matrix_set(paper_group, paper_group)
    assert not same_matrix_set(paper_group, _closed(named_elements, "A", "B"))


def test_conjugation_by_v_maps_the_braid_image_onto_the_family_group(
    paper_group, family_group
):
    # the closures agree with GRP-ISO-D91211's rows: {V g V^-1} is D
    v = verify._displays()["D_V"]
    v_inv = v.conj_transpose()
    conjugated = [v * g * v_inv for g in paper_group.matrices]
    assert key_set(conjugated, 72) == key_set(family_group.matrices, 72)


def test_same_matrix_set_at_different_working_orders(paper_group, family_group):
    # C(9,1,1) closed at its own order 36 and again from generators held at 72
    gens = c_generators(CParams(9, 1, 1))
    low, high = mg.close(gens), mg.close([g.embed(72) for g in gens])
    assert (low.working_order, high.working_order, low.order) == (36, 72, high.order)
    assert low.keys != high.keys
    assert same_matrix_set(low, high) and same_matrix_set(high, low)
    # equal orders (162), working orders 72 and 36, different sets
    assert (paper_group.working_order, family_group.working_order) == (72, 36)
    assert not same_matrix_set(paper_group, family_group)
    assert not same_matrix_set(family_group, paper_group)


def test_render_word():
    assert mg.render_word((), ["g1", "g2"]) == "e"
    assert mg.render_word((1, 2, 2, -1, -1), ["g1", "g2"]) == "g1*g2^2*g1^-2"


# groups for the export writers that no shared fixture provides
_EXPORT_GROUPS = {
    "familyC 9 1 1": lambda: mg.close(c_generators(CParams(9, 1, 1))),
    "order 1, dim 1": lambda: mg.close([UnitaryMatrix.identity(1)]),
    "cyclic 1x1": lambda: mg.close([UnitaryMatrix.diagonal([root_of_unity(6)])]),
}


def _first_difference(got: str, want: str):
    """Line number and both lines where two texts first differ, or None;
    pytest's own diff of two texts this long runs for minutes."""
    for n, (a, b) in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n"))):
        if a != b:
            return n, a, b
    return None


@pytest.mark.parametrize("name, names", [
    ("paper_group", ["g1", "g2"]),
    ("paper_group", None),
    ("family_group", ["E", "F", "D"]),
    ("family_648", ["E", "F", "D"]),
    ("closed H", None),
    ("familyC 9 1 1", ["E", "F"]),
    ("order 1, dim 1", None),
    # a name that JSON must escape
    ("cyclic 1x1", ['\u03b6"6']),
])
def test_export_writers_match_reference_encoding(request, named_elements, name, names):
    if name == "closed H":
        group = _closed(named_elements, "T1", "T3")
    elif name in _EXPORT_GROUPS:
        group = _EXPORT_GROUPS[name]()
    else:
        group = request.getfixturevalue(name)
    reference = json.dumps(mg.element_records(group, names), indent=2) + "\n"
    assert _first_difference("".join(mg.elements_json(group, names)), reference) is None
    table = cayley_table(group)
    reference = "\n".join(",".join(str(v) for v in row) for row in table) + "\n"
    assert _first_difference("".join(mg.cayley_csv_lines(group)), reference) is None


def test_deterministic_ordering(paper_matrices):
    g1, g2 = paper_matrices
    first = mg.close([g1, g2])
    second = mg.close([g1, g2])
    assert first.keys == second.keys
    assert first.words == second.words


# ---------------------------------------------------------------------------
# the index-based structural queries against exact matrix products


def _matrices(sub):
    return [sub.group.matrices[x] for x in sub.members]


def _keys(sub):
    return {m.key_bytes() for m in _matrices(sub)}


def _reference_is_normal(group, sub):
    keys = _keys(sub)
    for g in (group.matrices[x] for x in group.generators):
        ginv = g.conj_transpose()
        for n in _matrices(sub):
            if (g * n * ginv).key_bytes() not in keys:
                return False
    return True


def _reference_semidirect(group, normal_part, complement):
    common = _keys(normal_part) & _keys(complement)
    products = {(n * h).key_bytes() for n in _matrices(normal_part) for h in _matrices(complement)}
    return SemidirectReport(
        normal=_reference_is_normal(group, normal_part),
        trivial_intersection=len(common) == 1,
        order_product=normal_part.order * complement.order == group.order,
        product_bijective=products <= set(group.keys) and len(products) == group.order,
    )


def _reference_abelian_invariants(sub):
    matrices = _matrices(sub)
    if any(a * b != b * a for a in matrices for b in matrices):
        raise NotAbelianError
    n = sub.order
    if n == 1:
        return ()
    identity = UnitaryMatrix.identity(matrices[0].dim).key_bytes()

    def span(g):
        keys, power = {identity}, g
        while power.key_bytes() != identity:
            keys.add(power.key_bytes())
            power = power * g
        return keys

    spans = [span(m) for m in matrices]
    top = max(len(s) for s in spans)
    if top == n:
        return (n,)
    for x in spans:
        for y in spans:
            if len(x) == top and len(y) == n // top and len(x & y) == 1:
                return (top, n // top)
    raise DecompositionNotFoundError


@pytest.fixture(scope="module")
def named_subgroups(paper_group, named_elements, subgroup_n, subgroup_h):
    def sub(*names):
        return subgroup(paper_group, [index_of(paper_group, named_elements[k]) for k in names])

    g1 = paper_group.matrices[paper_group.generators[0]]
    return {
        "1": subgroup(paper_group, [0]),
        # normal, order 3
        "<G1^6>": subgroup(paper_group, [index_of(paper_group, g1 ** 6)]),
        "N": subgroup_n,
        "H": subgroup_h,
        "<A>": sub("A"),
        "<B>": sub("B"),
        "<T3>": sub("T3"),
        "<A,B,T3>": sub("A", "B", "T3"),
        "G": subgroup(paper_group, paper_group.generators),
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotAbelianError, DecompositionNotFoundError) as exc:
        return type(exc)


def test_structural_queries_match_matrix_reference(paper_group, named_subgroups):
    assert named_subgroups["<A,B,T3>"].order == 54
    assert is_normal(paper_group, named_subgroups["<G1^6>"])
    for name, sub in named_subgroups.items():
        assert is_normal(paper_group, sub) == _reference_is_normal(paper_group, sub), name
        assert _outcome(abelian_invariants, sub) == _outcome(
            _reference_abelian_invariants, sub
        ), name
    assert not is_normal(paper_group, named_subgroups["H"])
    assert abelian_invariants(named_subgroups["N"]) == (9, 3)


@pytest.mark.parametrize(
    "normal_name, complement_name, all_ok",
    [
        ("N", "H", True),
        ("N", "N", False),
        ("<A>", "H", False),
        ("<B>", "<T3>", False),
        ("<A,B,T3>", "H", False),
        ("G", "<T3>", False),  # bijective onto G, yet neither trivial nor of order 162
        ("G", "1", True),
    ],
)
def test_semidirect_flags_match_matrix_reference(
    paper_group, named_subgroups, normal_name, complement_name, all_ok
):
    normal_part = named_subgroups[normal_name]
    complement = named_subgroups[complement_name]
    report = semidirect_verify(paper_group, normal_part, complement)
    assert report == _reference_semidirect(paper_group, normal_part, complement)
    assert report.all_ok == all_ok


def test_structural_queries_make_no_matrix_product(
    paper_group, named_elements, named_subgroups, monkeypatch
):
    cayley_table(paper_group)  # the one guarded table is built (and cached) first
    n_gens, h_gens = (
        [index_of(paper_group, named_elements[k]) for k in names]
        for names in (("A", "B"), ("T1", "T3"))
    )

    def no_product(self, other):
        raise AssertionError("a structural query multiplied matrices")

    monkeypatch.setattr(UnitaryMatrix, "__mul__", no_product)
    n, h = named_subgroups["N"], named_subgroups["H"]
    assert is_normal(paper_group, n)
    assert semidirect_verify(paper_group, n, h).all_ok
    assert abelian_invariants(n) == (9, 3)
    assert len(conjugacy_classes(cayley_table(paper_group))) == 22
    assert subgroup(paper_group, [*n_gens, *h_gens]).order == 162
    assert subgroup(paper_group, n_gens).order == 27
    cyc_a, cyc_b = named_subgroups["<A>"], named_subgroups["<B>"]
    assert intersect(cyc_a, cyc_b).order == 1
    assert intersect(h, n).order == 1
    assert intersect(n, n).order == 27
    pairs = {decompose(paper_group, x, n, h) for x in range(paper_group.order)}
    assert len(pairs) == 162
    with pytest.raises(ValueError):
        subgroup(paper_group, [])


# ---------------------------------------------------------------------------
# subgroups and factorizations on the table against the matrix closure


def _reference_members(group, xs):
    """The group indices of the matrix closure of the elements `xs`."""
    ref = mg.close([group.matrices[x] for x in xs], cap=group.order)
    return tuple(sorted(map(group.keys.index, ref.keys)))


def _assert_same_closure(sub, ref):
    assert sub.keys == ref.keys
    assert sub.words == ref.words
    assert sub._bfs_mult == ref._bfs_mult
    assert sub._bfs_parent == ref._bfs_parent
    assert sub._actions == ref._actions
    assert [sub.keys[g] for g in sub.generators] == [ref.keys[g] for g in ref.generators]


def _reference_close(generators, cap=100_000):
    """The closure before it multiplied by the generators alone: every
    signed generator multiplies matrices, an inverse being the conjugate
    transpose, in one layered loop of its own.  A signed generator equal
    to an earlier one shares its slot; each layer keeps the least word per
    new key, is checked against the cap and is appended in key order, and
    the action entries that reached a new element are filled in after.  It
    tells matrices apart by their key text, where `close` reads the serial
    ids of their entries."""
    order = math.lcm(*(g.scalar_order() for g in generators))
    distinct, slot_of_key, slot_of_signed, generator_keys = [], {}, {}, []
    for i, g in enumerate(generators, 1):
        g = g.embed(order)
        generator_keys.append(g.key_bytes())
        for signed, mat in ((i, g), (-i, g.conj_transpose())):
            key = mat.key_bytes()
            if key not in slot_of_key:
                slot_of_key[key] = len(distinct)
                distinct.append((signed, mat))
            slot_of_signed[signed] = slot_of_key[key]

    identity = UnitaryMatrix.identity(generators[0].dim)
    elements = {identity.key_bytes(): 0}
    keys, matrices, words = [identity.key_bytes()], [identity], [()]
    bfs_mult, bfs_parent = [0], [-1]
    action = [[] for _ in distinct]
    frontier = [0]
    while frontier:
        layer, pending = {}, []
        for parent_idx in frontier:
            parent, parent_word = matrices[parent_idx], words[parent_idx]
            for slot, (signed, mat) in enumerate(distinct):
                product = mat * parent
                key = product.key_bytes()
                if key in elements:
                    action[slot].append(elements[key])
                    continue
                action[slot].append(-1)
                pending.append((slot, parent_idx, key))
                word = (signed,) + parent_word
                if key not in layer or word < layer[key][0]:
                    layer[key] = (word, product, signed, parent_idx)
        if len(elements) + len(layer) > cap:
            raise mg.GroupTooLargeError(
                f"closure exceeded cap={cap}; generators may not span a finite group"
            )
        frontier = []
        for key in sorted(layer):
            word, product, signed, parent_idx = layer[key]
            elements[key] = len(keys)
            frontier.append(len(keys))
            keys.append(key)
            matrices.append(product)
            words.append(word)
            bfs_mult.append(signed)
            bfs_parent.append(parent_idx)
        for slot, parent_idx, key in pending:
            action[slot][parent_idx] = elements[key]
    return mg.FiniteMatrixGroup(
        order, tuple(matrices), tuple(keys), tuple(words),
        tuple(elements[k] for k in generator_keys), tuple(bfs_mult), tuple(bfs_parent),
        {signed: tuple(action[slot]) for signed, slot in slot_of_signed.items()},
    )


CLOSURE_INPUTS = {
    "paper": lambda: list(paper_generators()),
    "familyD 9": lambda: d_generators(DParams(CParams(9, 1, 1), 2, 1, 1)),
    "familyD 18": lambda: d_generators(DParams(CParams(18, 1, 1), 2, 1, 1)),
    "familyC 9": lambda: c_generators(CParams(9, 1, 1)),
    "involution": lambda: [UnitaryMatrix.diagonal([-1, -1, 1])],
    "[g, g]": lambda: [paper_generators()[0]] * 2,
    "[g, g^-1]": lambda: [paper_generators()[1] ** k for k in (1, -1)],
    "[I]": lambda: [UnitaryMatrix.identity(3)],
    # one generator held at twice its order: both embed into order 144, where
    # they are one matrix
    "[g, g at order 144]": lambda: [paper_generators()[0], paper_generators()[0].embed(144)],
    # 2x2 generators at orders 4, 3 and 1 closing at working order 12
    "orders 4, 3 and 1": lambda: [
        UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3)]),
        UnitaryMatrix.diagonal([root_of_unity(3), root_of_unity(3, 2)]),
        UnitaryMatrix.from_rows([[0, 1], [-1, 0]]),
    ],
}


@pytest.mark.parametrize("name", CLOSURE_INPUTS)
def test_close_matches_the_signed_matrix_closure(name):
    generators = CLOSURE_INPUTS[name]()
    group, ref = mg.close(generators), _reference_close(generators)
    _assert_same_closure(group, ref)
    assert group.generators == ref.generators
    assert group.working_order == ref.working_order
    assert group.matrices == ref.matrices


@pytest.mark.parametrize("name", [*CLOSURE_INPUTS, "familyD 45"])
def test_close_orders_each_layer_by_key_text(name):
    # the closure tells products apart by their entries' serial ids; the key
    # text, built afterwards for the elements alone, still fixes the order
    if name == "familyD 45":
        group = mg.close(d_generators(DParams(CParams(45, 1, 1), 2, 1, 1)))
        assert group.order == 4050
    else:
        group = mg.close(CLOSURE_INPUTS[name]())
    assert list(group.keys) == [m.key_bytes() for m in group.matrices]
    assert len(set(group.keys)) == group.order
    assert [len(w) for w in group.words] == sorted(len(w) for w in group.words)
    for _, layer in itertools.groupby(range(group.order), key=lambda i: len(group.words[i])):
        keys = [group.keys[i] for i in layer]
        assert keys == sorted(keys), name


def test_close_over_the_cap_fails_as_the_signed_closure(paper_matrices):
    for generators, cap in (
        (list(paper_matrices), 100),
        (list(paper_matrices), 161),
        ([UnitaryMatrix.diagonal([root_of_unity(36), root_of_unity(36, 35)])], 10),
        (CLOSURE_INPUTS["familyD 18"](), 647),
    ):
        with pytest.raises(mg.GroupTooLargeError) as ref:
            _reference_close(generators, cap)
        with pytest.raises(mg.GroupTooLargeError) as got:
            mg.close(generators, cap)
        assert str(got.value) == str(ref.value) == (
            f"closure exceeded cap={cap}; generators may not span a finite group"
        )
    assert mg.close(list(paper_matrices), 162).order == 162
    assert mg.close(CLOSURE_INPUTS["familyD 18"](), 648).order == 648


def test_close_multiplies_by_the_generators_alone(paper_matrices, monkeypatch):
    counted = []
    product = UnitaryMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    assert mg.close(list(paper_matrices)).order == 162
    assert len(counted) == 324 == 162 * 2


def test_subgroup_matches_matrix_closure(paper_group, named_elements):
    named = {"1": [0], "G": list(paper_group.generators)}
    for names in ("A", "B", "T3", "A B", "T1 T3", "A B T3"):
        named[names] = [index_of(paper_group, named_elements[k]) for k in names.split()]
    g1 = paper_group.matrices[paper_group.generators[0]]
    named["G1^6"] = [index_of(paper_group, g1 ** 6)]
    for name, xs in named.items():
        sub = subgroup(paper_group, xs)
        assert sub.group is paper_group, name
        assert sub.members == _reference_members(paper_group, xs), name
    assert subgroup(paper_group, named["G"]).members == tuple(range(162))


def test_subgroup_matches_matrix_closure_order_648(family_648):
    rng = random.Random(18)
    orders = []
    for _ in range(5):
        gens = [rng.randrange(family_648.order) for _ in range(2)]
        sub = subgroup(family_648, gens)
        assert sub.members == _reference_members(family_648, gens)
        orders.append(sub.order)
    assert len(set(orders)) > 1  # the pairs do not all generate one subgroup


def _reference_decompose(g, normal_part, complement):
    group, ns = normal_part.group, _keys(normal_part)
    matches = []
    for h in complement.members:
        n_matrix = g * group.matrices[h].conj_transpose()
        if n_matrix.key_bytes() in ns:
            matches.append((group.keys.index(n_matrix.key_bytes()), h))
    if not matches:
        raise NoFactorizationError("element has no n*h factorization")
    if len(matches) > 1:
        raise NonUniqueFactorizationError("factorization is not unique")
    return matches[0]


def _factorization(fn, *args):
    try:
        return fn(*args)
    except (NoFactorizationError, NonUniqueFactorizationError) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "normal_name, complement_name, failures",
    [("N", "H", 0), ("<A>", "H", 108), ("<T3>", "<T3>", 162)],
)
def test_decompose_matches_matrix_reference(
    paper_group, named_subgroups, normal_name, complement_name, failures
):
    normal_part = named_subgroups[normal_name]
    complement = named_subgroups[complement_name]
    outcomes = []
    for x, m in enumerate(paper_group.matrices):
        got = _factorization(decompose, paper_group, x, normal_part, complement)
        assert got == _factorization(_reference_decompose, m, normal_part, complement)
        outcomes.append(got)
    assert sum(isinstance(o, type) for o in outcomes) == failures
