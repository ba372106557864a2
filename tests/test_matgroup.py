import itertools
import json
import math
import os
import random
import threading

import pytest

from su3braid import matgroup as mg
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
        assert (a * b).key_bytes() in paper_group.elements
        assert a.conj_transpose().key_bytes() in paper_group.elements


def test_word_provenance(paper_group):
    gens = [paper_group.matrices[g] for g in paper_group.generators]
    for word, key in zip(paper_group.words, paper_group.keys):
        assert mg.word_eval(word, gens).key_bytes() == key


def test_element_order(paper_group, named_elements):
    assert mg.element_order(paper_group.matrices[0]) == 1
    assert mg.element_order(named_elements["A"]) == 9
    assert mg.element_order(named_elements["B"]) == 3
    assert mg.element_order(named_elements["T1"]) == 2
    with pytest.raises(mg.OrderExceedsCapError):
        mg.element_order(named_elements["A"], cap=5)


def test_subgroup_orders(paper_group, named_elements, subgroup_n, subgroup_h):
    assert subgroup_n.order == 27
    assert subgroup_h.order == 6
    trivial = mg.subgroup(paper_group, [0])
    assert trivial.order == 1
    # Lagrange on every subgroup we build
    for sub in (subgroup_n, subgroup_h, trivial):
        assert paper_group.order % sub.order == 0


def test_subgroup_rejects_outsiders(paper_group):
    stranger = UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])
    with pytest.raises(mg.GeneratorNotInGroupError):
        mg.subgroup(paper_group, [paper_group.index_of(stranger)])
    # an index outside 0..order-1, which would otherwise wrap or overrun
    for x in (-1, paper_group.order):
        with pytest.raises(mg.GeneratorNotInGroupError):
            mg.subgroup(paper_group, [x])


def test_index_of_a_matrix_held_at_another_order():
    d = UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3), 1])
    group = mg.close([d])
    assert group.working_order == 4
    assert d.embed(8) == d and d.embed(8).key_bytes() != d.key_bytes()
    assert group.index_of(d.embed(8)) == group.index_of(d) == group.generators[0]
    # zeta_8 does not lie in Q(zeta_4), and Q(zeta_3) and Q(zeta_4) share no embedding
    for entry in (root_of_unity(8), root_of_unity(3)):
        stranger = UnitaryMatrix.diagonal([entry, entry.conj(), 1])
        with pytest.raises(mg.GeneratorNotInGroupError):
            group.index_of(stranger)


def _outside():
    """A subgroup of a group other than the braid image."""
    group = mg.close([UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])])
    return mg.subgroup(group, group.generators)


def test_is_normal(paper_group, subgroup_n, subgroup_h):
    assert mg.is_normal(paper_group, subgroup_n)
    assert not mg.is_normal(paper_group, subgroup_h)
    assert mg.is_normal(paper_group, mg.subgroup(paper_group, paper_group.generators))
    with pytest.raises(mg.NotASubgroupError):
        mg.is_normal(paper_group, _outside())
    with pytest.raises(mg.NotASubgroupError):  # a group is not a subgroup record
        mg.is_normal(paper_group, paper_group)


def test_intersect(paper_group, named_elements, subgroup_n, subgroup_h):
    cyc_a = mg.subgroup(paper_group, [paper_group.index_of(named_elements["A"])])
    cyc_b = mg.subgroup(paper_group, [paper_group.index_of(named_elements["B"])])
    assert mg.intersect(cyc_a, cyc_b).order == 1
    assert mg.intersect(subgroup_h, subgroup_n).order == 1
    assert mg.intersect(subgroup_n, subgroup_n).order == subgroup_n.order


def test_groups_at_different_working_orders_are_refused(paper_group):
    # equal matrix sets held at orders 4 and 8: still two groups, so a
    # subgroup of one is refused by the other
    d = UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3), 1])
    a, b = mg.close([d]), mg.close([d.embed(8)])
    assert (a.order, a.working_order, b.order, b.working_order) == (4, 4, 4, 8)
    assert mg.same_matrix_set(a, b)
    sub_a, sub_b = mg.subgroup(a, a.generators), mg.subgroup(b, b.generators)
    for query in (
        lambda: mg.intersect(sub_a, sub_b),
        lambda: mg.is_normal(a, sub_b),
        lambda: mg.semidirect_verify(a, sub_b, sub_a),
        lambda: mg.decompose(a, 0, sub_a, sub_b),
    ):
        with pytest.raises(mg.NotASubgroupError, match="not taken in this group"):
            query()
    # at a shared working order, a subgroup of another group is refused too
    z72 = root_of_unity(72)
    outside = mg.close([UnitaryMatrix.diagonal([z72, z72.conj(), 1])])
    assert outside.working_order == paper_group.working_order
    with pytest.raises(mg.NotASubgroupError, match="not taken in this group"):
        mg.is_normal(paper_group, mg.subgroup(outside, outside.generators))


def test_a_subgroup_belongs_to_the_group_it_was_taken_in(
    paper_group, family_group, subgroup_n, subgroup_h
):
    # an index of the family group names another element of the braid
    # image, so a subgroup taken in the family group is refused there
    taken = mg.subgroup(family_group, family_group.generators[:1])
    assert taken.group is family_group and taken.order < 162
    for query in (
        lambda: mg.is_normal(paper_group, taken),
        lambda: mg.semidirect_verify(paper_group, subgroup_n, taken),
        lambda: mg.semidirect_verify(paper_group, taken, subgroup_h),
        lambda: mg.decompose(paper_group, 0, taken, subgroup_h),
        lambda: mg.decompose(paper_group, 0, subgroup_n, taken),
        lambda: mg.intersect(taken, subgroup_n),
        lambda: mg.intersect(subgroup_n, taken),
    ):
        with pytest.raises(mg.NotASubgroupError):
            query()


def test_abelian_invariants(paper_group, named_elements, subgroup_n, subgroup_h):
    assert mg.abelian_invariants(subgroup_n) == (9, 3)
    cyc_a = mg.subgroup(paper_group, [paper_group.index_of(named_elements["A"])])
    assert mg.abelian_invariants(cyc_a) == (9,)
    trivial = mg.subgroup(paper_group, [0])
    assert mg.abelian_invariants(trivial) == ()
    with pytest.raises(mg.NotAbelianError):
        mg.abelian_invariants(subgroup_h)
    # rank 3 is outside the supported range: Z2^3 from diagonal sign matrices
    signs = [UnitaryMatrix.diagonal([1] * i + [-1] + [1] * (2 - i)) for i in range(3)]
    z2_cubed = mg.close(signs)
    with pytest.raises(mg.DecompositionNotFoundError):
        mg.abelian_invariants(mg.subgroup(z2_cubed, z2_cubed.generators))


def test_semidirect_verify(paper_group, named_elements, subgroup_n, subgroup_h):
    report = mg.semidirect_verify(paper_group, subgroup_n, subgroup_h)
    assert report.all_ok
    # N against itself: the intersection is N, not trivial
    self_report = mg.semidirect_verify(paper_group, subgroup_n, subgroup_n)
    assert not self_report.trivial_intersection
    # <A> is too small: 9 * 6 != 162
    cyc_a = mg.subgroup(paper_group, [paper_group.index_of(named_elements["A"])])
    small = mg.semidirect_verify(paper_group, cyc_a, subgroup_h)
    assert not small.order_product
    with pytest.raises(mg.NotASubgroupError):
        mg.semidirect_verify(paper_group, subgroup_n, _outside())


def test_decompose(paper_group, named_elements, subgroup_n, subgroup_h):
    a, b, t3, t1 = (named_elements[k] for k in ("A", "B", "T3", "T1"))
    ns = hs = paper_group.matrices  # the factors are indices of the group
    g1, g2 = paper_group.generators
    n, h = mg.decompose(paper_group, g1, subgroup_n, subgroup_h)
    assert ns[n] == a ** 5 * b ** 2 and hs[h] == t3
    n, h = mg.decompose(paper_group, g2, subgroup_n, subgroup_h)
    assert ns[n] == a ** -1 * b and hs[h] == t3 * t1 * t3
    n, h = mg.decompose(paper_group, 0, subgroup_n, subgroup_h)
    assert ns[n] == UnitaryMatrix.identity(3)
    assert hs[h] == UnitaryMatrix.identity(3)


def test_decompose_is_a_bijection(paper_group, subgroup_n, subgroup_h):
    pairs = set()
    for x in range(paper_group.order):
        n, h = mg.decompose(paper_group, x, subgroup_n, subgroup_h)
        assert paper_group.cayley_table()[n][h] == x
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


def test_word_eval(paper_group, named_elements):
    gens = [paper_group.matrices[g] for g in paper_group.generators]
    f = mg.word_eval((1, 2, -1, -1), gens)
    assert f.key_bytes() == named_elements["F"].key_bytes()
    assert mg.word_eval((), gens) == UnitaryMatrix.identity(3)
    t3 = named_elements["T3"]
    assert t3 == UnitaryMatrix.diagonal([-1, -1, 1])
    with pytest.raises(IndexError):
        mg.word_eval((3,), gens)


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
    assert mg.check_relations(gens, good) == [True] * 10
    assert mg.check_relations(gens, [((("A", 8),), eye)]) == [False]
    with pytest.raises(KeyError):
        mg.check_relations(gens, [((("X", 1),), eye)])


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
    classes = mg.conjugacy_classes(_closed(named_elements, "A", "B"))
    assert all(len(c) == 1 for c in classes)  # abelian: singletons
    classes = mg.conjugacy_classes(paper_group)
    assert sum(len(c) for c in classes) == 162
    assert all(162 % len(c) == 0 for c in classes)
    identity_class = [c for c in classes if 0 in c]
    assert identity_class == [(0,)]


def test_cayley_table_shape(paper_group):
    table = paper_group.cayley_table()
    assert table[0] == list(range(162))
    assert [row[0] for row in table] == list(range(162))
    # every row and column is a permutation
    full = set(range(162))
    assert all(set(row) == full for row in table)
    assert all(set(column) == full for column in zip(*table))


def _direct_product_index(group, i, j):
    a, b = group.matrices[i], group.matrices[j]
    return group.elements[(a * b).key_bytes()]


@pytest.mark.parametrize("name", ["paper_group", "family_group", "closed N"])
def test_derived_table_equals_direct_products(request, named_elements, name):
    if name == "closed N":
        group = _closed(named_elements, "A", "B")
    else:
        group = request.getfixturevalue(name)
    n = group.order
    direct = [[_direct_product_index(group, i, j) for j in range(n)] for i in range(n)]
    assert group.cayley_table() == direct


def test_derived_table_order_648_seeded_entries(family_648):
    group = family_648
    assert group.order == 648
    table = group.cayley_table()
    rng = random.Random(648)
    for _ in range(300):
        i, j = rng.randrange(648), rng.randrange(648)
        assert table[i][j] == _direct_product_index(group, i, j)


def test_actions_are_left_multiplication(paper_group):
    for signed in (1, -1, 2, -2):
        g = paper_group.matrices[paper_group.generators[abs(signed) - 1]]
        if signed < 0:
            g = g.conj_transpose()
        perm = paper_group.action(signed)
        assert sorted(perm) == list(range(162))
        for x in (0, 5, 77, 161):
            product = g * paper_group.matrices[x]
            assert paper_group.elements[product.key_bytes()] == perm[x]
    # an involution's inverse shares its action
    t3 = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    assert t3.action(1) == t3.action(-1) == (1, 0)


def test_corrupted_action_is_caught(paper_matrices):
    group = mg.close(list(paper_matrices))
    perm = list(group.action(2))
    perm[40], perm[41] = perm[41], perm[40]
    group._actions[2] = tuple(perm)
    with pytest.raises(mg.CayleyTableError):
        group.cayley_table()


def test_corrupted_provenance_is_caught(paper_matrices):
    group = mg.close(list(paper_matrices))
    # re-point the parent of every element past the generator layer
    group._bfs_parent = group._bfs_parent[:5] + tuple(
        (p + 1) % group.order for p in group._bfs_parent[5:]
    )
    with pytest.raises(mg.CayleyTableError):
        group.cayley_table()


def _rebuilt(group, actions=None, bfs_parent=None):
    """A copy of `group` whose table is not built yet, with the given
    actions or provenance in place of the closure's."""
    return mg.FiniteMatrixGroup(
        group.working_order, group.matrices, group.keys, group.words, group.generators,
        group._bfs_mult, group._bfs_parent if bfs_parent is None else bfs_parent,
        group._actions if actions is None else actions,
    )


def test_order_648_corruptions_are_caught(family_648):
    # a generator that is not an involution: its inverse has its own action
    signed = next(s for s in family_648._actions if family_648.action(s) != family_648.action(-s))
    rng = random.Random(6)
    for _ in range(4):
        perm = list(family_648.action(signed))
        x, y = rng.sample(range(648), 2)
        perm[x], perm[y] = perm[y], perm[x]
        corrupted = {**family_648._actions, signed: tuple(perm)}
        with pytest.raises(mg.CayleyTableError):
            _rebuilt(family_648, actions=corrupted).cayley_table()
    parent = family_648._bfs_parent
    repointed = parent[:5] + tuple((p + 1) % 648 for p in parent[5:])
    with pytest.raises(mg.CayleyTableError):
        _rebuilt(family_648, bfs_parent=repointed).cayley_table()
    assert _rebuilt(family_648).cayley_table() == family_648.cayley_table()


# ---------------------------------------------------------------------------
# the integer conditions of the table guard, one bad table each


def _generator_indices(group):
    out = {}
    for s, g in enumerate(group.generators, 1):
        out[s] = g
        out[-s] = group.elements[group.matrices[g].conj_transpose().key_bytes()]
    return out


def _failed_conditions(group, table):
    n = len(table)
    full = set(range(n))
    gens = _generator_indices(group)
    checks = {
        "identity": table[0] == list(range(n)) and [row[0] for row in table] == list(range(n)),
        "latin": all(set(row) == full for row in table)
        and all(set(col) == full for col in zip(*table)),
        "action": all(tuple(table[a]) == group.action(s) for s, a in gens.items()),
        # (x*a)*y == x*(a*y) for every y, as whole rows
        "light": all(
            table[table[x][a]] == [table[x][ay] for ay in table[a]]
            for a in set(gens.values()) for x in range(n)
        ),
    }
    return {name for name, ok in checks.items() if not ok}


def _relabeled(table, sigma):
    """The table of the same group with element i renamed sigma[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = sigma[table[i][j]]
    return out


def _plain_elements(group):
    """Indices other than the identity and the signed generators, by index."""
    gens = set(_generator_indices(group).values())
    return [x for x in range(1, group.order) if x not in gens]


def _swap_an_intercalate(group, table):
    """Exchange u and v in a 2x2 subsquare [[u, v], [v, u]] that avoids
    row 0, column 0 and the generator rows: the result is a Latin square
    with the true identity and generator rows, but not a group table.
    Such a subsquare is x, xt by y, ty for an involution t."""
    plain = _plain_elements(group)
    t = next(x for x in range(1, group.order) if table[x][x] == 0)
    x = next(x for x in plain if table[x][t] in plain)
    y = next(y for y in range(1, group.order) if table[t][y] != 0)
    out = [list(row) for row in table]
    x2, y2 = table[x][t], table[t][y]
    out[x][y], out[x][y2] = table[x][y2], table[x][y]
    out[x2][y], out[x2][y2] = table[x2][y2], table[x2][y]
    return out


def _bad_identity(group, table):
    # the same group with the identity renamed: a group table whose row 0 is not the identity
    u = _plain_elements(group)[0]
    sigma = list(range(group.order))
    sigma[0], sigma[u] = u, 0
    return _relabeled(table, sigma)


def _bad_latin(group, table):
    out = [list(row) for row in table]
    x = _plain_elements(group)[0]
    out[x][2] = out[x][1]
    return out


def _bad_action(group, table):
    # the same group with two plain elements renamed: associative, true identity
    u, v = _plain_elements(group)[:2]
    sigma = list(range(group.order))
    sigma[u], sigma[v] = v, u
    return _relabeled(table, sigma)


# With the true actions, row 0, the generator rows and Light's test force the
# true table (see `_check_table`), so no table fails the identity or the
# Latin condition alone; those two tables fail later conditions as well.
@pytest.mark.parametrize("name", ["paper_group", "family_648"])
@pytest.mark.parametrize("condition, build, alone, message", [
    ("identity", _bad_identity, False, "row 0 or column 0"),
    ("latin", _bad_latin, False, "Latin square"),
    ("action", _bad_action, True, "differs from the action"),
    ("light", _swap_an_intercalate, True, "Light's test"),
])
def test_check_table_rejects_each_integer_condition(
    request, name, condition, build, alone, message
):
    # order 162 is guarded in process; from order 256 Light's test runs in a
    # forked child, and the first failure must be the same
    group = request.getfixturevalue(name)
    table = group.cayley_table()
    assert _failed_conditions(group, table) == set()
    bad = build(group, table)
    failed = _failed_conditions(group, bad)
    assert condition in failed
    if alone:
        assert failed == {condition}
    with pytest.raises(mg.CayleyTableError, match=message):
        mg._check_table(group, bad)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_guard_leaves_no_process(family_648):
    assert family_648.order >= mg._FORK_ORDER
    table = family_648.cayley_table()
    mg._check_table(family_648, table)
    _no_child_left()
    # a failure found here, while the child may still run, and one found there
    for build in (_bad_latin, _swap_an_intercalate):
        with pytest.raises(mg.CayleyTableError):
            mg._check_table(family_648, build(family_648, table))
        _no_child_left()


def test_forked_guard_fails_when_its_child_dies(family_648, monkeypatch):
    caller = os.getpid()

    def dies(table, rows):
        if os.getpid() != caller:
            os._exit(3)
        raise AssertionError("Light's test ran in the calling process")

    monkeypatch.setattr(mg, "_light_failure", dies)
    with pytest.raises(mg.CayleyTableError, match=r"without a verdict \(exit status 3\)"):
        mg._check_table(family_648, family_648.cayley_table())
    _no_child_left()


def test_guard_makes_only_the_sampled_products(paper_matrices, monkeypatch):
    group = mg.close(list(paper_matrices))
    words = ((1, 2, 1), (1, 2, 2, -1), (1, -2, -2, 1))
    gens = [group.matrices[g] for g in group.generators]
    t1, a, b = (group.index_of(mg.word_eval(w, gens)) for w in words)
    counted = []
    product = UnitaryMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    group.cayley_table()
    assert len(counted) == 256 == min(256, 162 ** 2)
    # a subgroup is read off the guarded table: no table and no product of its own
    h, n = mg.subgroup(group, [t1]), mg.subgroup(group, [a, b])
    trivial = mg.subgroup(group, [0])
    assert (h.order, n.order, trivial.order) == (2, 27, 1)
    assert trivial.members == (0,)
    assert len(counted) == 256


def test_guard_runs_in_process_when_it_cannot_fork(family_648, monkeypatch):
    def no_process():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_process)
    mg._check_table(family_648, family_648.cayley_table())
    # beside a second thread, whose locks a child could inherit held, the
    # guard does not fork at all
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        mg._check_table(family_648, family_648.cayley_table())
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_forked_guard_makes_only_the_sampled_products(family_648, monkeypatch):
    counted = []
    product = UnitaryMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    assert _rebuilt(family_648).cayley_table() == family_648.cayley_table()
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
    g = PermutationGroup([Permutation(list(paper_group.action(s))) for s in (1, 2)])
    assert g.order() == 162
    assert len(g.conjugacy_classes()) == 22
    assert len(mg.conjugacy_classes(paper_group)) == 22
    assert g.derived_subgroup().order() == 27
    table = paper_group.cayley_table()
    n = PermutationGroup([
        Permutation(table[paper_group.index_of(named_elements[k])]) for k in ("A", "B")
    ])
    assert n.order() == subgroup_n.order == 27
    assert n.is_normal(g)
    assert mg.is_normal(paper_group, subgroup_n)
    assert tuple(sorted(n.abelian_invariants(), reverse=True)) == (9, 3)
    assert mg.abelian_invariants(subgroup_n) == (9, 3)


def test_extend_to_isomorphism(paper_group, family_group):
    images = mg.find_isomorphism(paper_group, family_group)
    phi = mg.extend_to_isomorphism(paper_group, family_group, images)
    assert phi is not None and sorted(phi) == list(range(162))
    # identity images cannot extend to a bijection
    assert mg.extend_to_isomorphism(paper_group, family_group, [0, 0]) is None
    assert mg.extend_to_isomorphism(paper_group, family_group, images[:1]) is None


def test_find_isomorphism_positive(paper_group, family_group):
    images = mg.find_isomorphism(paper_group, family_group)
    assert images is not None
    assert all(0 <= x < family_group.order for x in images)


def test_find_isomorphism_self(paper_group):
    images = mg.find_isomorphism(paper_group, paper_group)
    assert images is not None
    assert images == list(paper_group.generators)


def test_find_isomorphism_order_mismatch(paper_group, named_elements):
    # the direct-product-style subgroup <A, B, T3> has order 54, not 162
    product_54 = _closed(named_elements, "A", "B", "T3")
    assert product_54.order == 54
    assert mg.find_isomorphism(paper_group, product_54) is None


def test_decompose_error_cases(paper_group, named_elements, subgroup_h):
    cyc_a = mg.subgroup(paper_group, [paper_group.index_of(named_elements["A"])])
    # only 9 * 6 = 54 of the 162 elements factor through <A> * H
    missing = 0
    for x in range(paper_group.order):
        try:
            mg.decompose(paper_group, x, cyc_a, subgroup_h)
        except mg.NoFactorizationError:
            missing += 1
    assert missing == 162 - 54
    # identity = I*I = T3*T3 inside <T3> * <T3>
    cyc_t3 = mg.subgroup(paper_group, [paper_group.index_of(named_elements["T3"])])
    with pytest.raises(mg.NonUniqueFactorizationError):
        mg.decompose(paper_group, 0, cyc_t3, cyc_t3)
    stranger = UnitaryMatrix.diagonal([root_of_unity(5), root_of_unity(5, 4), 1])
    with pytest.raises(mg.GeneratorNotInGroupError):
        mg.decompose(paper_group, paper_group.index_of(stranger), cyc_t3, cyc_t3)
    for x in (-1, paper_group.order):
        with pytest.raises(mg.GeneratorNotInGroupError):
            mg.decompose(paper_group, x, cyc_t3, cyc_t3)
    with pytest.raises(mg.NotASubgroupError):
        mg.decompose(paper_group, 0, _outside(), subgroup_h)


def test_find_isomorphism_negative():
    c2 = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])
    c4 = mg.close([UnitaryMatrix.diagonal([root_of_unity(4), root_of_unity(4, 3)])])
    assert mg.find_isomorphism(c2, c4) is None  # order mismatch
    # same order 4, different structure: C4 vs the Klein group
    klein = mg.close(
        [UnitaryMatrix.diagonal([-1, -1, 1]), UnitaryMatrix.diagonal([1, -1, -1])]
    )
    assert klein.order == 4
    assert mg.find_isomorphism(c4, klein) is None
    assert mg.find_isomorphism(klein, c4) is None


def test_same_matrix_set(paper_group, family_group, named_elements):
    assert not mg.same_matrix_set(paper_group, family_group)
    assert mg.same_matrix_set(paper_group, paper_group)
    assert not mg.same_matrix_set(paper_group, _closed(named_elements, "A", "B"))


def test_same_matrix_set_at_different_working_orders(paper_group, family_group):
    # C(9,1,1) closed at its own order 36 and again from generators held at 72
    gens = c_generators(CParams(9, 1, 1))
    low, high = mg.close(gens), mg.close([g.embed(72) for g in gens])
    assert (low.working_order, high.working_order, low.order) == (36, 72, high.order)
    assert low.keys != high.keys
    assert mg.same_matrix_set(low, high) and mg.same_matrix_set(high, low)
    # equal orders (162), working orders 72 and 36, different sets
    assert (paper_group.working_order, family_group.working_order) == (72, 36)
    assert not mg.same_matrix_set(paper_group, family_group)
    assert not mg.same_matrix_set(family_group, paper_group)


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
    table = group.cayley_table()
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
    return mg.SemidirectReport(
        normal=_reference_is_normal(group, normal_part),
        trivial_intersection=len(common) == 1,
        order_product=normal_part.order * complement.order == group.order,
        product_bijective=products <= group.elements.keys() and len(products) == group.order,
    )


def _reference_abelian_invariants(sub):
    matrices = _matrices(sub)
    if any(a * b != b * a for a in matrices for b in matrices):
        raise mg.NotAbelianError
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
    raise mg.DecompositionNotFoundError


@pytest.fixture(scope="module")
def named_subgroups(paper_group, named_elements, subgroup_n, subgroup_h):
    def sub(*names):
        return mg.subgroup(paper_group, [paper_group.index_of(named_elements[k]) for k in names])

    g1 = paper_group.matrices[paper_group.generators[0]]
    return {
        "1": mg.subgroup(paper_group, [0]),
        # normal, order 3
        "<G1^6>": mg.subgroup(paper_group, [paper_group.index_of(mg.word_eval((1,) * 6, [g1]))]),
        "N": subgroup_n,
        "H": subgroup_h,
        "<A>": sub("A"),
        "<B>": sub("B"),
        "<T3>": sub("T3"),
        "<A,B,T3>": sub("A", "B", "T3"),
        "G": mg.subgroup(paper_group, paper_group.generators),
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (mg.NotAbelianError, mg.DecompositionNotFoundError) as exc:
        return type(exc)


def test_structural_queries_match_matrix_reference(paper_group, named_subgroups):
    assert named_subgroups["<A,B,T3>"].order == 54
    assert mg.is_normal(paper_group, named_subgroups["<G1^6>"])
    for name, sub in named_subgroups.items():
        assert mg.is_normal(paper_group, sub) == _reference_is_normal(paper_group, sub), name
        assert _outcome(mg.abelian_invariants, sub) == _outcome(
            _reference_abelian_invariants, sub
        ), name
    assert not mg.is_normal(paper_group, named_subgroups["H"])
    assert mg.abelian_invariants(named_subgroups["N"]) == (9, 3)


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
    report = mg.semidirect_verify(paper_group, normal_part, complement)
    assert report == _reference_semidirect(paper_group, normal_part, complement)
    assert report.all_ok == all_ok


def test_structural_queries_make_no_matrix_product(
    paper_group, named_elements, named_subgroups, monkeypatch
):
    paper_group.cayley_table()  # the one guarded table is built (and cached) first
    n_gens, h_gens = (
        [paper_group.index_of(named_elements[k]) for k in names]
        for names in (("A", "B"), ("T1", "T3"))
    )

    def no_product(self, other):
        raise AssertionError("a structural query multiplied matrices")

    monkeypatch.setattr(UnitaryMatrix, "__mul__", no_product)
    n, h = named_subgroups["N"], named_subgroups["H"]
    assert mg.is_normal(paper_group, n)
    assert mg.semidirect_verify(paper_group, n, h).all_ok
    assert mg.abelian_invariants(n) == (9, 3)
    assert len(mg.conjugacy_classes(paper_group)) == 22
    assert mg.subgroup(paper_group, [*n_gens, *h_gens]).order == 162
    assert mg.subgroup(paper_group, n_gens).order == 27
    cyc_a, cyc_b = named_subgroups["<A>"], named_subgroups["<B>"]
    assert mg.intersect(cyc_a, cyc_b).order == 1
    assert mg.intersect(h, n).order == 1
    assert mg.intersect(n, n).order == 27
    pairs = {mg.decompose(paper_group, x, n, h) for x in range(paper_group.order)}
    assert len(pairs) == 162
    with pytest.raises(ValueError):
        mg.subgroup(paper_group, [])


# ---------------------------------------------------------------------------
# subgroups and factorizations on the table against the matrix closure


def _reference_members(group, xs):
    """The group indices of the matrix closure of the elements `xs`."""
    ref = mg.close([group.matrices[x] for x in xs], cap=group.order)
    return tuple(sorted(group.elements[k] for k in ref.keys))


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
    transpose."""
    order = math.lcm(*(g.scalar_order() for g in generators))
    multipliers = []
    for i, g in enumerate(generators, 1):
        g = g.embed(order)
        for signed, mat in ((i, g), (-i, g.conj_transpose())):
            multipliers.append((signed, mat.key_bytes(), mat))

    def times(mat, element):
        product = mat * element
        return product.key_bytes(), product

    identity = UnitaryMatrix.identity(generators[0].dim)
    matrices, *closure = mg._bfs((identity.key_bytes(), identity), multipliers, times, cap)
    return mg.FiniteMatrixGroup(order, tuple(matrices), *closure)


CLOSURE_INPUTS = {
    "paper": lambda: list(paper_generators()),
    "familyD 9": lambda: d_generators(DParams(CParams(9, 1, 1), 2, 1, 1)),
    "familyD 18": lambda: d_generators(DParams(CParams(18, 1, 1), 2, 1, 1)),
    "familyC 9": lambda: c_generators(CParams(9, 1, 1)),
    "involution": lambda: [UnitaryMatrix.diagonal([-1, -1, 1])],
    "[g, g]": lambda: [paper_generators()[0]] * 2,
    "[g, g^-1]": lambda: [paper_generators()[1] ** k for k in (1, -1)],
    "[I]": lambda: [UnitaryMatrix.identity(3)],
}


@pytest.mark.parametrize("name", CLOSURE_INPUTS)
def test_close_matches_the_signed_matrix_closure(name):
    generators = CLOSURE_INPUTS[name]()
    group, ref = mg.close(generators), _reference_close(generators)
    _assert_same_closure(group, ref)
    assert group.generators == ref.generators
    assert group.working_order == ref.working_order
    assert group.matrices == ref.matrices


def test_close_over_the_cap_fails_as_the_signed_closure(paper_matrices):
    for generators, cap in (
        (list(paper_matrices), 100),
        (list(paper_matrices), 161),
        ([UnitaryMatrix.diagonal([root_of_unity(36), root_of_unity(36, 35)])], 10),
    ):
        with pytest.raises(mg.GroupTooLargeError) as ref:
            _reference_close(generators, cap)
        with pytest.raises(mg.GroupTooLargeError) as got:
            mg.close(generators, cap)
        assert str(got.value) == str(ref.value) == (
            f"closure exceeded cap={cap}; generators may not span a finite group"
        )
    assert mg.close(list(paper_matrices), 162).order == 162


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
        named[names] = [paper_group.index_of(named_elements[k]) for k in names.split()]
    g1 = paper_group.matrices[paper_group.generators[0]]
    named["G1^6"] = [paper_group.index_of(g1 ** 6)]
    for name, xs in named.items():
        sub = mg.subgroup(paper_group, xs)
        assert sub.group is paper_group, name
        assert sub.members == _reference_members(paper_group, xs), name
    assert mg.subgroup(paper_group, named["G"]).members == tuple(range(162))


def test_subgroup_matches_matrix_closure_order_648(family_648):
    rng = random.Random(18)
    orders = []
    for _ in range(5):
        gens = [rng.randrange(family_648.order) for _ in range(2)]
        sub = mg.subgroup(family_648, gens)
        assert sub.members == _reference_members(family_648, gens)
        orders.append(sub.order)
    assert len(set(orders)) > 1  # the pairs do not all generate one subgroup


def _reference_decompose(g, normal_part, complement):
    group, ns = normal_part.group, _keys(normal_part)
    matches = []
    for h in complement.members:
        n_matrix = g * group.matrices[h].conj_transpose()
        if n_matrix.key_bytes() in ns:
            matches.append((group.elements[n_matrix.key_bytes()], h))
    if not matches:
        raise mg.NoFactorizationError("element has no n*h factorization")
    if len(matches) > 1:
        raise mg.NonUniqueFactorizationError("factorization is not unique")
    return matches[0]


def _factorization(fn, *args):
    try:
        return fn(*args)
    except (mg.NoFactorizationError, mg.NonUniqueFactorizationError) as exc:
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
        got = _factorization(mg.decompose, paper_group, x, normal_part, complement)
        assert got == _factorization(_reference_decompose, m, normal_part, complement)
        outcomes.append(got)
    assert sum(isinstance(o, type) for o in outcomes) == failures
