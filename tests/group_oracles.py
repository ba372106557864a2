"""Test-side oracles on closed groups: the Cayley table read back from the
engine's certified CSV export, subgroups as member sets closed on it, and the
structural queries read off it (normality, intersections, abelian
invariants, semidirect certificates, ``n*h`` factorizations), element
orders by matrix powers, conjugacy classes, an isomorphism search verified
on the full tables, and a matrix's index and matrix-set equality by
canonical keys.  `verify`
proves the braid image's structure from word identities and its conjugacy
to D(9,1,1;2,1,1) by one exact matrix; these are the abstract cross-checks
on the closed group."""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple, Optional, Sequence

from su3braid import matgroup as mg
from su3braid.matrix import UnitaryMatrix


class OrderExceedsCapError(RuntimeError):
    pass


class NotASubgroupError(ValueError):
    pass


class NotAbelianError(ValueError):
    pass


class DecompositionNotFoundError(RuntimeError):
    """No invariant-factor decomposition found; signals a bug at desk scale."""


class NoFactorizationError(ValueError):
    pass


class NonUniqueFactorizationError(ValueError):
    pass


# each group's table and inverse index, built once and dropped with the group
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_INVERSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cayley_table(group: mg.FiniteMatrixGroup) -> list[list[int]]:
    """Full multiplication table; entry [i][j] is the element index of
    element(i) * element(j), parsed from the lines of the CSV export, which
    `_certify` guards before the first is built.  Built once per group."""
    table = _TABLES.get(group)
    if table is None:
        table = _TABLES[group] = [
            [int(x) for x in line.split(",")] for line in mg.cayley_csv_lines(group)
        ]
    return table


def inverse_index(group: mg.FiniteMatrixGroup) -> list[int]:
    inverse = _INVERSES.get(group)
    if inverse is None:
        inverse = _INVERSES[group] = [row.index(0) for row in cayley_table(group)]
    return inverse


def element_order(m: UnitaryMatrix, cap: int = 1000) -> int:
    """Least n >= 1 with m^n = I."""
    if cap < 1:
        raise ValueError("cap must be positive")
    identity = UnitaryMatrix.identity(m.dim)
    power = m
    n = 1
    while power != identity:
        power = power * m
        n += 1
        if n > cap:
            raise OrderExceedsCapError(f"order exceeds cap={cap}")
    return n


def index_of(group: mg.FiniteMatrixGroup, m: UnitaryMatrix) -> int:
    """Index of the element equal to `m`, held at any working order whose
    field holds its entries; a `ValueError` when `m` is not in the group.
    Keys compare only within one order, so `m` is brought to the group's."""
    return group.keys.index(m.embed(group.working_order).key_bytes())


def _check_indices(group: mg.FiniteMatrixGroup, xs: Sequence[int]) -> None:
    for x in xs:
        if not 0 <= x < group.order:
            raise ValueError(f"element index {x} is outside 0..{group.order - 1}")


class Subgroup:
    """A subgroup of `group`, held as the sorted indices of its members
    there; it belongs to that group alone, so an index in `members` names
    an element of `group`.  Not a tuple: its length would not be its order."""

    __slots__ = ("group", "members")

    def __init__(self, group: mg.FiniteMatrixGroup, members: tuple[int, ...]):
        self.group = group
        self.members = members

    @property
    def order(self) -> int:
        return len(self.members)


def subgroup(group: mg.FiniteMatrixGroup, xs: Sequence[int]) -> Subgroup:
    """The subgroup generated by the elements `xs` (indices) of `group`:
    {0} closed under right multiplication by `xs` on the Cayley table
    (built on first use), which reaches every member because in a finite
    group an inverse is a power."""
    if not xs:
        raise ValueError("need at least one generator")
    _check_indices(group, xs)
    table = cayley_table(group)
    members, frontier = {0}, {0}
    while frontier:
        frontier = {table[x][g] for x in frontier for g in xs} - members
        members |= frontier
    return Subgroup(group, tuple(sorted(members)))


def _members(group: mg.FiniteMatrixGroup, sub: Subgroup) -> tuple[int, ...]:
    """The members of `sub`, which must have been taken in `group`: an
    index means an element only of the group it indexes."""
    if not isinstance(sub, Subgroup) or sub.group is not group:
        raise NotASubgroupError("claimed subgroup was not taken in this group")
    return sub.members


def is_normal(group: mg.FiniteMatrixGroup, sub: Subgroup) -> bool:
    """Whether g n g^-1 stays in `sub` for the generators g of `group`
    (sufficient by generation), read off the Cayley table of `group`."""
    members = set(_members(group, sub))
    table, inverse, gens = cayley_table(group), inverse_index(group), group.generators
    return all(table[table[g][n]][inverse[g]] in members for g in gens for n in members)


def intersect(s1: Subgroup, s2: Subgroup) -> Subgroup:
    """The common members of two subgroups of one group."""
    common = set(s1.members).intersection(_members(s1.group, s2))
    return Subgroup(s1.group, tuple(sorted(common)))


def _powers(table: list[list[int]], x: int) -> list[int]:
    """The cyclic span of element x as e, x, x^2, ... up to its order."""
    powers, p = [0], x
    while p:
        powers.append(p)
        p = table[p][x]
    return powers


def abelian_invariants(sub: Subgroup) -> tuple[int, ...]:
    """Cyclic factor orders, decreasing, by exhaustive search for a pair of
    members with trivially intersecting cyclic spans covering the order,
    on the Cayley table of the group `sub` was taken in.

    Only subgroups of rank at most 2 are supported.  The exponent is taken
    as the largest element order, so a returned result is exact: the
    subgroup is the internal direct product of the two spans.  A subgroup
    of rank 3 or more (for example Z2^3) raises `DecompositionNotFoundError`."""
    table, members, n = cayley_table(sub.group), sub.members, sub.order
    if any(table[a][b] != table[b][a] for a in members for b in members):
        raise NotAbelianError("group is not abelian")
    if n == 1:
        return ()
    orders = {x: len(_powers(table, x)) for x in members}
    max_order = max(orders.values())
    if max_order == n:
        return (n,)
    for x in members:
        if orders[x] != max_order:
            continue
        x_span = set(_powers(table, x))
        for y in members:
            if orders[y] == n // max_order and len(x_span.intersection(_powers(table, y))) == 1:
                return (max_order, n // max_order)
    raise DecompositionNotFoundError(
        "no two-factor decomposition found; unsupported abelian structure"
    )


class SemidirectReport(NamedTuple):
    """The four facts that certify an inner semidirect product."""

    normal: bool
    trivial_intersection: bool
    order_product: bool
    product_bijective: bool

    @property
    def all_ok(self) -> bool:
        return all(self)


def semidirect_verify(
    group: mg.FiniteMatrixGroup, normal_part: Subgroup, complement: Subgroup
) -> SemidirectReport:
    """The four certificates, read off the Cayley table of `group`."""
    ns, hs = _members(group, normal_part), _members(group, complement)
    table = cayley_table(group)
    return SemidirectReport(
        normal=is_normal(group, normal_part),
        trivial_intersection=intersect(normal_part, complement).order == 1,
        order_product=len(ns) * len(hs) == group.order,
        product_bijective=len({table[n][h] for n in ns for h in hs}) == group.order,
    )


def decompose(
    group: mg.FiniteMatrixGroup, x: int, normal_part: Subgroup, complement: Subgroup,
) -> tuple[int, int]:
    """The unique (n, h), indices of `group` with n in the normal part and
    h in the complement, with element x = n h, found as n = x h^-1 on the
    Cayley table of `group`."""
    _check_indices(group, [x])
    ns = set(_members(group, normal_part))
    table, inverse = cayley_table(group), inverse_index(group)
    row = table[x]
    matches = [(n, h) for h in _members(group, complement) if (n := row[inverse[h]]) in ns]
    if not matches:
        raise NoFactorizationError("element has no n*h factorization")
    if len(matches) > 1:
        raise NonUniqueFactorizationError("factorization is not unique")
    return matches[0]


def conjugacy_classes(table: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The orbits of conjugation on the elements of a Cayley table, as
    sorted index tuples in order of their least member; every element is a
    conjugator, so each orbit is found in one pass."""
    n = len(table)
    inverse = [row.index(0) for row in table]
    classes, seen = [], set()
    for x in range(n):
        if x not in seen:
            orbit = tuple(sorted({table[table[g][x]][inverse[g]] for g in range(n)}))
            seen.update(orbit)
            classes.append(orbit)
    return tuple(classes)


def _orders(table: list[list[int]]) -> list[int]:
    orders = []
    for x in range(len(table)):
        k, p = 1, x
        while p:
            k, p = k + 1, table[p][x]
        orders.append(k)
    return orders


def _class_sizes(table: list[list[int]]) -> list[int]:
    sizes = [0] * len(table)
    for cls in conjugacy_classes(table):
        for x in cls:
            sizes[x] = len(cls)
    return sizes


def extend_to_isomorphism(
    source: mg.FiniteMatrixGroup, target: mg.FiniteMatrixGroup, images: Sequence[int]
) -> Optional[list[int]]:
    """The map on element indices induced by sending source.generators to
    the target elements `images` (indices), extended along the source's BFS
    words; returned only if it is a bijection that respects the full
    multiplication tables, else None."""
    n = source.order
    if target.order != n or len(images) != len(source.generators):
        return None
    t_source, t_target = cayley_table(source), cayley_table(target)
    inv_target = inverse_index(target)
    phi = [0] * n
    for i, word in enumerate(source.words):
        x = 0
        for signed in reversed(word):
            m = images[abs(signed) - 1]
            x = t_target[m if signed > 0 else inv_target[m]][x]
        phi[i] = x
    if len(set(phi)) != n:
        return None
    if any(t_target[phi[i]][phi[j]] != phi[t_source[i][j]] for i in range(n) for j in range(n)):
        return None
    return phi


def find_isomorphism(
    source: mg.FiniteMatrixGroup, target: mg.FiniteMatrixGroup
) -> Optional[list[int]]:
    """Generator images of `source` in `target` inducing an isomorphism,
    aligned with source.generators, or None.  Candidates are pruned by
    element order and conjugacy-class size, tried with an element of the
    generator's own key first, and each full assignment is verified by
    `extend_to_isomorphism`."""
    if source.order != target.order:
        return None
    t_source, t_target = cayley_table(source), cayley_table(target)
    profile_s = list(zip(_orders(t_source), _class_sizes(t_source)))
    profile_t = list(zip(_orders(t_target), _class_sizes(t_target)))
    candidate_sets = []
    for g in source.generators:
        candidates = [j for j in range(target.order) if profile_t[j] == profile_s[g]]
        if not candidates:
            return None
        candidates.sort(key=lambda j: (target.keys[j] != source.keys[g], j))
        candidate_sets.append(candidates)

    def backtrack(images: list[int]) -> Optional[list[int]]:
        if len(images) == len(candidate_sets):
            return extend_to_isomorphism(source, target, images)
        for candidate in candidate_sets[len(images)]:
            phi = backtrack(images + [candidate])
            if phi is not None:
                return phi
        return None

    phi = backtrack([])
    return None if phi is None else [phi[g] for g in source.generators]


def key_set(matrices, order: int) -> set[bytes]:
    """The canonical keys of `matrices`, every entry brought to `order`."""
    return {m.embed(order).key_bytes() for m in matrices}


def same_matrix_set(a: mg.FiniteMatrixGroup, b: mg.FiniteMatrixGroup) -> bool:
    """Whether two groups hold the same matrices, compared by key at a
    common working order."""
    common = math.lcm(a.working_order, b.working_order)
    return a.matrices[0].dim == b.matrices[0].dim and key_set(a.matrices, common) == key_set(b.matrices, common)
