"""Test-side oracles on closed groups: conjugacy classes read off a Cayley
table, an isomorphism search verified on the full tables, and matrix-set
equality by canonical keys.  `verify` proves the braid image conjugate to
D(9,1,1;2,1,1) by one exact matrix; these are the abstract cross-checks."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from su3braid import matgroup as mg


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
    t_source, t_target = source.cayley_table(), target.cayley_table()
    inv_target = target.inverse_index()
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
    t_source, t_target = source.cayley_table(), target.cayley_table()
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
    return a.dim == b.dim and key_set(a.matrices, common) == key_set(b.matrices, common)
