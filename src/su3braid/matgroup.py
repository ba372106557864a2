"""Finite matrix-group engine over exact cyclotomic scalars.

Groups are closed element sets built by breadth-first multiplication from
a generator list.  Equality of elements is byte-exact on canonical scalar
coefficients; no floating point enters any decision.  Inverses are
conjugate transposes, which is exact because every element is unitary.

An element is named by its index in its group (0 is the identity), and
every operation takes and returns indices of the group it is called on;
`index_of` maps a matrix to its index.  Element ordering is deterministic
(BFS layer, then key), so exports and reports reproduce byte-for-byte.
Every element has the shortest generator word found during closure: a
tuple of signed 1-based generator indices, negative meaning inverse.

Only :func:`close` closes a group from matrices, and it multiplies by the
generators alone: in a finite group an inverse is a power, so the forward
closure reaches every element, and each inverse generator's action is the
inverse permutation of its generator's.  The signed closure that fixes
element order and words is then integer work.  A subgroup is a
:class:`Subgroup`: the group it was taken in and the sorted indices of its
members there, closed on that group's Cayley table.  Normality,
intersections, abelian invariants, semidirect certificates and ``n*h``
factorizations read that one guarded table, and every operation given a
group and a subgroup refuses a subgroup taken in another group.  The
exact products go through the interned scalars and their memos keyed by
serial ids (see :mod:`su3braid.cyclo`); threads may share them, a race
there costing at most one discarded scalar object.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .cyclo import NonDivisibleOrderError
from .matrix import UnitaryMatrix


class GroupTooLargeError(RuntimeError):
    """Closure exceeded its cap; the input likely generates an infinite group."""


class OrderExceedsCapError(RuntimeError):
    pass


class GeneratorNotInGroupError(ValueError):
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


class UnboundNameError(KeyError):
    pass


class CayleyTableError(RuntimeError):
    """A derived multiplication table disagrees with a direct matrix product."""


Word = tuple[int, ...]


class FiniteMatrixGroup:
    """A closed set of unitary matrices with a distinguished generator list.

    Element i is stored once, as `matrices[i]`, `keys[i]` and `words[i]`.
    Besides the elements, a group keeps what its closure learned: the BFS
    provenance (element i is generator `_bfs_mult[i]` times element
    `_bfs_parent[i]`) and the left-multiplication action of every signed
    generator as a permutation of element indices.  All index-level
    structure (the Cayley table, inverses, normality, semidirect
    certificates, abelian invariants, conjugacy classes, isomorphism
    search) is composed from these integers.  A subgroup is not a group of
    its own but a `Subgroup`, a set of this group's indices.
    """

    def __init__(
        self,
        working_order: int,
        matrices: tuple[UnitaryMatrix, ...],
        keys: tuple[bytes, ...],
        words: tuple[Word, ...],
        generators: tuple[int, ...],
        bfs_mult: tuple[int, ...],
        bfs_parent: tuple[int, ...],
        actions: Mapping[int, tuple[int, ...]],
    ):
        self.working_order = working_order
        self.matrices = matrices
        self.keys = keys
        self.words = words
        self.generators = generators
        # the one element lookup: canonical key -> element index
        self.elements: dict[bytes, int] = {k: i for i, k in enumerate(keys)}
        self.dim = matrices[0].dim
        self._bfs_mult = bfs_mult
        self._bfs_parent = bfs_parent
        self._actions = dict(actions)
        self._cayley: Optional[list[list[int]]] = None
        self._inverse_index: Optional[list[int]] = None

    # -- basic queries --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def index_of(self, m: UnitaryMatrix) -> int:
        """Index of the element equal to `m`, which may be held at another
        working order: keys compare only within one order, so a miss is
        looked up again with every entry brought to the group's."""
        idx = self.elements.get(m.key_bytes())
        if idx is None:
            try:
                idx = self.elements.get(m.embed(self.working_order).key_bytes())
            except NonDivisibleOrderError:  # an entry outside Q(zeta_W)
                pass
        if idx is None:
            raise GeneratorNotInGroupError("element is not in the group")
        return idx

    def action(self, signed: int) -> tuple[int, ...]:
        """Left multiplication by generator `signed` (1-based, negative for
        the inverse) as a permutation: entry x is the index of g * element(x)."""
        return self._actions[signed]

    # -- structure tables -----------------------------------------------------

    def cayley_table(self) -> list[list[int]]:
        """Full multiplication table; entry [i][j] is the element index of
        element(i) * element(j).

        Row i is the generator action applied to the row of the BFS parent,
        since element(i) = g * element(parent).  The result is checked
        against direct exact products before it is returned."""
        if self._cayley is None:
            actions = self._actions
            mult, parent = self._bfs_mult, self._bfs_parent
            table = [list(range(self.order))]
            # row i gathers the action's entries at row parent[i]'s values in
            # one C-level call; from order 2 on a row holds two or more indices,
            # so itemgetter gives a tuple
            for i in range(1, self.order):
                table.append(list(itemgetter(*table[parent[i]])(actions[mult[i]])))
            _check_table(self, table)
            self._cayley = table
        return self._cayley

    def inverse_index(self) -> list[int]:
        if self._inverse_index is None:
            self._inverse_index = [row.index(0) for row in self.cayley_table()]
        return self._inverse_index


# seeded entries of every derived table compared with direct exact products;
# they tie the recorded actions, which the integer checks take as given, to
# the matrices
_TABLE_SAMPLE = 256

# the least order whose guard runs Light's test in a forked child, while
# this process checks the Latin square, the generator rows and the sampled
# products; below it the fork and the copy-on-write faults that follow it
# cost about what the second core saves.  One guard per cold process on a
# 2-vCPU Xeon VM, Python 3.11.7, median of 6 to 8 processes, forked against
# in process: 12.2 against 11.5 ms at order 162 (the verify tables, which
# stay in process), 11.8 against 13.1 at 192, 13.8 against 14.2 at 225,
# 13.6 against 16.6 at 243, 17.2 against 25.4 at 288 and 70 against 114 ms
# at 648.
_FORK_ORDER = 256


def _check_table(group: FiniteMatrixGroup, table: list[list[int]]) -> None:
    """Soundness guard for a derived table, on integers plus a fixed-seed
    sample of direct exact products.

    The integer checks: row 0 and column 0 are the identity, every row and
    column is a permutation, the row of each signed generator g equals its
    recorded action, and Light's associativity test (x*a)*y == x*(a*y)
    holds for every generator index a.  If the actions are the true left
    multiplications, as `close` records them (a generator's from exact
    products, an inverse generator's inverted from its generator's, and
    the inverse's row is found here by the key of the conjugate
    transpose), these force the whole table: when row x is true, x*a is
    the true product xa, and Light's test makes row(xa) = row(x) composed
    with the true action of a, so right multiplication by the generators
    from row 0 reaches every element with its true row.  The sampled
    products check the actions themselves.

    Every check runs on every table, and the failure raised is the first
    in the order identity, Latin square, generator rows, Light's test,
    samples.  Each pass is already a C-level loop, so at scale the guard is
    shortened by running it on two cores: from order `_FORK_ORDER` on, in a
    process that can fork and runs one thread, Light's test runs in a
    forked child while the other checks run here.  The child is reaped
    before this returns or raises, and a child that ends without its
    verdict fails the table."""
    n = group.order
    if table[0] != list(range(n)) or [row[0] for row in table] != list(range(n)):
        raise CayleyTableError("derived table row 0 or column 0 is not the identity")
    rows: dict[int, int] = {}  # signed generator -> its element index
    for s, g in enumerate(group.generators, 1):
        rows[s] = g
        inverse = group.elements.get(group.matrices[g].conj_transpose().key_bytes())
        if inverse is None:
            raise CayleyTableError("a generator inverse is missing from the group")
        rows[-s] = inverse
    child = _fork(_light_failure, table, rows) if n >= _FORK_ORDER else None
    try:
        _raise_first(_latin_failure(table), _action_failure(group, table, rows))
        sampled = _sample_failure(group, table)
        _raise_first(child.verdict() if child else _light_failure(table, rows), sampled)
    finally:
        if child:
            child.reap()


def _raise_first(*failures: Optional[str]) -> None:
    for failure in failures:
        if failure:
            raise CayleyTableError(failure)


def _latin_failure(table: list[list[int]]) -> Optional[str]:
    # one C-level pass each over the row lengths, the row sets and the
    # column sets; once every row is a permutation of range(n), a column's
    # n entries lie in range(n), and n distinct ones are a permutation
    n = len(table)
    full = set(range(n))
    if (
        any(map(n.__ne__, map(len, table)))
        or any(map(full.__ne__, map(set, table)))
        or any(map(n.__ne__, map(len, map(set, zip(*table)))))
    ):
        return "derived table is not a Latin square"
    return None


def _action_failure(
    group: FiniteMatrixGroup, table: list[list[int]], rows: dict[int, int]
) -> Optional[str]:
    for s, a in rows.items():
        if tuple(table[a]) != group.action(s):
            return f"derived table row {a} differs from the action of generator {s}"
    return None


def _light_failure(table: list[list[int]], rows: dict[int, int]) -> Optional[str]:
    """Light's test, row x*a against row x composed with row a, for each
    distinct signed generator a.  The order-1 table [[0]] passed the
    identity check, and itemgetter needs two indices."""
    for a in dict.fromkeys(rows.values()) if len(table) > 1 else ():
        compose = itemgetter(*table[a])
        for x, row_x in enumerate(table):
            if table[row_x[a]] != list(compose(row_x)):
                return f"derived table fails Light's test at ({x}, {a})"
    return None


def _sample_failure(group: FiniteMatrixGroup, table: list[list[int]]) -> Optional[str]:
    n = len(table)
    rng = random.Random(0)
    matrices = group.matrices
    for _ in range(min(_TABLE_SAMPLE, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        product = matrices[i] * matrices[j]
        if group.elements.get(product.key_bytes()) != table[i][j]:
            return f"derived table entry ({i}, {j}) disagrees with the exact product"
    return None


class _Child:
    """A check's verdict from a forked child process.  The child writes its
    failure text, or nothing, and a newline into a pipe and ends with
    `os._exit`, so it flushes no stdio buffer it inherited and runs no
    `atexit` hook."""

    def __init__(self, pid: int, report: BinaryIO):
        self.pid, self.report = pid, report
        self.status: Optional[int] = None

    def verdict(self) -> Optional[str]:
        """The child's failure text, or None if it found none, once it ends."""
        text = self.report.read()
        self.reap()
        if self.status != 0 or not text.endswith(b"\n"):
            return f"the forked table check ended without a verdict (exit status {self.status})"
        return text[:-1].decode("ascii") or None

    def reap(self) -> None:
        """Close the pipe and wait for the child to end, once."""
        if self.status is None:
            self.report.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _fork(check: Callable[..., Optional[str]], *args) -> Optional[_Child]:
    """`check(*args)` started in a forked child, or None where this process
    cannot fork, or runs a second thread, whose locks the child could
    inherit held; the caller then runs the check itself."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return None
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        # every exception ends here too: the child never returns to the caller
        status = 1
        try:
            os.close(read)
            os.write(write, ((check(*args) or "") + "\n").encode("ascii"))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return _Child(pid, os.fdopen(read, "rb"))


# ---------------------------------------------------------------------------
# closure


def close(
    generators: Sequence[UnitaryMatrix], cap: int = 100_000
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators and their inverses under
    left multiplication, recording each signed generator's action on the
    element indices.  Raises GroupTooLargeError past the cap.

    Only the generators themselves multiply matrices: in a finite group
    an inverse is a power, so closing under the generators alone reaches
    every element, and each inverse generator's action is the inverse
    permutation of its generator's.  The signed closure, with its element
    order and words, is then run again on those integer actions."""
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    dim = generators[0].dim
    order = 1
    for g in generators:
        if g.dim != dim:
            raise ValueError("generators must share a dimension")
        order = math.lcm(order, g.scalar_order())
    embedded = [g.embed(order) for g in generators]
    identity = UnitaryMatrix.identity(dim)
    matrices, keys, _, _, _, _, actions = _bfs(
        (identity.key_bytes(), identity),
        [(i, g.key_bytes(), g) for i, g in enumerate(embedded, 1)], _matrix_times, cap,
    )
    # each signed generator with its action, a permutation of the indices of
    # `keys`; the signed closure multiplies an index by looking it up there
    multipliers = []
    for i in range(1, len(generators) + 1):
        inverse = [0] * len(keys)
        for x, y in enumerate(actions[i]):
            inverse[y] = x
        for signed, row in ((i, actions[i]), (-i, inverse)):
            multipliers.append((signed, keys[row[0]], row))

    def times(row: Sequence[int], x: int) -> tuple[bytes, int]:
        return keys[row[x]], row[x]

    reached, *closure = _bfs((keys[0], 0), multipliers, times, len(keys))
    return FiniteMatrixGroup(order, tuple(map(matrices.__getitem__, reached)), *closure)


def _matrix_times(mat: UnitaryMatrix, element: UnitaryMatrix) -> tuple[bytes, UnitaryMatrix]:
    product = mat * element
    return product.key_bytes(), product


def _bfs(
    identity: tuple[bytes, object], multipliers: Sequence[tuple[int, bytes, object]],
    times: Callable[[object, object], tuple[bytes, object]], cap: int,
) -> tuple:
    """The one closure loop from the identity's (key, value), over (signed
    index, key, operand) multipliers; `times(operand, value)` gives the key
    and value of a product, a value being what `times` needs of an element.
    Each layer keeps the least word per new key and is appended in key
    order.  Returns the values, then the rest of the `FiniteMatrixGroup`
    arguments after its matrices."""
    # distinct multipliers; a signed generator equal to an earlier one
    # (an involution's inverse, a repeated generator) shares its slot
    distinct: list[tuple[int, object]] = []
    slot_of_key: dict[bytes, int] = {}
    slot_of_signed: dict[int, int] = {}
    for signed, key, operand in multipliers:
        if key not in slot_of_key:
            slot_of_key[key] = len(distinct)
            distinct.append((signed, operand))
        slot_of_signed[signed] = slot_of_key[key]

    elements: dict[bytes, int] = {identity[0]: 0}
    keys: list[bytes] = [identity[0]]
    values: list = [identity[1]]
    words: list[Word] = [()]
    bfs_mult: list[int] = [0]
    bfs_parent: list[int] = [-1]
    # action[slot][x] = index of multiplier * element(x); parents are visited
    # in index order, so appending keeps position x aligned with element x
    action: list[list[int]] = [[] for _ in distinct]

    frontier = [0]
    while frontier:
        layer: dict[bytes, tuple[Word, object, int, int]] = {}
        pending: list[tuple[int, int, bytes]] = []  # action entries awaiting an index
        for parent_idx in frontier:
            parent, parent_word = values[parent_idx], words[parent_idx]
            for slot, (signed, operand) in enumerate(distinct):
                key, product = times(operand, parent)
                idx = elements.get(key)
                if idx is not None:
                    action[slot].append(idx)
                    continue
                action[slot].append(-1)
                pending.append((slot, parent_idx, key))
                word = (signed,) + parent_word
                known = layer.get(key)
                if known is None or word < known[0]:
                    layer[key] = (word, product, signed, parent_idx)
        if len(elements) + len(layer) > cap:
            raise GroupTooLargeError(
                f"closure exceeded cap={cap}; generators may not span a finite group"
            )
        frontier = []
        for key in sorted(layer):
            word, product, signed, parent_idx = layer[key]
            idx = len(keys)
            elements[key] = idx
            keys.append(key)
            values.append(product)
            words.append(word)
            bfs_mult.append(signed)
            bfs_parent.append(parent_idx)
            frontier.append(idx)
        for slot, parent_idx, key in pending:
            action[slot][parent_idx] = elements[key]

    return (
        values, tuple(keys), tuple(words),
        tuple(elements[k] for s, k, _ in multipliers if s > 0),
        tuple(bfs_mult), tuple(bfs_parent),
        {signed: tuple(action[slot]) for signed, slot in slot_of_signed.items()},
    )


# ---------------------------------------------------------------------------
# element and subgroup operations


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


def _check_indices(group: FiniteMatrixGroup, xs: Sequence[int]) -> None:
    for x in xs:
        if not 0 <= x < group.order:
            raise GeneratorNotInGroupError(f"element index {x} is outside 0..{group.order - 1}")


class Subgroup:
    """A subgroup of `group`, held as the sorted indices of its members
    there; it belongs to that group alone, so an index in `members` names
    an element of `group`.  Not a tuple: its length would not be its order."""

    __slots__ = ("group", "members")

    def __init__(self, group: FiniteMatrixGroup, members: tuple[int, ...]):
        self.group = group
        self.members = members

    @property
    def order(self) -> int:
        return len(self.members)


def subgroup(group: FiniteMatrixGroup, xs: Sequence[int]) -> Subgroup:
    """The subgroup generated by the elements `xs` (indices) of `group`:
    {0} closed under right multiplication by `xs` on the Cayley table
    (built on first use), which reaches every member because in a finite
    group an inverse is a power."""
    if not xs:
        raise ValueError("need at least one generator")
    _check_indices(group, xs)
    table = group.cayley_table()
    members, frontier = {0}, {0}
    while frontier:
        frontier = {table[x][g] for x in frontier for g in xs} - members
        members |= frontier
    return Subgroup(group, tuple(sorted(members)))


def _members(group: FiniteMatrixGroup, sub: Subgroup) -> tuple[int, ...]:
    """The members of `sub`, which must have been taken in `group`: an
    index means an element only of the group it indexes."""
    if not isinstance(sub, Subgroup) or sub.group is not group:
        raise NotASubgroupError("claimed subgroup was not taken in this group")
    return sub.members


def is_normal(group: FiniteMatrixGroup, sub: Subgroup) -> bool:
    """Whether g n g^-1 stays in `sub` for the generators g of `group`
    (sufficient by generation), read off the Cayley table of `group`."""
    members = set(_members(group, sub))
    table, inverse, gens = group.cayley_table(), group.inverse_index(), group.generators
    return all(table[table[g][n]][inverse[g]] in members for g in gens for n in members)


def intersect(s1: Subgroup, s2: Subgroup) -> Subgroup:
    """The common members of two subgroups of one group."""
    common = set(s1.members).intersection(_members(s1.group, s2))
    return Subgroup(s1.group, tuple(sorted(common)))


def abelian_invariants(sub: Subgroup) -> tuple[int, ...]:
    """Cyclic factor orders, decreasing, by exhaustive search for a pair of
    members with trivially intersecting cyclic spans covering the order,
    on the Cayley table of the group `sub` was taken in.

    Only subgroups of rank at most 2 are supported.  The exponent is taken
    as the largest element order, so a returned result is exact: the
    subgroup is the internal direct product of the two spans.  A subgroup
    of rank 3 or more (for example Z2^3) raises `DecompositionNotFoundError`."""
    table, members, n = sub.group.cayley_table(), sub.members, sub.order
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
    group: FiniteMatrixGroup, normal_part: Subgroup, complement: Subgroup
) -> SemidirectReport:
    """The four certificates, read off the Cayley table of `group`."""
    ns, hs = _members(group, normal_part), _members(group, complement)
    table = group.cayley_table()
    return SemidirectReport(
        normal=is_normal(group, normal_part),
        trivial_intersection=intersect(normal_part, complement).order == 1,
        order_product=len(ns) * len(hs) == group.order,
        product_bijective=len({table[n][h] for n in ns for h in hs}) == group.order,
    )


def decompose(
    group: FiniteMatrixGroup, x: int, normal_part: Subgroup, complement: Subgroup,
) -> tuple[int, int]:
    """The unique (n, h), indices of `group` with n in the normal part and
    h in the complement, with element x = n h, found as n = x h^-1 on the
    Cayley table of `group`."""
    _check_indices(group, [x])
    ns = set(_members(group, normal_part))
    table, inverse = group.cayley_table(), group.inverse_index()
    row = table[x]
    matches = [(n, h) for h in _members(group, complement) if (n := row[inverse[h]]) in ns]
    if not matches:
        raise NoFactorizationError("element has no n*h factorization")
    if len(matches) > 1:
        raise NonUniqueFactorizationError("factorization is not unique")
    return matches[0]


# ---------------------------------------------------------------------------
# words and relations


NamedWord = Sequence[tuple[str, int]]


class WordEvaluator:
    """The one word evaluator: products of named words over `gens`, a name ->
    matrix lookup that needs only `__getitem__` (so it may build its
    matrices on demand).  A word multiplies `gens[name] ** power` left to
    right from its first factor (no product by an identity).  Every prefix
    it multiplies is kept for the life of the evaluator, so words that share
    a prefix, or a factor such as ("A", 3), multiply it once."""

    def __init__(self, gens: Mapping):
        self.gens = gens
        self._prefixes: dict = {}

    def __call__(self, word: NamedWord) -> Optional[UnitaryMatrix]:
        """The product of `word`; None for the empty word, whose dimension
        `gens` does not fix."""
        word = tuple(word)
        known = len(word)
        while known and word[:known] not in self._prefixes:
            known -= 1
        acc = self._prefixes[word[:known]] if known else None
        for k in range(known, len(word)):
            factor = self._prefixes.get(word[k:k + 1])  # a one-factor prefix
            if factor is None:
                name, power = word[k]
                try:
                    m = self.gens[name]
                except KeyError:
                    raise UnboundNameError(name) from None
                factor = self._prefixes[word[k:k + 1]] = m ** power
            acc = factor if acc is None else acc * factor
            self._prefixes[word[:k + 1]] = acc
        return acc

    def equal(self, lhs: NamedWord, rhs: NamedWord) -> bool:
        """Whether both words evaluate equally; the empty word is the identity."""
        a, b = self(lhs), self(rhs)
        if a is None:
            a, b = b, a
        return a is None or a == (UnitaryMatrix.identity(a.dim) if b is None else b)


def word_eval(word: Sequence[int], gens: Sequence[UnitaryMatrix]) -> UnitaryMatrix:
    """Left-to-right product of signed 1-based generator indices."""
    if not gens:
        raise ValueError("need at least one generator")
    for signed in word:
        if signed == 0 or abs(signed) > len(gens):
            raise IndexError(f"generator index {signed} out of range")
    acc = WordEvaluator(dict(enumerate(gens, 1)))([(abs(s), 1 if s > 0 else -1) for s in word])
    return UnitaryMatrix.identity(gens[0].dim) if acc is None else acc


def check_relations(
    gens: Mapping[str, UnitaryMatrix],
    relations: Sequence[tuple[NamedWord, NamedWord]],
) -> list[bool]:
    """For each pair of named words, whether both sides evaluate equally;
    `gens` maps each name to its matrix, and the empty word is the identity."""
    words = WordEvaluator(gens)
    return [words.equal(lhs, rhs) for lhs, rhs in relations]


# ---------------------------------------------------------------------------
# conjugacy and isomorphism


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the conjugation action, as ordered index tuples.
    Conjugating by the generators suffices: in a finite group an inverse is
    a power."""
    table = group.cayley_table()
    inverse = group.inverse_index()
    conjugators = group.generators
    n = group.order
    assigned = [False] * n
    classes: list[tuple[int, ...]] = []
    for start in range(n):
        if assigned[start]:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in conjugators:
                y = table[table[g][x]][inverse[g]]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        for idx in orbit:
            assigned[idx] = True
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def _powers(table: list[list[int]], x: int) -> list[int]:
    """The cyclic span of element x as e, x, x^2, ... up to its order."""
    powers, p = [0], x
    while p:
        powers.append(p)
        p = table[p][x]
    return powers


def _table_orders(table: list[list[int]]) -> list[int]:
    return [len(_powers(table, x)) for x in range(len(table))]


def _class_sizes(group: FiniteMatrixGroup) -> list[int]:
    sizes = [0] * group.order
    for cls in conjugacy_classes(group):
        for x in cls:
            sizes[x] = len(cls)
    return sizes


def extend_to_isomorphism(
    source: FiniteMatrixGroup, target: FiniteMatrixGroup, images: Sequence[int]
) -> Optional[list[int]]:
    """The map on element indices induced by sending source.generators to
    the target elements `images` (indices), extended along the source's BFS
    provenance; returned only if it is a bijection that respects the full
    multiplication tables, else None."""
    n = source.order
    if target.order != n or len(images) != len(source.generators):
        return None
    t_source = source.cayley_table()
    t_target = target.cayley_table()
    inv_target = target.inverse_index()
    phi = [0] * n
    for i in range(1, n):
        signed = source._bfs_mult[i]
        m = images[abs(signed) - 1]
        if signed < 0:
            m = inv_target[m]
        phi[i] = t_target[m][phi[source._bfs_parent[i]]]
    if len(set(phi)) != n:
        return None
    for i in range(n):
        target_row = t_target[phi[i]]
        source_row = t_source[i]
        for j in range(n):
            if target_row[phi[j]] != phi[source_row[j]]:
                return None
    return phi


def find_isomorphism(
    source: FiniteMatrixGroup, target: FiniteMatrixGroup
) -> Optional[list[int]]:
    """Search for generator images of `source` in `target` inducing an
    isomorphism; candidates are pruned by element order and conjugacy-class
    size, and any hit is verified by extend_to_isomorphism.

    Returns the target indices of the images, aligned with
    source.generators, or None.
    """
    if source.order != target.order:
        return None
    orders_s = _table_orders(source.cayley_table())
    orders_t = _table_orders(target.cayley_table())
    sizes_s = _class_sizes(source)
    sizes_t = _class_sizes(target)

    candidate_sets = []
    for gi in source.generators:
        profile = (orders_s[gi], sizes_s[gi])
        candidates = [
            j
            for j in range(target.order)
            if (orders_t[j], sizes_t[j]) == profile
        ]
        # try structurally identical elements first (helps the G == G case)
        gen_key = source.keys[gi]
        candidates.sort(key=lambda j: (target.keys[j] != gen_key, j))
        if not candidates:
            return None
        candidate_sets.append(candidates)

    def backtrack(images: list[int]) -> Optional[list[int]]:
        if len(images) == len(candidate_sets):
            return extend_to_isomorphism(source, target, images)
        for candidate in candidate_sets[len(images)]:
            result = backtrack(images + [candidate])
            if result is not None:
                return result
        return None

    phi = backtrack([])
    if phi is None:
        return None
    return [phi[gi] for gi in source.generators]


def same_matrix_set(a: FiniteMatrixGroup, b: FiniteMatrixGroup) -> bool:
    """Whether the two groups coincide as matrix sets once embedded into a
    common cyclotomic order (an extra report; isomorphism does not need it)."""
    if a.dim != b.dim or a.order != b.order:
        return False
    common = math.lcm(a.working_order, b.working_order)
    # a group's keys hold its entries at its working order, so only a group
    # below the common order is embedded
    if a.working_order == common:
        keys_a = a.elements
    else:
        keys_a = {m.embed(common).key_bytes() for m in a.matrices}
    if b.working_order == common:
        keys_b = b.keys
    else:
        keys_b = (m.embed(common).key_bytes() for m in b.matrices)
    # the orders are equal, so b inside a means equal sets; stop at a miss
    return all(key in keys_a for key in keys_b)


# ---------------------------------------------------------------------------
# exports


def render_word(word: Word, names: Sequence[str]) -> str:
    """Human form of a signed-index word, e.g. (1, 2, 2, -1) -> g1*g2^2*g1^-1."""
    if not word:
        return "e"
    parts: list[tuple[int, int]] = []  # (signed index, run length)
    for signed in word:
        if parts and parts[-1][0] == signed:
            parts[-1] = (signed, parts[-1][1] + 1)
        else:
            parts.append((signed, 1))
    rendered = []
    for signed, run in parts:
        name = names[abs(signed) - 1]
        power = run if signed > 0 else -run
        rendered.append(name if power == 1 else f"{name}^{power}")
    return "*".join(rendered)


def _default_names(group: FiniteMatrixGroup, names: Optional[Sequence[str]]) -> Sequence[str]:
    return names if names is not None else [f"g{i+1}" for i in range(len(group.generators))]


def element_records(
    group: FiniteMatrixGroup, names: Optional[Sequence[str]] = None
) -> list[dict]:
    """Deterministic per-element export records."""
    names = _default_names(group, names)
    return [
        {
            "index": i,
            "key": key.decode("ascii"),
            "word": render_word(word, names),
            "matrix": m.to_dict(),
        }
        for i, (key, word, m) in enumerate(zip(group.keys, group.words, group.matrices))
    ]


def _json_list(items: list[str], depth: int) -> str:
    """Rendered items laid out as ``json.dumps(..., indent=2)`` lays out a
    nonempty list that opens at indent `depth` (an export has no empty list:
    a group holds its identity, a matrix at least one row)."""
    inner = "\n" + " " * (depth + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


def elements_json(
    group: FiniteMatrixGroup, names: Optional[Sequence[str]] = None
) -> Iterator[str]:
    """The text of ``json.dumps(element_records(group, names), indent=2)``
    plus a newline, as pieces: one per record, then the closing bracket.

    Every word is rendered here, before the first piece is produced, so
    too few names fail at the call, before a writer opens its file; the
    records are then rendered one at a time as the pieces are consumed,
    and the whole text is never held.  With `indent` set, CPython's `json`
    encodes in pure Python, node by node.  Here each distinct matrix entry
    is rendered once, its exact form and its `approx` pair for
    ``float_rows``, and the records are assembled around those fragments
    in a fixed indent-2 skeleton."""
    names = _default_names(group, names)
    words = [json.dumps(render_word(word, names)) for word in group.words]
    return _record_texts(group, words)


def _record_texts(group: FiniteMatrixGroup, words: list[str]) -> Iterator[str]:
    """The pieces of `elements_json`, given each element's word already
    rendered and JSON-encoded."""
    # keyed by canonical bytes, not by value: `to_dict` prints the order, so
    # equal values held at different orders render differently
    fragments: dict[bytes, tuple[str, str]] = {}
    # each distinct matrix row rendered once, exact and approx, keyed the
    # same way by its entries' bytes
    row_texts: dict[tuple[bytes, ...], tuple[str, str]] = {}
    # an entry sits at indent 10: inside the list, record, matrix, rows and row
    pad = "\n" + " " * 10
    for i, (key, word, m) in enumerate(zip(group.keys, words, group.matrices)):
        exact_rows, approx_rows = [], []
        for row in m.rows:
            row_key = tuple([v.key_bytes() for v in row])
            text = row_texts.get(row_key)
            if text is None:
                exact, approx = [], []
                for v in row:
                    fragment = fragments.get(v.key_bytes())
                    if fragment is None:
                        d = v.to_dict()
                        fragment = fragments[v.key_bytes()] = (
                            json.dumps(d, indent=2).replace("\n", pad),
                            json.dumps(d["approx"], indent=2).replace("\n", pad),
                        )
                    exact.append(fragment[0])
                    approx.append(fragment[1])
                text = row_texts[row_key] = (_json_list(exact, 8), _json_list(approx, 8))
            exact_rows.append(text[0])
            approx_rows.append(text[1])
        matrix = (
            f'{{\n      "dim": {m.dim},\n      "rows": {_json_list(exact_rows, 6)},'
            f'\n      "float_rows": {_json_list(approx_rows, 6)}\n    }}'
        )
        # the list's opening bracket, or the comma after the previous record
        yield (
            f'{"," if i else "["}\n  {{\n    "index": {i},'
            f'\n    "key": {json.dumps(key.decode("ascii"))},'
            f'\n    "word": {word},\n    "matrix": {matrix}\n  }}'
        )
    yield "\n]\n"


def cayley_csv_lines(group: FiniteMatrixGroup) -> Iterator[str]:
    """The Cayley table as CSV, one newline-terminated line per row.

    The table is built and guarded here, before the lines are returned, so
    a `CayleyTableError` fails the call, before a writer opens its file;
    each line is then rendered as it is consumed, and the text is never
    held whole."""
    table = group.cayley_table()
    if group.order == 1:  # with one index, itemgetter gives a label, not a tuple
        return iter(["0\n"])
    # one label per element, not one str(int) per table entry
    labels = [str(i) for i in range(group.order)]
    return (",".join(itemgetter(*row)(labels)) + "\n" for row in table)
