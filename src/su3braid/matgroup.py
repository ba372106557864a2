"""Finite matrix-group engine over exact cyclotomic scalars.

Groups are closed element sets built by breadth-first multiplication from
a generator list.  Every entry is held at one working order, where each
value is one interned scalar object, so the closure tells elements apart
by the serial ids of their entries and that is exact equality; no
floating point enters any decision.  Inverses are conjugate transposes,
which is exact because every element is unitary.

An element is named by its index in its group (0 is the identity), and
every operation takes and returns indices of the group it is called on;
the engine has no lookup by matrix.  Element ordering is deterministic
(BFS layer, then key), so exports and reports reproduce byte-for-byte.
Every element has the shortest generator word found during closure: a
tuple of signed 1-based generator indices, negative meaning inverse.

Only :func:`close` closes a group from matrices, and it multiplies by the
generators alone: in a finite group an inverse is a power, so the forward
closure reaches every element, and each inverse generator's action is the
inverse permutation of its generator's.  The signed closure that fixes
element order and words is then integer work.  The Cayley table is
derived from the recorded actions down the closure's tree, certified
before its first row is built (`_certify`), and only streamed, by the CSV
export; the engine never holds it whole.  Structural queries on a closed group
(subgroups, normality, factorizations) are not part of the engine: the
verifier proves the paper's group structure from word identities.  The
exact products go through the interned scalars and their memos keyed by
serial ids (see :mod:`su3braid.cyclo`); threads may share them, a race
there costing at most one discarded scalar object.
"""

from __future__ import annotations

import json
import math
import random
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence

from .matrix import UnitaryMatrix


class GroupTooLargeError(RuntimeError):
    """Closure exceeded its cap; the input likely generates an infinite group."""


class CayleyTableError(RuntimeError):
    """A derived multiplication table disagrees with a direct matrix product."""


Word = tuple[int, ...]


class FiniteMatrixGroup:
    """A closed set of unitary matrices with a distinguished generator list.

    Element i is stored once, as `matrices[i]`, `keys[i]` and `words[i]`,
    and is named by its index alone: the group keeps no lookup by matrix.
    Besides the elements, a group keeps what its closure learned: the BFS
    provenance (element i is generator `_bfs_mult[i]` times element
    `_bfs_parent[i]`) and the left-multiplication action of every signed
    generator as a permutation of element indices.  The Cayley table is
    composed from these integers (`cayley_csv_lines`).
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
        self._bfs_mult = bfs_mult
        self._bfs_parent = bfs_parent
        self._actions = dict(actions)

    # -- basic queries --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.keys)

    def __len__(self) -> int:
        return len(self.keys)


# seeded entries of every derived table compared with direct exact products;
# they tie the recorded actions, which the integer checks take as given, to
# the matrices
_TABLE_SAMPLE = 256


def _certify(group: FiniteMatrixGroup) -> None:
    """Soundness guard for the table T that `cayley_csv_lines` derives from
    the closure's record, run on that record before any row is built:
    integer passes, then a fixed-seed sample of direct exact products.
    Its passes run in order, and the first that fails raises a
    `CayleyTableError` naming the element, generator or entry involved.

    Row 0 of T is the identity and row i is s_i = l_m o s_p, where element
    i was first reached as generator m times element p (m = `_bfs_mult[i]`,
    p = `_bfs_parent[i]`) and l_m is m's recorded action.  Write c_b for
    column b, x -> T[x][b], built down the same tree as c_b(0) = b,
    c_b(i) = l_m(c_b(p)), and S for the distinct positive generators.
    The passes are: the provenance is a tree (each p < i, each m a signed
    generator); (P) every positive generator's action is a permutation of
    range(n); each inverse generator's action is its generator's inverted;
    (I) column 0 is the identity; each generator's row equals its action;
    and (C) l_a o c_b = c_b o l_a for all a, b in S.  Let H be the group
    the l_a generate; it holds the inverses' actions, so every row built
    down the tree is in H.  By (C) every element of H commutes with every
    c_b, so one that fixes 0 fixes every index that steps x -> c_b(x),
    b in S, reach from 0.  (R) These steps reach every index, so they need
    no pass of their own: c_b(w(0)) = w(c_b(0)) = (w o l_b)(0) for w in H,
    the row of b being l_b, so they reach H's orbit of 0, which holds
    s_x(0) = x for every index x by (I).  So an element of H is fixed by
    its value at 0, and |H| <= n.  The n rows are distinct since s_x(0) = x, so the
    rows are H, which acts regularly on the indices.  Then each column
    x -> s_x(y) is injective, T is a Latin square, and s_{s_x(b)} =
    s_x o s_b for every index b, both sides being elements of H that agree
    at 0.  This is the standard fact that a permutation group centralizing
    a transitive action is semiregular (Dixon and Mortimer, *Permutation
    Groups*, Thm 4.2A).

    With true actions, as `close` records them from exact products, H is
    the left regular action of the group S generates, so s_x, the element
    of H taking 0 to x, is left multiplication by element x: these passes
    force the table.  The samples check the actions themselves, each
    sampled entry found by walking its row's tree path and its key compared
    with the exact product's (a closure's keys are distinct).  So the guard
    reads about |S|^2 n integers and builds no row, and it reads no
    action entry or provenance step it has not bounded."""
    n, gens, actions = group.order, group.generators, group._actions
    mult, parent = group._bfs_mult, group._bfs_parent
    for i in range(1, n):
        if not (0 <= parent[i] < i and 0 < abs(mult[i]) <= len(gens)):
            raise CayleyTableError(
                f"element {i} is not recorded as a generator times an earlier one"
            )
    full, identity = set(range(n)), list(range(n))
    for s in range(1, len(gens) + 1):
        action, inverse = actions.get(s, ()), actions.get(-s, ())
        if len(action) != n or full != set(action):  # (P)
            raise CayleyTableError(f"recorded action of generator {s} is not a permutation")
        if len(inverse) != n or list(map(inverse.__getitem__, action)) != identity:
            raise CayleyTableError(f"recorded action of generator {-s} is not its inverse's")

    def column(b: int) -> list[int]:
        c = [b]
        for m, p in zip(mult[1:], parent[1:]):
            c.append(actions[m][c[p]])
        return c

    if column(0) != identity:  # (I)
        raise CayleyTableError("derived table column 0 is not the identity")
    for s, a in enumerate(gens, 1):
        if _entries(group, a, identity) != list(actions[s]):
            raise CayleyTableError(
                f"derived table row {a} differs from the action of generator {s}"
            )
    # each distinct positive generator's element, with its action and column
    columns = {a: (actions[s], column(a)) for s, a in enumerate(gens, 1)}
    for a, (action, _) in columns.items():
        for b, (_, c) in columns.items():
            if list(map(action.__getitem__, c)) != list(map(c.__getitem__, action)):  # (C)
                x = next(x for x in range(n) if action[c[x]] != c[action[x]])
                raise CayleyTableError(
                    f"derived table products {a} * ({x} * {b}) and ({a} * {x}) * {b} differ"
                )
    rng = random.Random(0)
    for _ in range(min(_TABLE_SAMPLE, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        product = group.matrices[i] * group.matrices[j]
        if group.keys[_entries(group, i, [j])[0]] != product.key_bytes():
            raise CayleyTableError(
                f"derived table entry ({i}, {j}) disagrees with the exact product"
            )


def _entries(group: FiniteMatrixGroup, i: int, xs: Sequence[int]) -> list[int]:
    """Entries T[i][x], x in xs, of the derived table, found by applying the
    actions along element i's tree path from the root."""
    path = []
    while i:
        path.append(group._actions[group._bfs_mult[i]])
        i = group._bfs_parent[i]
    for action in reversed(path):
        xs = list(map(action.__getitem__, xs))
    return list(xs)


# ---------------------------------------------------------------------------
# closure


def _entry_ids(m: UnitaryMatrix) -> tuple[int, ...]:
    """The serial ids of m's entries, row by row."""
    return tuple([v._id for row in m.rows for v in row])


def close(
    generators: Sequence[UnitaryMatrix], cap: int = 100_000
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators and their inverses under
    left multiplication, recording each signed generator's action on the
    element indices.  Raises GroupTooLargeError past the cap.

    Only the generators themselves multiply matrices, in one forward pass
    over the elements in the order it finds them: in a finite group an
    inverse is a power, so closing under the generators alone reaches
    every element, and each inverse generator's action is the inverse
    permutation of its generator's.  The signed closure, which fixes the
    element order and the words, then runs once, on those integer
    actions."""
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
    # at one working order every entry is the one interned object of its
    # value (see su3braid.cyclo), so its entries' serial ids name a matrix
    gen_ids = [_entry_ids(g) for g in embedded]
    matrices = [UnitaryMatrix.identity(dim)]
    index = {_entry_ids(matrices[0]): 0}
    # row[x] is the index of g * matrices[x]; a repeated generator shares
    # its row
    rows: dict[tuple[int, ...], list[int]] = {k: [] for k in gen_ids}
    steps = [(g, rows[k]) for k, g in dict(zip(gen_ids, embedded)).items()]
    for m in matrices:  # the list grows as the loop walks it
        for g, row in steps:
            product = g * m
            key = _entry_ids(product)
            x = index.get(key)
            if x is None:
                if len(matrices) == cap:
                    raise GroupTooLargeError(
                        f"closure exceeded cap={cap}; generators may not span a finite group"
                    )
                x = index[key] = len(matrices)
                matrices.append(product)
            row.append(x)
    # the key text, built for the elements only: it orders each BFS layer
    keys = [m.key_bytes() for m in matrices]

    # each signed generator's row, an inverse's being its generator's row
    # inverted; a signed generator multiplying by the same element as an
    # earlier one (an involution's inverse, a repeated generator) takes no
    # part in the words
    signed_rows: dict[int, list[int]] = {}
    for i, k in enumerate(gen_ids, 1):
        inverse = [0] * len(keys)
        for x, y in enumerate(rows[k]):
            inverse[y] = x
        signed_rows[i], signed_rows[-i] = rows[k], inverse
    multipliers: dict[int, tuple[int, list[int]]] = {}
    for signed, row in signed_rows.items():
        multipliers.setdefault(row[0], (signed, row))
    # layered BFS over forward indices; each layer keeps the least word per
    # element and is appended in key order
    at = [-1] * len(keys)  # forward index -> element index
    at[0] = 0
    reached, words, bfs_mult, bfs_parent = [0], [()], [0], [-1]
    start = 0
    while start < len(reached):
        layer: dict[int, tuple[Word, int]] = {}
        for p in range(start, len(reached)):
            x, word = reached[p], words[p]
            for signed, row in multipliers.values():
                y = row[x]
                if at[y] < 0:
                    candidate = (signed,) + word
                    if y not in layer or candidate < layer[y][0]:
                        layer[y] = candidate, p
        start = len(reached)
        for y in sorted(layer, key=keys.__getitem__):
            word, p = layer[y]
            at[y] = len(reached)
            reached.append(y)
            words.append(word)
            bfs_mult.append(word[0])
            bfs_parent.append(p)
    return FiniteMatrixGroup(
        order, tuple(matrices[x] for x in reached), tuple(keys[x] for x in reached),
        tuple(words), tuple(at[rows[k][0]] for k in gen_ids),
        tuple(bfs_mult), tuple(bfs_parent),
        {signed: tuple(at[row[x]] for x in reached) for signed, row in signed_rows.items()},
    )


# ---------------------------------------------------------------------------
# words and relations


NamedWord = Sequence[tuple[str, int]]


class WordEvaluator:
    """The one word evaluator: products of named words over `gens`, a name ->
    matrix lookup that needs only `__getitem__` (so it may build its
    matrices on demand; a name it lacks raises its `KeyError`).  A word multiplies `gens[name] ** power` left to
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
                factor = self._prefixes[word[k:k + 1]] = self.gens[name] ** power
            acc = factor if acc is None else acc * factor
            self._prefixes[word[:k + 1]] = acc
        return acc

    def equal(self, lhs: NamedWord, rhs: NamedWord) -> bool:
        """Whether both words evaluate equally; the empty word is the identity."""
        a, b = self(lhs), self(rhs)
        if a is None:
            a, b = b, a
        return a is None or a == (UnitaryMatrix.identity(a.dim) if b is None else b)


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
    # keyed by serial id, one per canonical (order, nums, den), not by
    # value: `to_dict` prints the order, so equal values held at different
    # orders render differently
    fragments: dict[int, tuple[str, str]] = {}
    # each distinct matrix row rendered once, exact and approx, keyed the
    # same way by its entries' ids
    row_texts: dict[tuple[int, ...], tuple[str, str]] = {}
    # an entry sits at indent 10: inside the list, record, matrix, rows and row
    pad = "\n" + " " * 10
    for i, (key, word, m) in enumerate(zip(group.keys, words, group.matrices)):
        exact_rows, approx_rows = [], []
        for row in m.rows:
            row_key = tuple([v._id for v in row])
            text = row_texts.get(row_key)
            if text is None:
                exact, approx = [], []
                for v in row:
                    fragment = fragments.get(v._id)
                    if fragment is None:
                        d = v.to_dict()
                        fragment = fragments[v._id] = (
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

    The table is certified here (`_certify`), before the lines are
    returned, so a `CayleyTableError` fails the call, before a writer opens
    its file; each line is then built as it is consumed, and neither the
    table nor the text is ever held whole.

    Row i of the table is the action of `_bfs_mult[i]` applied to the row
    of `_bfs_parent[i]`, so line i gathers, through its parent's row, from
    that action with its targets already mapped to labels.  The gather is
    one itemgetter per parent, shared by its children, and is dropped once
    its last child is built: only the rows of the tree's frontier are held,
    and an integer row is built only for an element with children."""
    _certify(group)
    n = group.order
    parent, mult, actions = group._bfs_parent, group._bfs_mult, group._actions
    labels = [str(i) for i in range(n)]
    labelled = {s: list(map(labels.__getitem__, action)) for s, action in actions.items()}
    last = {p: i for i, p in enumerate(parent)}  # each parent's last child
    # from order 2 on a row holds two or more indices, so a gather gives a
    # tuple; the one row of order 1 has no children
    gathers = {0: itemgetter(*range(n))} if n > 1 else {}

    def line(i: int) -> str:
        if not i:
            return ",".join(labels) + "\n"
        p, m = parent[i], mult[i]
        gather = gathers.pop(p) if last[p] == i else gathers[p]
        if i in last:
            gathers[i] = itemgetter(*gather(actions[m]))
        return ",".join(gather(labelled[m])) + "\n"

    return map(line, range(n))
