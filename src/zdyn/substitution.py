"""Substitutions read off coverings, n-symbols, and array windows.

A covering presentation induces a substitution on its level-1 edges: the
image of an edge is its expansion walk.  Iterating the substitution from
a growing letter generates the language of the associated subshift, and
the triangular n-symbols stack the expansions of a single deep edge.
Array windows materialize finite rectangles of the induced array system,
and the recoding check asks whether a bounded row-n window always pins
down the row-(n+1) cell above its center.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import coverings
from .errors import (
    DepthOutOfRange,
    EmptyGrowingSet,
    IllegalSeed,
    UnknownName,
    UnsupportedKind,
)
from .graphs import Cover
from .reports import Report, UNKNOWN
from .stationary import MonoGraph


@dataclass(frozen=True)
class Substitution:
    """A map from letters to non-empty words over the same alphabet."""

    alphabet: tuple[str, ...]
    rules: dict = field(hash=False)


def substitution(rules: dict) -> Substitution:
    """Build a substitution from ``letter -> word`` (words may be strings)."""
    table = {a: tuple(w) for a, w in rules.items()}
    for a, w in table.items():
        if not w:
            raise ValueError(f"empty image for {a}")
        for q in w:
            if q not in table:
                raise ValueError(f"image of {a} uses the unknown letter {q}")
    return Substitution(alphabet=tuple(sorted(table)), rules=table)


def growing_letters(s: Substitution) -> frozenset[str]:
    """Letters whose iterated image length is unbounded."""
    return coverings.growing_symbols(s.rules)


def _spanning_factors(rules, w, max_len: int):
    """Factors of ``s(w)`` of length at most ``max_len`` that span ``w``.

    They start inside ``s(w[0])`` and end inside ``s(w[-1])``; for a
    letter that is every factor of its image.  Every other factor of
    ``s(w)`` is a factor of ``s(w[1:])`` or of ``s(w[:-1])``.
    """
    head, tail = len(rules[w[0]]), sum(len(rules[a]) for a in w[:-1])
    if tail + 1 - max_len >= head:
        return
    image = tuple(itertools.chain.from_iterable(rules[a] for a in w))
    for i in range(max(0, tail + 1 - max_len), head):
        for j in range(max(i, tail) + 1, min(i + max_len, len(image)) + 1):
            yield image[i:j]


def _closure_passes(s: Substitution, max_len: int):
    """The words of length at most ``max_len`` that each pass adds.

    Pass k adds the factors of the images of the words known after pass
    k - 1; the first pass yields the letters too, and the first pass
    that adds nothing yields the empty set and ends the closure.  Only
    the last pass's words are expanded, and only their spanning factors
    are read: the known words stay factor-closed, so a factor of ``s(w)``
    that does not span ``w`` lies in the image of a shorter known word,
    expanded no later than ``w``.  Every pass thus adds what a pass over
    all known words and all factors would (the usual argument for
    primitive substitutions; Queffelec, LNM 1294).
    """
    words = {(a,) for a in s.alphabet}
    frontier, fresh = words.copy(), words.copy()
    while True:
        new = {f for w in frontier for f in _spanning_factors(s.rules, w, max_len)}
        new -= words
        words |= new
        fresh |= new
        yield fresh
        if not fresh:
            return
        frontier, fresh = new, set()


def language(s: Substitution, max_len: int) -> frozenset[tuple[str, ...]]:
    """All factors of iterated images, up to ``max_len``, to a fixed point."""
    if max_len < 1:
        raise DepthOutOfRange(f"language words have length at least 1, got {max_len}")
    if not growing_letters(s):
        raise EmptyGrowingSet("no letter grows under this substitution")
    return frozenset().union(*_closure_passes(s, max_len))


def read_substitution(source) -> Substitution:
    """The substitution read off a mono-graph or a flexible self-cover.

    For a mono-graph the image of a vertex lists the sources of its
    ranked in-edges; for a self-cover the image of an edge is its
    expansion walk.
    """
    if isinstance(source, MonoGraph):
        rules = {
            v: tuple(source.src[e] for e in source.in_edges(v))
            for v in source.vertices
        }
    elif isinstance(source, Cover):
        if source.domain != source.codomain:
            raise UnsupportedKind("reading a cover needs a self-cover")
        rules = {e: tuple(source.emap[e]) for e in source.domain.edges}
    else:
        raise UnsupportedKind(f"cannot read a substitution off {type(source)!r}")
    s = substitution(rules)
    if not growing_letters(s):
        raise EmptyGrowingSet("the read substitution has no growing letter")
    return s


# ---------------------------------------------------------------------------
# n-symbols


@dataclass(frozen=True)
class NSymbol:
    """The triangular expansion stack of one level-n edge.

    ``rows[m]`` is the level-m expansion of the edge, down to the run of
    e0 cells whose length is the level-n length of the edge.
    """

    level: int
    edge: str
    rows: tuple[tuple[str, ...], ...]


def n_symbol(p, e: str, n: int) -> NSymbol:
    """Expand the level-n edge ``e`` of a covering presentation downward."""
    if n < 1:
        raise DepthOutOfRange("n-symbols live at level 1 and above")
    g = coverings.level_graph(p, n)
    if e not in g.edges:
        raise UnknownName(f"no edge {e!r} at level {n}")
    rows = [(e,)]
    for m in range(n, 0, -1):
        cov = coverings.cover_at(p, m)
        rows.append(tuple(q for x in rows[-1] for q in cov.emap[x]))
    rows.reverse()
    return NSymbol(level=n, edge=e, rows=tuple(rows))


# ---------------------------------------------------------------------------
# array windows


@dataclass(frozen=True)
class SeedRow:
    """An eventually periodic bi-infinite level-``level`` row.

    The row reads ``... left left | core right right ...`` with the
    first cell after the join anchored at column 0.
    """

    level: int
    left: tuple[str, ...]
    core: tuple[str, ...] = ()
    right: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArrayWindow:
    """A finite rectangle of an array: rows 0..top over columns [lo, hi].

    ``cells[(k, c)]`` is the level-k edge whose tower block covers
    column ``c`` and ``cuts[k]`` lists the in-window columns where a
    level-k block starts.
    """

    top: int
    lo: int
    hi: int
    cells: dict = field(hash=False)
    cuts: dict = field(hash=False)


def _validate_seed(p, seed: SeedRow) -> None:
    g = coverings.level_graph(p, seed.level)
    if not seed.left or not (seed.core or seed.right) or not seed.right:
        raise IllegalSeed("seed needs non-empty periodic tails")
    for e in seed.left + seed.core + seed.right:
        if e not in g.edges:
            raise IllegalSeed(f"unknown edge {e} at level {seed.level}")
    stream = list(seed.left) * 2 + list(seed.core) + list(seed.right) * 2
    for a, b in zip(stream, stream[1:]):
        if g.src[b] != g.rng[a]:
            raise IllegalSeed(f"cells {a} and {b} do not join into a walk")


def _seed_cells(p, seed: SeedRow, lo: int, hi: int):
    """Level cells of the seed covering the column range [lo, hi]."""
    g = coverings.level_graph(p, seed.level)
    cells = []
    pos = 0
    for e in itertools.chain(seed.core, itertools.cycle(seed.right)):
        if pos > hi:
            break
        cells.append((pos, e))
        pos += g.length[e]
    pos = 0
    for e in itertools.cycle(reversed(seed.left)):
        if pos <= lo:
            break
        pos -= g.length[e]
        cells.append((pos, e))
    return sorted(cells)


def array_window(p, seed: SeedRow, rows: int, cols) -> ArrayWindow:
    """Materialize rows 0..``rows`` of the array over a column range."""
    lo, hi = cols
    if lo > hi:
        raise DepthOutOfRange("empty column range")
    if not 0 <= rows <= seed.level:
        raise DepthOutOfRange("row range must fit under the seed level")
    _validate_seed(p, seed)
    cells: dict = {}
    cuts: dict = {k: set() for k in range(rows + 1)}
    level_lengths = {
        k: coverings.level_graph(p, k).length for k in range(1, seed.level + 1)
    }
    for start, e in _seed_cells(p, seed, lo, hi):
        sym = n_symbol(p, e, seed.level)
        for k in range(rows + 1):
            offset = start
            for q in sym.rows[k]:
                width = 1 if k == 0 else level_lengths[k][q]
                if lo <= offset <= hi:
                    cuts[k].add(offset)
                for c in range(offset, offset + width):
                    if lo <= c <= hi:
                        cells[(k, c)] = q
                offset += width
    return ArrayWindow(
        top=rows,
        lo=lo,
        hi=hi,
        cells=cells,
        cuts={k: frozenset(v) for k, v in cuts.items()},
    )


# ---------------------------------------------------------------------------
# window recognition


def _level_cells(p, n: int) -> dict:
    """The columns under each level-(n+1) edge, read once per check.

    A column is the level-n edge covering it and whether a level-n block
    starts there.
    """
    up_lengths = coverings.level_graph(p, n + 1).length
    low_lengths = coverings.level_graph(p, n).length
    cells = {}
    for e, walk in p.self_cover.emap.items():
        cells[e] = tuple((q, i == 0) for q in walk for i in range(low_lengths[q]))
        if len(cells[e]) != up_lengths[e]:
            raise AssertionError("expanded word does not span its level-(n+1) length")
    return cells


def _word_windows(cells: dict, word, radius: int):
    """(window key, center value) pairs of the windows spanning ``word``.

    The key lists the width-(2 radius + 1) run of columns; the value is
    the level-(n+1) edge over the center column.  Only windows meeting
    the first and the last cell of the word are read; any other window
    lies in ``word[1:]`` or ``word[:-1]``.
    """
    widths = [len(cells[e]) for e in word]
    span = sum(widths)
    lo = max(radius, span - widths[-1] - radius)
    hi = min(span - radius, widths[0] + radius)
    if lo >= hi:
        return []
    columns = [c for e in word for c in cells[e]]
    values = [e for e, width in zip(word, widths) for _ in range(width)]
    return [
        (tuple(columns[c - radius : c + radius + 1]), values[c])
        for c in range(lo, hi)
    ]


def check_recoding(p, n: int, radius: int, max_passes: int = 16) -> Report:
    """Can a radius-``radius`` row-n window always recover the cell above?

    Walks the level-(n+1) substitution language pass by pass, collecting
    the windows of each pass's new words together with the level-(n+1)
    edge over their centers.  Two values behind one window mean
    AMBIGUOUS, with the least such window and its two least values; a
    pass that adds no word means DETERMINED; running out of passes means
    UNKNOWN.
    """
    if not p.stationary:
        raise UnsupportedKind("recoding analysis needs a stationary presentation")
    if n < 1:
        raise DepthOutOfRange(f"recoding reads level 1 and above, got {n}")
    if radius < 0:
        raise DepthOutOfRange("radius must be non-negative")
    s = read_substitution(p.self_cover)
    cells = _level_cells(p, n)
    passes = _closure_passes(s, 2 * radius + 3)  # words in level-(n+1) cells
    table: dict = {}
    at = {"level": n, "radius": radius}
    for _, fresh in zip(range(max_passes), passes):
        ambiguous = []
        for w in fresh:
            for key, value in _word_windows(cells, w, radius):
                seen = table.setdefault(key, set())
                seen.add(value)
                if len(seen) > 1:
                    ambiguous.append(key)
        if ambiguous:
            key = min(ambiguous)
            witness = tuple(sorted(table[key])[:2])
            details = {**at, "window": key}
            return Report("recoding", "AMBIGUOUS", (witness,), details)
        if not fresh:
            details = {**at, "windows": len(table)}
            return Report("recoding", "DETERMINED", details=details)
    details = {**at, "reason": "did not stabilize"}
    return Report("recoding", UNKNOWN, details=details)
