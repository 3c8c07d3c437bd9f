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

    def apply(self, word) -> tuple[str, ...]:
        out: list[str] = []
        for letter in word:
            out.extend(self.rules[letter])
        return tuple(out)

    def iterate(self, word, n: int) -> tuple[str, ...]:
        current = tuple(word)
        for _ in range(n):
            current = self.apply(current)
        return current


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
    """Letters whose iterated image length is unbounded.

    A letter grows exactly when its reachability closure under the
    substitution meets a letter that sits on a reachability cycle and
    has an image of length at least two.
    """
    reach = {a: set(s.rules[a]) for a in s.alphabet}
    changed = True
    while changed:
        changed = False
        for r in reach.values():
            extra = set().union(*(set(s.rules[q]) for q in r)) - r
            if extra:
                r |= extra
                changed = True
    pumping = {a for a in s.alphabet if a in reach[a] and len(s.rules[a]) >= 2}
    return frozenset(
        a for a in s.alphabet if ({a} | reach[a]) & pumping
    )


def language(s: Substitution, max_len: int) -> frozenset[tuple[str, ...]]:
    """All factors of iterated images, up to ``max_len``, to a fixed point."""
    if not growing_letters(s):
        raise EmptyGrowingSet("no letter grows under this substitution")
    words = {(a,) for a in s.alphabet}
    while True:
        grown = set(words)
        for w in words:
            image = s.apply(w)
            for k in range(1, max_len + 1):
                grown.update(
                    image[i : i + k] for i in range(len(image) - k + 1)
                )
        if grown == words:
            return frozenset(words)
        words = grown


def read_substitution(source, iota: dict | None = None) -> Substitution:
    """The substitution read off a mono-graph or a flexible self-cover.

    For a mono-graph the image of a vertex lists the sources of its
    ranked in-edges; for a self-cover the image of an edge is its
    expansion walk.  ``iota`` optionally renames the letters.
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
    if iota:
        names = {x: a for a, x in iota.items()}
        rules = {
            names[x]: tuple(names[q] for q in w) for x, w in rules.items()
        }
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

    def width(self) -> int:
        return len(self.rows[0])


def n_symbol(p, e: str, n: int) -> NSymbol:
    """Expand the level-n edge ``e`` of a covering presentation downward."""
    if n < 1:
        raise DepthOutOfRange("n-symbols live at level 1 and above")
    g = coverings.level_graph(p, n)
    if e not in g.edges:
        raise KeyError(e)
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

    def row(self, k: int) -> tuple[str, ...]:
        return tuple(self.cells[(k, c)] for c in range(self.lo, self.hi + 1))


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


def check_iota_window(p, w, depth_max: int = 6) -> Report:
    """Search for the word ``w`` inside an iterated expansion.

    Scans the images of every letter depth by depth and reports the
    first hit as FOUND with the letter and the depth.
    """
    s = read_substitution(p.self_cover)
    pattern = tuple(w)
    images = {a: (a,) for a in s.alphabet}
    for n in range(depth_max + 1):
        for a in sorted(images):
            word = images[a]
            if any(
                word[i : i + len(pattern)] == pattern
                for i in range(len(word) - len(pattern) + 1)
            ):
                return Report(
                    tag="iota-window",
                    verdict="FOUND",
                    witnesses=((a, n),),
                    details={"letter": a, "depth": n},
                )
        images = {a: s.apply(word) for a, word in images.items()}
    return Report(
        tag="iota-window",
        verdict=UNKNOWN,
        details={"reason": f"not found up to depth {depth_max}"},
    )


def _word_windows(p, n: int, word, radius: int):
    """(window key, center value) pairs read off one level-(n+1) word.

    The key lists, for each column of the width-(2 radius + 1) window,
    the level-n edge covering it and whether a level-n block starts
    there; the value is the level-(n+1) edge over the center column.
    """
    up_lengths = coverings.level_graph(p, n + 1).length
    low_lengths = coverings.level_graph(p, n).length
    emap = p.self_cover.emap
    columns = []
    value_at = []
    for e in word:
        for q in emap[e]:
            for i in range(low_lengths[q]):
                columns.append((q, i == 0))
                value_at.append(e)
    span = len(columns)
    if span != sum(up_lengths[e] for e in word):
        raise AssertionError("expanded word does not span its level-(n+1) length")
    out = []
    for center in range(radius, span - radius):
        key = tuple(columns[center - radius : center + radius + 1])
        out.append((key, value_at[center]))
    return out


def check_recoding(p, n: int, radius: int, max_passes: int = 16) -> Report:
    """Can a radius-``radius`` row-n window always recover the cell above?

    Walks the level-(n+1) substitution language, collecting every legal
    window together with the level-(n+1) edge over its center.  Two
    values behind one window mean AMBIGUOUS; a stabilized single-valued
    table means DETERMINED; running out of passes means UNKNOWN.
    """
    if p.kind != "stationary":
        raise UnsupportedKind("recoding analysis needs a stationary presentation")
    if radius < 0:
        raise DepthOutOfRange("radius must be non-negative")
    s = read_substitution(p.self_cover)
    cap = 2 * radius + 3  # word length in level-(n+1) cells
    words = {(a,) for a in s.alphabet}
    table: dict = {}
    for _ in range(max_passes):
        grown = set(words)
        for w in words:
            image = s.apply(w)
            for k in range(1, cap + 1):
                grown.update(
                    image[i : i + k] for i in range(len(image) - k + 1)
                )
        new_pairs = False
        for w in grown:
            for key, value in _word_windows(p, n, w, radius):
                seen = table.setdefault(key, set())
                if value not in seen:
                    seen.add(value)
                    new_pairs = True
        for key, values in table.items():
            if len(values) > 1:
                a, b = sorted(values)[:2]
                return Report(
                    tag="recoding",
                    verdict="AMBIGUOUS",
                    witnesses=((a, b),),
                    details={"level": n, "radius": radius, "window": key},
                )
        stable = grown == words and not new_pairs
        words = grown
        if stable:
            return Report(
                tag="recoding",
                verdict="DETERMINED",
                details={
                    "level": n,
                    "radius": radius,
                    "windows": len(table),
                },
            )
    return Report(
        tag="recoding",
        verdict=UNKNOWN,
        details={"level": n, "radius": radius, "reason": "did not stabilize"},
    )
