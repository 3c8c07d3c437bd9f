"""Reference answers computed without the program under test.

Every function here works on plain JSON documents (or on edge tables
read off a diagram) with integer arithmetic and brute force, so that the
benchmark can check ``zdyn``'s outputs against something ``zdyn`` did not
compute.  The Vershik map is the adic "+1" of Herman, Putnam and Skau
(1992): on the paths into one vertex it adds one to the mixed-radix
number whose digits are the ranks of the path's edges and whose radices
are the tower heights below them.
"""

from __future__ import annotations

ROOT = "v0"


# ---------------------------------------------------------------------------
# tower heights


def height_table(doc: dict, n: int) -> list[dict]:
    """Edge lengths of a stationary covering document, per level 0..n.

    Level 0 is the root with height 1, level 1 lengths are the
    multiplicities, and a level-k length is the sum of the level-(k-1)
    lengths along the edge's expansion walk.
    """
    emap = doc["cover"]["emap"]
    table = [{ROOT: 1}, dict(doc["multiplicities"])]
    for _ in range(n - 1):
        below = table[-1]
        table.append({e: sum(below[q] for q in walk) for e, walk in emap.items()})
    return table[: n + 1]


def covering_heights(doc: dict, n: int) -> dict:
    """Level-``n`` edge lengths of a stationary covering document."""
    return height_table(doc, n)[n]


# ---------------------------------------------------------------------------
# mixed-radix path coordinates


class Towers:
    """Path coordinates on a stationary diagram, from heights and ranks.

    ``first`` and ``rest`` are edge tables ``id -> (src, rng, rank)`` for
    level 1 and for every deeper level, as the diagram lists them.
    ``heights[k]`` maps each level-k vertex to its tower height.
    """

    def __init__(self, first: dict, rest: dict, heights: list[dict]):
        self.tables = (first, rest)
        self.heights = heights
        self.ranked = tuple(_ranked_in_edges(t) for t in self.tables)

    def _table(self, k: int) -> dict:
        return self.tables[0 if k == 1 else 1]

    def _in_edges(self, k: int, v: str) -> list[str]:
        return self.ranked[0 if k == 1 else 1][v]

    def height(self, v: str, n: int) -> int:
        return self.heights[n][v]

    def index(self, path) -> int:
        """The position of ``path`` among the paths into its end vertex."""
        total = 0
        for k, e in enumerate(path, start=1):
            src, rng, rank = self._table(k)[e]
            if k > 1 and src != self._table(k - 1)[path[k - 2]][1]:
                raise ValueError(f"edges {path[k - 2]} and {e} do not join")
            below = self.heights[k - 1]
            total += sum(
                below[self._table(k)[f][0]]
                for f in self._in_edges(k, rng)
                if self._table(k)[f][2] < rank
            )
        return total

    def end(self, path) -> str:
        return self._table(len(path))[path[-1]][1]

    def shapes(self, n: int) -> dict:
        """An id per level-``n`` vertex; equal ids mean isomorphic towers.

        Two vertices get the same id when their ranked in-edges come from
        vertices with the same ids one level down, so the ordered
        diagrams below them match rank for rank.
        """
        ids = {ROOT: 0}
        for k in range(1, n + 1):
            known: dict = {}
            ids = {
                v: known.setdefault(
                    tuple(ids[self._table(k)[f][0]] for f in ranked), len(known)
                )
                for v, ranked in self.ranked[0 if k == 1 else 1].items()
            }
        return ids

    def path_at(self, v: str, n: int, i: int) -> tuple:
        """The path into ``v`` at level ``n`` whose index is ``i``."""
        if not 0 <= i < self.height(v, n):
            raise ValueError(f"index {i} outside the tower of {v}")
        out = []
        here = v
        for k in range(n, 0, -1):
            below = self.heights[k - 1]
            for f in self._in_edges(k, here):
                size = below[self._table(k)[f][0]]
                if i < size:
                    out.append(f)
                    here = self._table(k)[f][0]
                    break
                i -= size
        return tuple(reversed(out))


def _ranked_in_edges(table: dict) -> dict:
    ranked: dict = {}
    for e, (_, rng, rank) in table.items():
        ranked.setdefault(rng, []).append((rank, e))
    return {v: [e for _, e in sorted(pairs)] for v, pairs in ranked.items()}


# ---------------------------------------------------------------------------
# substitutions


def iterate_rules(rules: dict, word, k: int) -> tuple:
    for _ in range(k):
        word = tuple(q for a in word for q in rules[a])
    return tuple(word)


def language(rules: dict, max_len: int, max_iterations: int = 64) -> set:
    """All factors of length at most ``max_len`` of the words s^k(a).

    A factor of s^(k+1)(a) of length at most ``max_len`` lies inside the
    image of a factor of s^k(a) no longer than itself, so the set of
    factors seen so far is a function of the previous one: the first
    iteration that adds nothing is final.
    """
    words = {a: (a,) for a in rules}
    seen: set = set()
    for _ in range(max_iterations):
        fresh = set()
        for w in words.values():
            for k in range(1, max_len + 1):
                fresh.update(w[i : i + k] for i in range(len(w) - k + 1))
        if fresh <= seen:
            return seen
        seen |= fresh
        words = {a: iterate_rules(rules, w, 1) for a, w in words.items()}
    raise RuntimeError("the language did not close")


# ---------------------------------------------------------------------------
# isomorphisms of stationary covering documents


def is_structure_bijection(p: dict, q: dict, vmap: dict, emap: dict) -> bool:
    """Whether the maps carry one stationary covering document onto another.

    Both maps must be bijections, and they must carry sources, ranges,
    multiplicities and expansion walks.
    """
    gp, gq = p["cover"]["domain"], q["cover"]["domain"]
    if sorted(vmap) != sorted(gp["vertices"]) or sorted(vmap.values()) != sorted(
        gq["vertices"]
    ):
        return False
    if sorted(emap) != sorted(gp["edges"]) or sorted(emap.values()) != sorted(
        gq["edges"]
    ):
        return False
    walks_p, walks_q = p["cover"]["emap"], q["cover"]["emap"]
    for e, (s, r) in gp["edges"].items():
        f = emap[e]
        if [vmap[s], vmap[r]] != list(gq["edges"][f]):
            return False
        if p["multiplicities"][e] != q["multiplicities"][f]:
            return False
        if [emap[x] for x in walks_p[e]] != list(walks_q[f]):
            return False
    return True


def unrank_permutation(n: int, rank: int) -> list[int]:
    """The ``rank``-th permutation of range(n) in lexicographic order."""
    pool = list(range(n))
    out = []
    radix = 1
    for k in range(2, n):
        radix *= k
    for k in range(n - 1, 0, -1):
        digit, rank = divmod(rank, radix)
        out.append(pool.pop(digit))
        radix //= k
    out.append(pool.pop())
    return out
