"""End-to-end acceptance checks, one test per headline behavior.

Each test states one externally checkable promise of the toolkit and
verifies it against brute-force enumeration, so a verbose run reads as a
pass/fail scorecard.
"""

import random

from zdyn import bratteli, coverings, graphs, stationary, substitution as subs
from zdyn.bratteli import MAXIMAL
from zdyn.graphs import Cover, flexible
from zdyn.reports import FAILS, HOLDS

from helpers import (
    example2_cover,
    example2_unit,
    example2_weighted,
    fib_base_cover,
    fib_presentation,
    maximal_path,
    non_nesting_diagram,
    skew_presentation,
    unit_presentation,
)
import path_sets


def test_criterion_01_fibonacci_straightening():
    a = stationary.analyze_self_cover(fib_base_cover())
    assert a.exponent == 2
    assert a.cover.emap == {
        "e_a": ("e_a", "e_b", "e_a"),
        "e_b": ("e_a", "e_b"),
    }
    recomposed = graphs.compose_covers(a.cover, a.cover)
    assert recomposed.emap["e_a"] == (
        "e_a", "e_b", "e_a", "e_a", "e_b", "e_a", "e_b", "e_a",
    )


def test_criterion_02_example2_limit_data():
    a = stationary.analyze_self_cover(example2_cover())
    assert a.lim_vertices == frozenset({"v_l", "v_m", "v_r"})
    assert a.lim_last == frozenset({"e_a", "e_e", "e_f"})
    assert a.lim_first == frozenset({"e_a", "e_d", "e_f"})


def test_criterion_03_overlap_witnesses():
    fib = stationary.check_overlap(
        stationary.analyze_self_cover(fib_base_cover())
    )
    assert fib.verdict == "BIJECTIVE"
    fib_hits = {
        (r["e0"], r["ek"]): r["witness"] for r in fib.details["sequences"]
    }
    assert fib_hits[("e_b", "e_a")] == {"edge": "e_a", "depth": 1}
    assert fib_hits[("e_a", "e_a")] == {"edge": "e_a", "depth": 2}

    ex2 = stationary.check_overlap(
        stationary.analyze_self_cover(example2_cover())
    )
    assert ex2.verdict == "BIJECTIVE"
    ex2_hits = {
        (r["e0"], r["ek"], r["sequence"]): r["witness"]
        for r in ex2.details["sequences"]
    }
    assert ex2_hits[("e_e", "e_d", ("v_m",))] == {"edge": "e_d", "depth": 1}
    families = {r["cycle"]: r for r in ex2.details["families"]}
    assert families[("e_f",)]["verdict"] == "CERTIFIED"
    assert families[("e_f",)]["witness"]["depth"] <= 4
    assert families[("e_a",)]["verdict"] == "CERTIFIED"


def test_criterion_04_continuity_implies_successor():
    ex2_mono = bratteli.weighted_to_bv(example2_unit()).mono
    assert stationary.check_continuity(ex2_mono).verdict == HOLDS
    fib_mono = bratteli.weighted_to_bv(fib_presentation()).mono
    assert stationary.check_continuity(fib_mono).verdict == HOLDS
    conflict = stationary.mono_graph(
        {"u", "w"},
        {
            "lu_min": ("u", "u", 1),
            "p": ("u", "u", 2),
            "lu_max": ("u", "u", 3),
            "lw_min": ("w", "w", 1),
            "q": ("u", "w", 2),
            "lw_max": ("w", "w", 3),
        },
    )
    assert stationary.check_continuity(conflict).verdict == FAILS


def test_criterion_05_conversion_round_trip():
    for p in (example2_unit(), fib_presentation()):
        q = bratteli.bv_to_weighted(bratteli.weighted_to_bv(p))
        iso = coverings.find_cover_isomorphism(p, q)
        assert iso is not None
        vmap, emap = iso
        g1, g2 = p.self_cover.domain, q.self_cover.domain
        for e in g1.edges:
            assert vmap[g1.src[e]] == g2.src[emap[e]]
            assert vmap[g1.rng[e]] == g2.rng[emap[e]]
            assert p.graphs[0].length[e] == q.graphs[0].length[emap[e]]
            assert (
                tuple(emap[x] for x in p.self_cover.emap[e])
                == q.self_cover.emap[emap[e]]
            )


def test_criterion_06_successor_oracle_on_random_diagrams():
    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        letters = [f"v{i}" for i in range(k)]
        table = {}
        for v in letters:
            for i in range(1, rng.randint(1, 4) + 1):
                table[f"{v}~{i}"] = (rng.choice(letters), v, i)
        mono = stationary.mono_graph(letters, table)
        d = bratteli.stationary_diagram(
            mono, {v: rng.randint(1, 2) for v in letters}
        )
        depth = rng.randint(1, 4)
        for v in letters:
            expected = bratteli.enumerate_paths(d, v, depth)
            path = bratteli.minimal_path(d, v, depth)
            seen = []
            for _ in range(len(expected)):
                seen.append(path)
                path = bratteli.vershik_successor(d, path)
            if seen != expected or path != MAXIMAL:
                mismatches += 1
    assert mismatches == 0


def test_criterion_07_closing_and_regulation():
    ex2 = example2_weighted()
    assert coverings.check_closing(ex2).verdict == HOLDS
    regulated = coverings.check_regulated(ex2, [1, 2, 3, 4], 4)
    assert regulated.verdict == HOLDS
    assert all(
        entry["verdict"] == HOLDS for entry in regulated.details["levels"]
    )

    fib = fib_presentation()
    fib_reg = coverings.check_regulated(fib, [1, 2, 3, 4], 4)
    assert fib_reg.verdict == FAILS
    level1 = fib_reg.details["levels"][0]
    assert level1["verdict"] == FAILS
    assert set(level1["witnesses"]) == {"e_a", "e_b"}
    fib_closing = coverings.check_closing(fib)
    assert fib_closing.verdict == HOLDS
    assert fib_closing.details["reason"] == "no constant chains"

    assert coverings.check_closing(skew_presentation()).verdict == FAILS


def test_criterion_08_nesting():
    for p in (example2_unit(), fib_presentation()):
        d = bratteli.weighted_to_bv(p)
        for n in (1, 2, 3, 4):
            report = bratteli.check_nesting(d, n)
            assert report.verdict == HOLDS
            assert report.details["certainty"] == "EXACT"
    d = non_nesting_diagram()
    report = bratteli.check_nesting(d, 1)
    assert report.verdict == FAILS
    assert report.witnesses == ("p", "q")
    # the witness is real: a successor out of p's tower top lands in q's
    # base although the bases already differ at level 1
    top_p = maximal_path(d, "p", 2)
    succ = bratteli.vershik_successor(d, top_p + ("p>z1:1",))
    assert succ[:2] == bratteli.minimal_path(d, "q", 2)
    assert (
        bratteli.minimal_path(d, "p", 2)[:1]
        != bratteli.minimal_path(d, "q", 2)[:1]
    )


def test_criterion_09_krieger_disjointness_and_coverage():
    p = example2_unit()
    for L in (1, 2, 3):
        markers = coverings.krieger_markers(p, 3, L, horizon=5)
        iterates = [markers.F]
        for _ in range(L):
            nxt, _ = path_sets.step_set(p, iterates[-1], forward=True)
            iterates.append(nxt)
        for i in range(len(iterates)):
            for j in range(i + 1, len(iterates)):
                assert not iterates[i] & iterates[j]
        report = coverings.krieger_coverage(p, 3, L, horizon=5)
        assert report.verdict == HOLDS, report.details
        assert report.details["violations"] == []
        assert report.details["outside_towers"] == ["e_a", "e_f"]


def test_criterion_10_recoding():
    p = example2_unit()
    found = None
    for radius in range(1, 9):
        if subs.check_recoding(p, 1, radius).verdict == "DETERMINED":
            found = radius
            break
    assert found is not None
    assert subs.check_recoding(p, 1, found).verdict == "DETERMINED"

    g = flexible({"v"}, {"a": ("v", "v"), "b": ("v", "v")})
    collision = unit_presentation(
        Cover(
            domain=g,
            codomain=g,
            vmap={"v": "v"},
            emap={"a": ("a", "b"), "b": ("a", "b")},
        )
    )
    assert subs.check_recoding(collision, 1, 3).verdict == "AMBIGUOUS"


EX2_CYCLES = {
    "v_l": (("e_a",), ("e_b", "e_c")),
    "v_m": (("e_c", "e_b"), ("e_d", "e_e")),
    "v_r": (("e_f",), ("e_e", "e_d")),
}


def random_seed_row(p, rng):
    g3 = coverings.level_graph(p, 3)
    vertices = sorted(g3.vertices)
    u = rng.choice(vertices)
    if len(vertices) == 1:
        edges = sorted(g3.edges)
        left = tuple(rng.choice(edges) for _ in range(rng.randint(1, 2)))
        core = tuple(rng.choice(edges) for _ in range(rng.randint(0, 3)))
        right = tuple(rng.choice(edges) for _ in range(rng.randint(1, 2)))
        return subs.SeedRow(level=3, left=left, core=core, right=right)
    left = rng.choice(EX2_CYCLES[u])
    core = []
    here = u
    for _ in range(rng.randint(0, 3)):
        e = rng.choice(sorted(g3._index.out.get(here, ())))
        core.append(e)
        here = g3.rng[e]
    right = rng.choice(EX2_CYCLES[here])
    return subs.SeedRow(level=3, left=left, core=tuple(core), right=right)


def test_criterion_11_array_consistency():
    rng = random.Random(11)
    violations = 0
    for p in (example2_unit(), fib_presentation()):
        for _ in range(50):
            seed = random_seed_row(p, rng)
            lo = rng.randint(-15, 0)
            hi = lo + rng.randint(3, 25)
            rows = rng.randint(1, 3)
            w = subs.array_window(p, seed, rows, (lo, hi))
            for k in range(rows):
                if not w.cuts[k + 1] <= w.cuts[k]:
                    violations += 1
                emap = coverings.cover_at(p, k + 1).emap
                lengths = coverings.level_graph(p, k + 1).length
                for c in sorted(w.cuts[k + 1]):
                    e = w.cells[(k + 1, c)]
                    if c + lengths[e] - 1 > w.hi:
                        continue  # the block leaves the window
                    segment = tuple(
                        w.cells[(k, q)]
                        for q in range(c, c + lengths[e])
                        if q in w.cuts[k]
                    )
                    if segment != emap[e]:
                        violations += 1
    assert violations == 0
