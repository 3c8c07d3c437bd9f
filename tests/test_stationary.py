"""Mono-graph straightening, continuity, and overlap checks."""

import pytest

from zdyn import bratteli, graphs, stationary
from zdyn.errors import DomainMismatch, InvalidParameter, NotStraight
from zdyn.reports import FAILS, HOLDS

from helpers import (
    example2_cover,
    example2_unit,
    fib_base_cover,
    fib_cover,
    fib_presentation,
    skew_fixed_edge_cover,
)
import catalogue


def fib_base_mono():
    """Mono-graph read off the non-straight Fibonacci base cover."""
    cover = fib_base_cover()
    mults = {e: 1 for e in cover.domain.edges}
    from zdyn.coverings import stationary_presentation

    return bratteli.weighted_to_bv(stationary_presentation(cover, mults)).mono


def example2_mono():
    return bratteli.weighted_to_bv(example2_unit()).mono


def fib_mono():
    return bratteli.weighted_to_bv(fib_presentation()).mono


def conflict_mono():
    """Straight mono-graph whose serial constraints force psi(u) two ways."""
    return stationary.mono_graph(
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


# ---------------------------------------------------------------------------
# straightness and powers


def test_validate_mono_flags_rank_gaps():
    m = stationary.mono_graph(
        {"u"}, {"x": ("u", "u", 1), "y": ("u", "u", 3)}
    )
    assert "rank gap at vertex u" in graphs.validate_graph(m)


def test_fib_base_mono_is_not_straight():
    m = fib_base_mono()
    assert not stationary.is_straight(m)
    assert stationary.straightness_violations(m)


def test_straighten_fib_base_mono_needs_square():
    K, powered = stationary.straighten_mono(fib_base_mono())
    assert K == 2
    assert stationary.is_straight(powered)


def test_example2_mono_is_straight_at_power_one():
    K, powered = stationary.straighten_mono(example2_mono())
    assert K == 1
    assert powered == example2_mono()


def test_mono_power_counts_walks():
    m = example2_mono()
    squared = stationary.mono_power(m, 2)
    for v in m.vertices:
        two_walks = [
            (e1, e2)
            for e2 in m.in_edges(v)
            for e1 in m.in_edges(m.src[e2])
        ]
        assert len(squared.in_edges(v)) == len(two_walks)
    assert graphs.validate_graph(squared) == []


def test_mono_power_rank_order_is_deep_lexicographic():
    m = fib_base_mono()
    squared = stationary.mono_power(m, 2)
    for v in squared.vertices:
        ranked = squared.in_edges(v)
        keys = [
            tuple(m.rank[e] for e in reversed(w.split(" "))) for w in ranked
        ]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# continuity


def test_continuity_holds_on_example2_mono():
    report = stationary.check_continuity(example2_mono())
    assert report.verdict == HOLDS
    assert report.details["psi"] == {"e_a": "e_a", "e_e": "e_d", "e_f": "e_f"}


def test_continuity_holds_on_straightened_fib_mono():
    m = fib_mono()
    assert stationary.is_straight(m)
    report = stationary.check_continuity(m)
    assert report.verdict == HOLDS
    assert report.details["psi"] == {"e_a": "e_a", "e_b": "e_a"}


def test_continuity_fails_on_conflicting_fixture():
    m = conflict_mono()
    assert stationary.is_straight(m)
    report = stationary.check_continuity(m)
    assert report.verdict == FAILS
    assert report.witnesses == (("u", "u", "w"),)


def test_continuity_rejects_non_straight_input():
    with pytest.raises(NotStraight):
        stationary.check_continuity(fib_base_mono())


# ---------------------------------------------------------------------------
# self-cover analysis


def test_fib_straightening_exponent_and_square():
    a = stationary.analyze_self_cover(fib_base_cover())
    assert a.exponent == 2
    assert a.cover.emap["e_a"] == ("e_a", "e_b", "e_a")
    assert a.cover.emap["e_b"] == ("e_a", "e_b")


def test_fib_square_recomposed_expansion():
    a = stationary.analyze_self_cover(fib_base_cover())
    squared_again = graphs.compose_covers(a.cover, a.cover)
    assert squared_again.emap["e_a"] == (
        "e_a", "e_b", "e_a", "e_a", "e_b", "e_a", "e_b", "e_a",
    )


def test_example2_limit_data():
    a = stationary.analyze_self_cover(example2_cover())
    assert a.exponent == 1
    assert a.lim_vertices == frozenset({"v_l", "v_m", "v_r"})
    assert a.lim_last == frozenset({"e_a", "e_e", "e_f"})
    assert a.lim_first == frozenset({"e_a", "e_d", "e_f"})
    for limit in (a.lim_v, a.lim_f, a.lim_l):
        with pytest.raises(TypeError):
            limit["e_a"] = "e_b"


def test_analysis_of_straight_cover_is_idempotent():
    for cover in (fib_base_cover(), example2_cover()):
        a = stationary.analyze_self_cover(cover)
        assert stationary.analyze_self_cover(a.cover).exponent == 1


def test_analyze_rejects_non_self_cover():
    from helpers import weighted_cover

    with pytest.raises(DomainMismatch):
        stationary.analyze_self_cover(weighted_cover(fib_cover(), 1))


# ---------------------------------------------------------------------------
# constant sequences


def test_example2_constant_sequences():
    a = stationary.analyze_self_cover(example2_cover())
    report = stationary.constant_sequences(a, k_max=3)
    assert report.fixed_edges == frozenset({"e_a", "e_f"})
    itineraries = {s.vertices: s.walk for s in report.sequences}
    assert itineraries == {
        ("v_l",): (),
        ("v_m",): (),
        ("v_r",): (),
        ("v_l", "v_l"): ("e_a",),
        ("v_r", "v_r"): ("e_f",),
        ("v_l", "v_l", "v_l"): ("e_a", "e_a"),
        ("v_r", "v_r", "v_r"): ("e_f", "e_f"),
    }
    assert {f.cycle for f in report.families} == {("e_a",), ("e_f",)}


def test_fib_constant_sequences_are_single_vertices():
    a = stationary.analyze_self_cover(fib_base_cover())
    report = stationary.constant_sequences(a, k_max=4)
    assert report.fixed_edges == frozenset()
    assert [s.vertices for s in report.sequences] == [("v",)]
    assert report.families == ()


# ---------------------------------------------------------------------------
# overlap


def _entry(results, **match):
    hits = [
        r for r in results if all(r[k] == v for k, v in match.items())
    ]
    assert len(hits) == 1, (match, results)
    return hits[0]


def test_overlap_fib_square_witnesses():
    a = stationary.analyze_self_cover(fib_base_cover())
    report = stationary.check_overlap(a)
    assert report.verdict == "BIJECTIVE"
    seqs = report.details["sequences"]
    ba = _entry(seqs, e0="e_b", ek="e_a")
    assert ba["witness"] == {"edge": "e_a", "depth": 1}
    aa = _entry(seqs, e0="e_a", ek="e_a")
    assert aa["witness"] == {"edge": "e_a", "depth": 2}
    assert report.details["families"] == []


def test_overlap_example2_witnesses():
    a = stationary.analyze_self_cover(example2_cover())
    report = stationary.check_overlap(a)
    assert report.verdict == "BIJECTIVE"
    seqs = report.details["sequences"]
    ed = _entry(seqs, sequence=("v_m",), e0="e_e", ek="e_d")
    assert ed["witness"] == {"edge": "e_d", "depth": 1}
    families = report.details["families"]
    f_runs = _entry(families, cycle=("e_f",))
    assert f_runs["verdict"] == "CERTIFIED"
    assert f_runs["witness"]["depth"] <= 4
    a_runs = _entry(families, cycle=("e_a",))
    assert a_runs["verdict"] == "CERTIFIED"


def test_overlap_is_unknown_when_depth_is_too_small():
    a = stationary.analyze_self_cover(example2_cover())
    report = stationary.check_overlap(a, depth_max=2)
    assert report.verdict == "UNKNOWN"
    assert report.witnesses


def first_hit(depths, edges, found):
    """The first (depth, edge) in search order that ``found`` accepts, or None."""
    return next(((n, e) for n in depths for e in edges if found(n, e)), None)


def expected_overlap_entries(a, k_max):
    """The (sequence or cycle, e0, ek) of each entry, sequences first.

    Each constant sequence, then each family, is flanked by every
    limit-last edge into its first vertex, in order, with the least
    limit-first edge out of its last vertex.
    """
    g = a.graph
    constant = stationary.constant_sequences(a, k_max)

    def flanked(unit, v1, vk):
        ek = min((e for e in a.lim_first if g.src[e] == vk), default=None)
        return [(unit, e0, ek) for e0 in sorted(e for e in a.lim_last if g.rng[e] == v1)]

    sequences = [
        t for s in constant.sequences
        for t in flanked(s.vertices, s.vertices[0], s.vertices[-1])
    ]
    families = [
        t for f in constant.families
        for t in flanked(f.cycle, g.src[f.cycle[0]], g.rng[f.cycle[-1]])
    ]
    return sequences, families


def assert_overlap_matches_the_cover_powers(cover, k_max, depth_max):
    """The entries are the expected flankings, in order, and each witness is
    the first in the words of the cover powers, composed eagerly."""
    a = stationary.analyze_self_cover(cover)
    report = stationary.check_overlap(a, k_max=k_max, depth_max=depth_max)
    sequences, families = expected_overlap_entries(a, k_max)
    found = report.details["sequences"]
    assert [(r["sequence"], r["e0"], r["ek"]) for r in found] == sequences
    found = report.details["families"]
    assert [(r["cycle"], r["e0"], r["ek"]) for r in found] == families
    entries = report.details["sequences"] + report.details["families"]
    assert report.witnesses == tuple(
        t for t, r in zip(sequences + families, entries) if r["witness"] is None
    )
    words = {n: graphs.cover_power(a.cover, n).emap for n in range(1, depth_max + 1)}
    edges = sorted(a.graph.edges)
    walks = {s.vertices: s.walk for s in stationary.constant_sequences(a, k_max).sequences}
    for r in report.details["sequences"]:
        pattern = (r["e0"], *walks[r["sequence"]], r["ek"])
        hit = first_hit(
            range(1, depth_max + 1), edges,
            lambda n, e: stationary._contains(words[n][e], pattern),
        )
        assert r["witness"] == (hit and {"edge": hit[1], "depth": hit[0]})
        assert r["verdict"] == ("OVERLAPPED" if hit else "UNKNOWN")
    for r in report.details["families"]:
        def run(n, e):
            return stationary._max_flanked_run(words[n][e], r["e0"], r["cycle"], r["ek"])

        hit = first_hit(
            range(1, depth_max), edges, lambda n, e: 2 <= run(n, e) < run(n + 1, e)
        )
        assert r["witness"] == (hit and {
            "edge": hit[1], "depth": hit[0], "run": run(*hit), "deeper_run": run(hit[0] + 1, hit[1]),
        })
        assert r["verdict"] == ("CERTIFIED" if hit else "UNKNOWN")
    settled = all(r["witness"] for r in report.details["sequences"] + report.details["families"])
    assert report.verdict == ("BIJECTIVE" if settled else "UNKNOWN")


@pytest.mark.parametrize("depth_max", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "cover", [fib_base_cover(), example2_cover(), skew_fixed_edge_cover()],
    ids=["fib", "example2", "skew"],
)
def test_overlap_witnesses_are_the_first_in_the_cover_powers(cover, depth_max):
    assert_overlap_matches_the_cover_powers(cover, 4, depth_max)


def test_catalogue_overlap_witnesses_are_the_first_in_the_cover_powers():
    for cover in catalogue.COVERS:
        for k_max, depth_max in ((1, 1), (2, 3), (3, 2), (4, 4)):
            assert_overlap_matches_the_cover_powers(cover, k_max, depth_max)


@pytest.mark.parametrize("bounds", [(0, 6), (-1, 6), (4, 0), (4, -2)])
def test_overlap_bounds_below_one_are_rejected(bounds):
    a = stationary.analyze_self_cover(example2_cover())
    with pytest.raises(InvalidParameter, match=str(min(bounds))):
        stationary.check_overlap(a, *bounds)
    if bounds[0] < 1:
        with pytest.raises(InvalidParameter, match=str(bounds[0])):
            stationary.constant_sequences(a, bounds[0])
