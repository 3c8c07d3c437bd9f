"""Substitution reads, n-symbols, array windows, and recoding."""

import pytest

from zdyn import bratteli, coverings, substitution as subs
from zdyn.errors import EmptyGrowingSet, IllegalSeed, UnknownName, UnsupportedKind, ZdynError
from zdyn.graphs import Cover, flexible, identity_cover

from helpers import (
    EXAMPLE2_EMAP,
    example2_cover,
    example2_unit,
    fib_cover,
    fib_graph,
    fib_presentation,
    unit_presentation,
)


def fib_subst():
    return subs.substitution({"a": "aba", "b": "ab"})


def collision_presentation():
    """Both letters expand to the same word: recoding must be ambiguous."""
    g = flexible({"v"}, {"a": ("v", "v"), "b": ("v", "v")})
    cover = Cover(
        domain=g,
        codomain=g,
        vmap={"v": "v"},
        emap={"a": ("a", "b"), "b": ("a", "b")},
    )
    return unit_presentation(cover)


# ---------------------------------------------------------------------------
# substitutions and their language


def test_substitution_rejects_bad_rules():
    with pytest.raises(ValueError):
        subs.substitution({"a": ""})
    with pytest.raises(ValueError):
        subs.substitution({"a": "ab"})


def test_growing_letters():
    assert subs.growing_letters(fib_subst()) == frozenset({"a", "b"})
    s = subs.substitution({"a": "a", "b": "ab"})
    assert subs.growing_letters(s) == frozenset({"b"})
    still = subs.substitution({"a": "a", "b": "b"})
    assert subs.growing_letters(still) == frozenset()


def test_language_of_fib_up_to_length_two():
    assert subs.language(fib_subst(), 2) == frozenset(
        {("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a")}
    )


def test_language_needs_a_growing_letter():
    with pytest.raises(EmptyGrowingSet):
        subs.language(subs.substitution({"a": "a"}), 2)


# ---------------------------------------------------------------------------
# reading substitutions off covers and mono-graphs


def test_read_example2_self_cover():
    s = subs.read_substitution(example2_cover())
    assert s.rules == EXAMPLE2_EMAP
    assert subs.growing_letters(s) == frozenset({"e_b", "e_c", "e_d", "e_e"})


def test_reading_mono_and_cover_commute():
    p = example2_unit()
    via_cover = subs.read_substitution(p.self_cover)
    via_mono = subs.read_substitution(bratteli.weighted_to_bv(p).mono)
    assert via_cover.rules == via_mono.rules


def test_read_rejects_non_growing_covers():
    with pytest.raises(EmptyGrowingSet):
        subs.read_substitution(identity_cover(fib_graph()))


def test_read_rejects_non_self_covers():
    from helpers import weighted_cover

    with pytest.raises(UnsupportedKind):
        subs.read_substitution(weighted_cover(fib_cover(), 1))


# ---------------------------------------------------------------------------
# n-symbols


def test_n_symbol_of_example2_edge():
    sym = subs.n_symbol(example2_unit(), "e_b", 2)
    assert sym.rows == (
        ("e0", "e0", "e0", "e0"),
        ("e_a", "e_b", "e_d", "e_e"),
        ("e_b",),
    )
    assert len(sym.rows[0]) == 4


def test_n_symbol_width_equals_level_length():
    p = fib_presentation()
    for n in (1, 2, 3, 4):
        g = coverings.level_graph(p, n)
        for e in g.edges:
            sym = subs.n_symbol(p, e, n)
            assert len(sym.rows[0]) == g.length[e]
            widths = [len(row) for row in sym.rows]
            assert widths == sorted(widths, reverse=True)


def test_n_symbol_of_an_unknown_edge_names_it():
    with pytest.raises(UnknownName, match="no edge 'nope' at level 2"):
        subs.n_symbol(example2_unit(), "nope", 2)
    assert issubclass(UnknownName, ZdynError)


# ---------------------------------------------------------------------------
# array windows


def ex2_seed():
    return subs.SeedRow(
        level=2, left=("e_a",), core=("e_b", "e_d"), right=("e_f",)
    )


def row(w, k):
    """Row ``k`` of an array window, its cells from ``lo`` to ``hi``."""
    return tuple(w.cells[(k, c)] for c in range(w.lo, w.hi + 1))


def test_array_window_rows_and_cuts():
    w = subs.array_window(example2_unit(), ex2_seed(), rows=2, cols=(-2, 8))
    assert row(w, 2) == (
        "e_a", "e_a", "e_b", "e_b", "e_b", "e_b",
        "e_d", "e_d", "e_d", "e_d", "e_f",
    )
    assert row(w, 1) == (
        "e_a", "e_a", "e_a", "e_b", "e_d", "e_e",
        "e_d", "e_e", "e_d", "e_f", "e_f",
    )
    assert row(w, 0) == ("e0",) * 11
    assert sorted(w.cuts[2]) == [-2, -1, 0, 4, 8]
    assert w.cuts[0] == frozenset(range(-2, 9))


def test_cut_monotonicity():
    w = subs.array_window(example2_unit(), ex2_seed(), rows=2, cols=(-6, 12))
    assert w.cuts[2] <= w.cuts[1] <= w.cuts[0]


def test_inter_cut_segments_expand_the_cell_above():
    p = example2_unit()
    w = subs.array_window(p, ex2_seed(), rows=2, cols=(-6, 12))
    for k in (0, 1):
        emap = coverings.cover_at(p, k + 1).emap
        for c in sorted(w.cuts[k + 1]):
            e = w.cells[(k + 1, c)]
            width = coverings.level_graph(p, k + 1).length[e]
            if c + width - 1 > w.hi:
                continue  # block leaves the window
            segment = tuple(
                w.cells[(k, q)]
                for q in range(c, c + width)
                if q in w.cuts[k]
            )
            assert segment == emap[e]


def test_illegal_seeds_are_rejected():
    p = example2_unit()
    with pytest.raises(IllegalSeed):
        subs.array_window(
            p,
            subs.SeedRow(level=2, left=("e_a",), core=("e_d",), right=("e_f",)),
            rows=1,
            cols=(0, 3),
        )
    with pytest.raises(IllegalSeed):
        subs.array_window(
            p,
            subs.SeedRow(level=2, left=("nope",), right=("e_f",)),
            rows=1,
            cols=(0, 3),
        )


# ---------------------------------------------------------------------------
# window recognition


def test_recoding_example2_is_determined_at_small_radius():
    p = example2_unit()
    assert subs.check_recoding(p, 1, 1).verdict == "AMBIGUOUS"
    report = subs.check_recoding(p, 1, 2)
    assert report.verdict == "DETERMINED"
    # once determined, larger radii stay determined
    assert subs.check_recoding(p, 1, 3).verdict == "DETERMINED"


def test_recoding_collision_fixture_is_ambiguous():
    report = subs.check_recoding(collision_presentation(), 1, 3)
    assert report.verdict == "AMBIGUOUS"
    assert report.witnesses == (("a", "b"),)
