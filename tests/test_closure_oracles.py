"""The frontier closure of substitution languages against the full passes.

The oracles are the pass loops the library used before its frontier
closure: every pass re-applies the substitution to every known word,
slices every factor of every image, and (for recoding) reads every
window of every known word.  The benchmark's brute-force language, the
factors of the words s^k(a), is a second oracle for ``language``.  The
growth closure is checked against the fixed-point iteration of the
reachability sets.
"""

import collections
import importlib.util

import pytest
from hypothesis import given, settings

from zdyn import cli, coverings, substitution as subs
from zdyn.errors import EmptyGrowingSet

from helpers import example2_unit
from test_cli import DATA, ROOT
from test_krieger_oracles import FIXTURES
from test_properties import loop_covers

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracles", ROOT / "perfbench" / "oracles.py"
)
bench_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracles)


# ---------------------------------------------------------------------------
# oracles


def oracle_reach(rules):
    """The reachability sets of a substitution, to a fixed point."""
    reach = {a: set(rules[a]) for a in rules}
    changed = True
    while changed:
        changed = False
        for r in reach.values():
            extra = set().union(*(set(rules[q]) for q in r)) - r
            if extra:
                r |= extra
                changed = True
    return reach


def oracle_growing(rules):
    reach = oracle_reach(rules)
    pumping = {a for a in rules if a in reach[a] and len(rules[a]) >= 2}
    return frozenset(a for a in rules if ({a} | reach[a]) & pumping)


def oracle_bounded(cover):
    """Edges of bounded level-n length, as the regulated check read them."""
    return set(cover.emap) - oracle_growing(cover.emap)


def apply(s, w):
    """``s(w)``: the images of the letters of ``w``, joined."""
    return tuple(x for a in w for x in s.rules[a])


def oracle_pass(s, words, max_len):
    """One full pass: every factor of every image of every known word."""
    grown = set(words)
    for w in words:
        image = apply(s, w)
        for k in range(1, max_len + 1):
            grown.update(image[i : i + k] for i in range(len(image) - k + 1))
    return grown


def oracle_language(s, max_len):
    words = {(a,) for a in s.alphabet}
    while True:
        grown = oracle_pass(s, words, max_len)
        if grown == words:
            return frozenset(words)
        words = grown


def oracle_windows(p, n, word, radius):
    """Every window of one level-(n+1) word, levels read per word."""
    up_lengths = coverings.level_graph(p, n + 1).length
    low_lengths = coverings.level_graph(p, n).length
    columns, value_at = [], []
    for e in word:
        for q in p.self_cover.emap[e]:
            for i in range(low_lengths[q]):
                columns.append((q, i == 0))
                value_at.append(e)
    assert len(columns) == sum(up_lengths[e] for e in word)
    return [
        (tuple(columns[c - radius : c + radius + 1]), value_at[c])
        for c in range(radius, len(columns) - radius)
    ]


def oracle_recoding_passes(p, n, radius, passes):
    """The outcome after each full pass: (verdict, window table).

    The verdict is None while the check has not settled; the list stops
    at the first settled pass.
    """
    s = subs.read_substitution(p.self_cover)
    words = {(a,) for a in s.alphabet}
    table = {}
    outcomes = []
    for _ in range(passes):
        grown = oracle_pass(s, words, 2 * radius + 3)
        new_pairs = False
        for w in grown:
            for key, value in oracle_windows(p, n, w, radius):
                seen = table.setdefault(key, set())
                if value not in seen:
                    seen.add(value)
                    new_pairs = True
        if any(len(values) > 1 for values in table.values()):
            outcomes.append(("AMBIGUOUS", table))
            return outcomes
        if grown == words and not new_pairs:
            outcomes.append(("DETERMINED", table))
            return outcomes
        outcomes.append((None, None))
        words = grown
    return outcomes


def fixture(name):
    return cli.read_document(DATA / name)


# the weighted Example 2 reads the same substitution as Example 2
LANGUAGE_FIXTURES = (
    "example2_covering.json",
    "fib_covering.json",
    "skew_covering.json",
    "fib_substitution.json",
)


def fixture_substitution(name):
    obj = fixture(name)
    if isinstance(obj, subs.Substitution):
        return obj
    return subs.read_substitution(obj.self_cover)


# ---------------------------------------------------------------------------
# languages


def up_to(words, max_len):
    return frozenset(w for w in words if len(w) <= max_len)


@pytest.mark.parametrize("name", LANGUAGE_FIXTURES)
def test_language_matches_both_oracles_on_the_fixtures(name):
    # The words up to a length are the longer language's words that
    # short.  The benchmark's oracle stops at 12: on Example 2 it would
    # iterate words of millions of letters to close at 16.
    s = fixture_substitution(name)
    full = oracle_language(s, 16)
    bench = bench_oracles.language(s.rules, 12)
    for max_len in range(1, 17):
        got = subs.language(s, max_len)
        assert got == up_to(full, max_len)
        if max_len <= 12:
            assert got == up_to(bench, max_len)


@settings(max_examples=30, deadline=None)
@given(loop_covers())
def test_language_matches_both_oracles_on_loop_covers(c):
    # The benchmark's oracle stops at 8 here: its words s^k(a) grow
    # exponentially, and some covers need k near the length to close.
    try:
        s = subs.read_substitution(c)
    except EmptyGrowingSet:
        return
    full = oracle_language(s, 16)
    bench = bench_oracles.language(s.rules, 8, max_iterations=256)
    for max_len in range(1, 17):
        got = subs.language(s, max_len)
        assert got == up_to(full, max_len)
        if max_len <= 8:
            assert got == up_to(bench, max_len)


def test_each_pass_adds_what_a_full_pass_adds():
    s = subs.read_substitution(example2_unit().self_cover)
    words = set()
    full = {(a,) for a in s.alphabet}
    for fresh in subs._closure_passes(s, 9):
        before, full = full, oracle_pass(s, full, 9)
        assert not fresh & words
        words |= fresh
        assert words == full
        assert bool(fresh) == (full != before)


def test_only_spanning_factors_are_read():
    s = subs.read_substitution(example2_unit().self_cover)
    for w in subs.language(s, 6):
        image = apply(s, w)
        head = len(s.rules[w[0]])
        tail = len(image) - len(s.rules[w[-1]])
        want = [
            image[i:j]
            for i in range(head)
            for j in range(i + 1, min(i + 6, len(image)) + 1)
            if j > tail
        ]
        assert list(subs._spanning_factors(s.rules, w, 6)) == want


def test_every_word_is_expanded_once(monkeypatch):
    s = subs.read_substitution(example2_unit().self_cover)
    expanded = collections.Counter()
    spanning = subs._spanning_factors

    def counted(rules, w, max_len):
        expanded[w] += 1
        return spanning(rules, w, max_len)

    monkeypatch.setattr(subs, "_spanning_factors", counted)
    words = subs.language(s, 9)
    assert set(expanded) == words
    assert set(expanded.values()) == {1}


def test_example2_language_at_length_32():
    s = subs.read_substitution(example2_unit().self_cover)
    assert len(subs.language(s, 32)) == 3939


# ---------------------------------------------------------------------------
# recoding


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_recoding_matches_the_full_passes(name, n):
    p = fixture(name)
    for radius in range(6):
        outcomes = oracle_recoding_passes(p, n, radius, 6)
        for max_passes in range(1, 7):
            report = subs.check_recoding(p, n, radius, max_passes)
            settled, table = outcomes[:max_passes][-1]
            assert report.verdict == (settled or "UNKNOWN")
            assert (report.details["level"], report.details["radius"]) == (n, radius)
            if report.verdict == "UNKNOWN":
                assert report.details["reason"] == "did not stabilize"
                continue
            if report.verdict == "DETERMINED":
                assert report.details["windows"] == len(table)
                continue
            least = min(key for key, values in table.items() if len(values) > 1)
            assert report.details["window"] == least
            assert report.witnesses == (tuple(sorted(table[least])[:2]),)


@pytest.mark.parametrize("n", (1, 2))
def test_only_windows_meeting_both_end_cells_are_read(n):
    p = example2_unit()
    cells = subs._level_cells(p, n)
    s = subs.read_substitution(p.self_cover)
    for w in subs.language(s, 5):
        first, last = len(cells[w[0]]), len(cells[w[-1]])
        span = sum(len(cells[e]) for e in w)
        want = [
            (key, value)
            for c, (key, value) in enumerate(oracle_windows(p, n, w, 2), start=2)
            if c - 2 < first and c + 2 >= span - last
        ]
        assert subs._word_windows(cells, w, 2) == want


def test_recoding_reads_every_word_once(monkeypatch):
    p = example2_unit()
    read = collections.Counter()
    windows = subs._word_windows

    def counted(cells, w, radius):
        read[w] += 1
        return windows(cells, w, radius)

    monkeypatch.setattr(subs, "_word_windows", counted)
    assert subs.check_recoding(p, 1, 3).verdict == "DETERMINED"
    assert set(read) == subs.language(subs.read_substitution(p.self_cover), 9)
    assert set(read.values()) == {1}


# ---------------------------------------------------------------------------
# growth


@settings(max_examples=80, deadline=None)
@given(loop_covers())
def test_growth_closure_matches_the_fixed_point(c):
    assert subs.growing_letters(subs.substitution(c.emap)) == oracle_growing(c.emap)
    growing = coverings.growing_symbols(c.emap)
    assert set(c.emap) - growing == oracle_bounded(c)


@pytest.mark.parametrize("name", FIXTURES)
def test_growth_closure_on_the_fixtures(name):
    emap = fixture(name).self_cover.emap
    assert coverings.growing_symbols(emap) == oracle_growing(emap)
