"""Constant chains and regulation by the closure search, the oracle of the tests.

The library reads an infinitely constantly covered edge as an edge on a
cycle of the single-image relation, and runs a stationary presentation
as a self-cover repeated from level 1.  Here a stationary presentation
takes its own branch, the covered edges are closed upward from the
cycles until nothing changes, and a chain's witness climbs to its cycle
through the least preimage at each step.

On a truncated prefix the oracle keeps the within-prefix rule: a chain
from the top through a non-circuit edge fails closing.  The library
leaves such a prefix UNKNOWN instead, since a continuation may end the
chain; the tests compare the two through that translation.
"""

from types import MappingProxyType

from zdyn import graphs
from zdyn.coverings import (
    ConstantChain,
    _checked_l_seq,
    _single_image_relation,
    growing_symbols,
    level_graph,
)
from zdyn.errors import DepthOutOfRange
from zdyn.reports import FAILS, HOLDS, UNKNOWN, Report


def cover_at(p, n):
    """The weighted cover from level ``n`` down to level ``n - 1``."""
    if n < 1:
        raise DepthOutOfRange("covers start at level 1")
    p._check_depth(n)
    dom = level_graph(p, n)
    if n == 1:
        return graphs.Cover(
            domain=dom,
            codomain=level_graph(p, 0),
            vmap=MappingProxyType({v: "v0" for v in dom.vertices}),
            emap=MappingProxyType({e: ("e0",) * dom.length[e] for e in dom.edges}),
        )
    if p.stationary:
        base = p.self_cover
    elif n <= len(p.graphs):
        base = p.covers[n - 2]
    else:
        base = p.covers[-1]
    return graphs.Cover(
        domain=dom, codomain=level_graph(p, n - 1), vmap=base.vmap, emap=base.emap
    )


def relation_cycles(rel):
    """Edges lying on a cycle of the (functional) relation."""
    on_cycle = set()
    for start in rel:
        seen = []
        here = start
        while here in rel and here not in seen:
            seen.append(here)
            here = rel[here]
        if here in seen:
            on_cycle.update(seen[seen.index(here):])
    return on_cycle


def icc_edges(rel, cycles):
    """Edges with arbitrarily long constant chains above them."""
    covered = set(cycles)
    changed = True
    while changed:
        changed = False
        for src, dst in rel.items():
            if src in covered and dst not in covered:
                covered.add(dst)
                changed = True
    return covered


def chain_description(rel, cycles, covered, e):
    """The (transient, cycle) witness above an infinitely covered edge."""
    up = [e]
    while up[-1] not in cycles:
        up.append(min(q for q in rel if rel[q] == up[-1] and q in covered))
    entry = up[-1]
    cyc = [entry]
    here = rel[entry]
    while here != entry:
        cyc.append(here)
        here = rel[here]
    cyc.reverse()
    transient = tuple(q for q in up[1:] if q not in cycles)
    return transient, tuple(cyc)


def find_constant_chains(p):
    if p.stationary:
        rel = _single_image_relation(p.self_cover)
        cycles = relation_cycles(rel)
        covered = icc_edges(rel, cycles)
        return [
            ConstantChain(e, *chain_description(rel, cycles, covered, e))
            for e in sorted(covered)
        ]
    top = len(p.graphs)
    descents = {e: [e] for e in sorted(level_graph(p, top).edges)}
    for n in range(top, 1, -1):
        cov = cover_at(p, n)
        descents = {
            e: chain + [cov.emap[chain[-1]][0]]
            for e, chain in descents.items()
            if len(cov.emap[chain[-1]]) == 1
        }
    chains = []
    if p.self_cover is not None:
        rel = _single_image_relation(p.covers[-1])
        cycles = relation_cycles(rel)
        covered = icc_edges(rel, cycles)
        for e_top, chain in sorted(descents.items()):
            if e_top not in covered:
                continue
            upward = list(reversed(chain))
            trans_top, cyc = chain_description(rel, cycles, covered, e_top)
            above = upward[1:]
            if e_top in set(cyc):
                above = above[:-1]
            chains.append(ConstantChain(upward[0], tuple(above) + trans_top, cyc))
    else:
        for e_top, chain in sorted(descents.items()):
            upward = list(reversed(chain))
            chains.append(
                ConstantChain(upward[0], tuple(upward[1:]), (), exact=False)
            )
    return chains


def is_circuit_edge(g, e):
    return g.src[e] == g.rng[e]


def chain_is_circuits(p, chain):
    if p.stationary:
        g = p.self_cover.domain
        edges = {chain.edge, *chain.transient, *chain.cycle}
        return all(is_circuit_edge(g, e) for e in edges)
    top = len(p.graphs)
    placed = [(1, chain.edge)]
    placed += [(min(i + 2, top), e) for i, e in enumerate(chain.transient)]
    placed += [(top, e) for e in chain.cycle]
    return all(is_circuit_edge(level_graph(p, n), e) for n, e in placed)


def check_closing(p):
    chains = find_constant_chains(p)
    bad = [c for c in chains if not chain_is_circuits(p, c)]
    if bad:
        return Report(
            tag="closing",
            verdict=FAILS,
            witnesses=tuple((c.edge, c.transient, c.cycle) for c in bad),
            details={"reason": "constant chain through a non-circuit edge"},
        )
    if any(not c.exact for c in chains):
        return Report(
            tag="closing",
            verdict=UNKNOWN,
            details={"reason": "truncated prefix: chains not extendable"},
        )
    reason = "no constant chains" if not chains else "all chains are circuits"
    return Report(tag="closing", verdict=HOLDS, details={"reason": reason})


def circuit_chain_edges(cover):
    rel = _single_image_relation(cover)
    g = cover.domain
    loop_rel = {
        a: b
        for a, b in rel.items()
        if is_circuit_edge(g, a) and is_circuit_edge(g, b)
    }
    return icc_edges(loop_rel, relation_cycles(loop_rel))


def prefix_chain_support(p, n):
    """``(supported, undecided)`` level-n circuit edges of a finite prefix."""
    top = len(p.graphs)
    g = level_graph(p, n)
    alive = {e: e for e in g.edges if is_circuit_edge(g, e)}
    for k in range(n + 1, top + 1):
        cov = cover_at(p, k)
        gk = level_graph(p, k)
        alive = {
            e2: bottom
            for e, bottom in alive.items()
            for e2 in gk.edges
            if cov.emap[e2] == (e,) and is_circuit_edge(gk, e2)
        }
    if p.self_cover is not None:
        good_top = circuit_chain_edges(p.covers[-1])
        return {alive[e] for e in alive if e in good_top}, set()
    return set(), set(alive.values())


def check_regulated(p, l_seq, n_max):
    seq = _checked_l_seq(l_seq, n_max)
    p._check_depth(n_max)
    if p.stationary:
        good = circuit_chain_edges(p.self_cover)
    levels = []
    overall = HOLDS
    for n in range(1, n_max + 1):
        g = level_graph(p, n)
        short = sorted(e for e in g.edges if g.length[e] <= seq[n - 1])
        if p.stationary:
            bad = [e for e in short if e not in good]
            verdict = FAILS if bad else HOLDS
        else:
            supported, undecided = prefix_chain_support(p, n)
            bad = [e for e in short if e not in supported and e not in undecided]
            if bad:
                verdict = FAILS
            elif any(e in undecided for e in short):
                verdict = UNKNOWN
            else:
                verdict = HOLDS
        levels.append({"level": n, "verdict": verdict, "witnesses": tuple(bad)})
        if verdict == FAILS:
            overall = FAILS
        elif verdict == UNKNOWN and overall == HOLDS:
            overall = UNKNOWN
    details = {"levels": levels}
    if p.self_cover is not None:
        # bounded edges stay short forever under the cover that repeats
        repeated = p.self_cover if p.stationary else p.covers[-1]
        good = circuit_chain_edges(repeated)
        growing = growing_symbols(repeated.emap)
        stray = sorted(repeated.emap.keys() - growing - good)
        details["asymptotic"] = {
            "verdict": FAILS if stray else HOLDS,
            "witnesses": tuple(stray),
            "undecided": sorted(
                e
                for e in repeated.domain.edges
                if e in growing and e not in good
            ),
        }
        if stray:
            overall = FAILS
    else:
        details["asymptotic"] = {"verdict": UNKNOWN, "witnesses": ()}
        if overall == HOLDS:
            overall = UNKNOWN
    witnesses = tuple(
        (entry["level"], e) for entry in levels for e in entry["witnesses"]
    )
    return Report(
        tag="regulated", verdict=overall, witnesses=witnesses, details=details
    )
