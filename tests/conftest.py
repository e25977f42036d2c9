"""Shared fixtures: reference algebras, sampling configurations, and a
graph-enumeration oracle used by the combinatorial suites.  A graph is
a 1-dimensional `SimplicialComplex`, built by `graph_complex`."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from mixedhess import (
    LinearForm,
    Polynomial,
    SamplingConfig,
    SimplicialComplex,
    VarSet,
    apolar_pairing,
    build_algebra,
    example_catalog,
    parse_polynomial,
)


@pytest.fixture(scope="session")
def config():
    return SamplingConfig(seed=0)


@pytest.fixture(scope="session")
def fast_config():
    return SamplingConfig(seed=0, trials=4)


@pytest.fixture(scope="session")
def catalog():
    return {entry.identifier: entry for entry in example_catalog()}


@pytest.fixture(scope="session")
def four_cycle_alg(catalog):
    return build_algebra(catalog["four-cycle"].polynomial)


@pytest.fixture(scope="session")
def boolean3_alg():
    return build_algebra(parse_polynomial("x1*x2*x3"))


# -- helpers usable from any test module -------------------------------------


def dense_random_form(rng: random.Random, nvars: int, degree: int):
    """Homogeneous polynomial with every degree-`degree` monomial present,
    coefficients drawn uniformly from nonzero single digits."""
    names = tuple(f"x{i + 1}" for i in range(nvars))
    vs = VarSet(names)
    text = ""
    for exps in itertools.combinations_with_replacement(range(nvars), degree):
        counts = [0] * nvars
        for i in exps:
            counts[i] += 1
        coeff = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9]) * rng.choice([1, -1])
        mono = "*".join(
            name if c == 1 else f"{name}^{c}"
            for name, c in zip(names, counts)
            if c
        )
        if not text:
            text = f"{coeff}*{mono}" if coeff > 0 else f"-{abs(coeff)}*{mono}"
        else:
            text += f" + {coeff}*{mono}" if coeff > 0 else f" - {abs(coeff)}*{mono}"
    return parse_polynomial(text, vs)


def rational_random_form(rng: random.Random, nvars: int, degree: int):
    """Homogeneous polynomial on a random nonempty subset of the
    degree-`degree` monomials, with coefficients of mixed denominators."""
    vs = VarSet(tuple(f"x{i + 1}" for i in range(nvars)))
    monomials = list(itertools.combinations_with_replacement(range(nvars), degree))
    terms = {}
    for combo in rng.sample(monomials, rng.randint(1, len(monomials))):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = Fraction(
            rng.choice([1, 2, 3, 5, 7]) * rng.choice([1, -1]), rng.choice([1, 2, 3, 4, 9])
        )
    return Polynomial(vs, terms)


def densify(rows, ncols: int) -> list[list[Fraction]]:
    """Dense Fraction rows of sparse ``{column: value}`` rows."""
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(ncols)] for row in rows]


def dense_pairing_inverse(alg, k: int) -> list[list[Fraction]]:
    """The inverse of the degree-k socle pairing of ``alg.f`` as dense
    Fraction rows: every cell (alpha * gamma)(f) through `apolar_pairing`,
    then dense Gauss-Jordan elimination.  An oracle that reads neither
    ``alg.pairing_matrix`` nor ``alg.pairing_inverse``."""
    return dense_inverse([
        [apolar_pairing(a, g, alg.f) for g in alg.quotient_basis(alg.socle_degree - k)]
        for a in alg.quotient_basis(k)
    ])


def dense_rref(rows):
    """The dense Gauss-Jordan elimination rref replaced; kept as an oracle."""
    m = [[Fraction(c) for c in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        m[rank] = [c / p for c in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def dense_inverse(rows):
    """Inverse of an invertible square matrix by dense Gauss-Jordan
    elimination of [rows | I]; an oracle for the sparse pairing inverse."""
    n = len(rows)
    reduced, pivots = dense_rref(
        [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(rows)]
    )
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in reduced]


def random_linear_avoiding(alg, rng: random.Random, bound: int = 50):
    """Seeded linear form whose coefficient point misses the zero locus
    of the algebra's generator."""
    n = alg.varset.size
    while True:
        coeffs = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        if any(coeffs) and alg.f.evaluate(coeffs) != 0:
            return LinearForm(alg.varset, coeffs)


def graph_complex(n: int, pairs) -> SimplicialComplex:
    """The graph on vertices v1..vn whose edges are the 0-based index
    pairs, as a 1-dimensional complex with its edges in vertex order.
    A vertex on no edge stays uncovered."""
    names = tuple(f"v{i + 1}" for i in range(n))
    edges = sorted(tuple(sorted(pair)) for pair in pairs)
    return SimplicialComplex(names, tuple((names[a], names[b]) for a, b in edges))


def atlas_graph_complex(g) -> SimplicialComplex:
    """A networkx graph as `graph_complex`, its nodes relabeled in
    sorted order."""
    relabel = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return graph_complex(
        g.number_of_nodes(), [(relabel[a], relabel[b]) for a, b in g.edges()]
    )


def connected_triangle_free_graphs(max_vertices: int) -> list[SimplicialComplex]:
    """All connected triangle-free graphs on 2..max_vertices vertices, one
    per isomorphism class, via the published atlas of small graphs."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 2 or n > max_vertices:
            continue
        if not nx.is_connected(g):
            continue
        if any(t > 0 for t in nx.triangles(g).values()):
            continue
        out.append(atlas_graph_complex(g))
    return out


def random_unicyclic_graph(rng: random.Random, nvertices: int):
    """Seeded random connected graph with exactly one cycle.

    Returns (graph, cycle_length).  Built as a random labeled tree from a
    Pruefer sequence plus one chord closing a cycle of known length."""
    import heapq

    n = nvertices
    assert n >= 3
    if n == 3:
        tree_edges = [(0, 1), (1, 2)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        tree_edges = []
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for s in seq:
            leaf = heapq.heappop(leaves)
            tree_edges.append((min(leaf, s), max(leaf, s)))
            degree[s] -= 1
            if degree[s] == 1:
                heapq.heappush(leaves, s)
        a, b = heapq.heappop(leaves), heapq.heappop(leaves)
        tree_edges.append((min(a, b), max(a, b)))
    adj = {i: set() for i in range(n)}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)

    def tree_distance(a: int, b: int) -> int:
        frontier = {a}
        seen = {a}
        dist = 0
        while b not in frontier:
            frontier = {w for v in frontier for w in adj[v]} - seen
            seen |= frontier
            dist += 1
        return dist

    non_edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if b not in adj[a]
    ]
    chord = rng.choice(non_edges)
    cycle_length = tree_distance(*chord) + 1
    edges = sorted(tree_edges + [chord])
    return graph_complex(n, edges), cycle_length


def dense_cells(h) -> list[list[Polynomial]]:
    """The entries of a `MixedHessian` as dense rows: its stored cells,
    and the zero polynomial in every other cell."""
    zero = Polynomial.zero(h.varset)
    return [[row.get(j, zero) for j in range(h.ncols)] for row in h.cells]
