"""Simplicial complexes and the algebras their facets generate.

A pure simplicial complex with every vertex covered determines a dual
generator in two blocks of variables: one x-variable per facet, one
u-variable per vertex, summed as (facet variable) times (product of the
facet's vertex variables).  The resulting bigraded Artinian Gorenstein
algebras are this module's subject matter.

Alongside the constructions (Turán complexes, leaf growth, face
deletion) the module provides the combinatorial side of several
dual-route checks:

* the Hilbert function from face counts alone, to compare with the
  catalecticant ranks;
* presentation by quadrics read off flagness and facet connectivity,
  to compare with the algebraic annihilator test;
* for graphs, which are the pure 1-dimensional complexes, a
  vertex-edge incidence matrix built without the algebra, to compare
  with its bigraded Hessian block, and a full combinatorial prediction
  of the weak Lefschetz property, to compare with the rank-based
  verdict;
* for Turán complexes, an explicit syzygy of the facet rows of the
  degree (1, 2) multiplication, certifying failure of injectivity at
  every linear form at once.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, NamedTuple, Sequence

from .apolarity import GradedAlgebra, InvariantViolation
from .config import SamplingConfig
from .hessians import (
    MixedHessian,
    RankCertificate,
    bigraded_hessian,
    generic_rank,
)
from .polyring import Polynomial, VarSet, _unit

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class SimplicialComplex(namedtuple("SimplicialComplex", ("vertices", "facets"))):
    """A complex given by its vertices and inclusion-maximal faces.

    Facets are stored as tuples sorted in vertex order; the constructor
    rejects empty facets, unknown vertices, and redundant (contained)
    facets so that downstream code can trust maximality.
    """

    __slots__ = ()

    def __new__(
        cls, vertices: tuple[str, ...], facets: tuple[tuple[str, ...], ...]
    ) -> "SimplicialComplex":
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        index = {v: i for i, v in enumerate(vertices)}
        seen = []
        for fac in facets:
            if not fac:
                raise ValueError("empty facet")
            for v in fac:
                if v not in index:
                    raise ValueError(f"facet uses unknown vertex {v!r}")
            if len(set(fac)) != len(fac):
                raise ValueError(f"repeated vertex in facet {fac!r}")
            if tuple(sorted(fac, key=index.__getitem__)) != fac:
                raise ValueError(f"facet {fac!r} is not in vertex order")
            seen.append(frozenset(fac))
        for i, a in enumerate(seen):
            for j, b in enumerate(seen):
                if i != j and a <= b:
                    raise ValueError(
                        f"facet {facets[i]!r} is contained in {facets[j]!r}"
                    )
        return super().__new__(cls, vertices, facets)

    # The inherited _make, which _replace calls, would bypass __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @staticmethod
    def from_facets(
        facets: Iterable[Iterable[str]], vertices: Sequence[str] | None = None
    ) -> "SimplicialComplex":
        """Build a complex from facet vertex lists, keeping each
        inclusion-maximal facet once, in first-appearance order.  When
        `vertices` is given it fixes the vertex order (and may name
        vertices in no facet); otherwise the order is first appearance.
        A facet that lists a vertex twice, or one not among the given
        `vertices`, is rejected."""
        facets = [tuple(fac) for fac in facets]
        if vertices is None:
            vertices = dict.fromkeys(v for fac in facets for v in fac)
        order = {v: i for i, v in enumerate(vertices)}
        sets = []
        for fac in facets:
            for v in fac:
                if v not in order:
                    raise ValueError(f"facet uses unknown vertex {v!r}")
            if len(set(fac)) != len(fac):
                raise ValueError(f"repeated vertex in facet {fac!r}")
            sets.append(frozenset(fac))
        maximal = [
            s
            for i, s in enumerate(sets)
            if not any(s < t for t in sets) and s not in sets[:i]
        ]
        return SimplicialComplex(
            tuple(vertices),
            tuple(tuple(sorted(s, key=order.__getitem__)) for s in maximal),
        )

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def is_covered(self) -> bool:
        """Every vertex lies in at least one facet."""
        used = {v for f in self.facets for v in f}
        return used == set(self.vertices)

    def faces(self) -> set[frozenset[str]]:
        """All faces, the empty face included."""
        out: set[frozenset[str]] = {frozenset()}
        for fac in self.facets:
            for k in range(1, len(fac) + 1):
                for sub in combinations(fac, k):
                    out.add(frozenset(sub))
        return out

    def face_counts(self) -> tuple[int, ...]:
        """Entry k counts the faces with k vertices (entry 0 is 1 for
        the empty face)."""
        counts = [0] * (self.dim + 2)
        for face in self.faces():
            counts[len(face)] += 1
        return tuple(counts)


class GraphAlgebraClass(str, Enum):
    """Combinatorial prediction for the algebra of a graph's edges."""

    NOT_PRESENTED_BY_QUADRICS = "not-presented-by-quadrics"
    TREE_WLP = "tree-wlp"
    UNI_ODD_WLP = "uni-odd-wlp"
    UNI_EVEN_NO_WLP = "uni-even-no-wlp"
    MULTI_CYCLE_NO_WLP = "multi-cycle-no-wlp"

    @property
    def predicts_wlp(self) -> bool | None:
        if self in (
            GraphAlgebraClass.TREE_WLP,
            GraphAlgebraClass.UNI_ODD_WLP,
        ):
            return True
        if self in (
            GraphAlgebraClass.UNI_EVEN_NO_WLP,
            GraphAlgebraClass.MULTI_CYCLE_NO_WLP,
        ):
            return False
        return None


def classify_graph_algebra(comp: SimplicialComplex) -> GraphAlgebraClass:
    """Predict, from a graph alone, how the algebra of its edges
    behaves.  A graph is a pure 1-dimensional complex; for one, flag
    means triangle-free with every vertex covered, and facet-connected
    means connected.  Outside those graphs the annihilator needs
    generators beyond the quadrics; inside, the weak Lefschetz property
    is decided by the cycle structure (trees and a single odd cycle
    pass, a single even cycle or several cycles fail)."""
    if comp.dim != 1 or not comp.is_pure():
        raise ValueError("a graph is a pure 1-dimensional complex")
    if not presented_by_quadrics_combinatorial(comp):
        return GraphAlgebraClass.NOT_PRESENTED_BY_QUADRICS
    rank = len(comp.facets) - len(comp.vertices) + 1
    if rank == 0:
        return GraphAlgebraClass.TREE_WLP
    if rank > 1:
        return GraphAlgebraClass.MULTI_CYCLE_NO_WLP
    # Strip leaves until only the cycle is left.
    adj = _skeleton_adjacency(comp)
    leaves = [v for v, nbrs in adj.items() if len(nbrs) == 1]
    while leaves:
        v = leaves.pop()
        (w,) = adj.pop(v)
        adj[w].remove(v)
        if len(adj[w]) == 1:
            leaves.append(w)
    if len(adj) % 2 == 0:
        return GraphAlgebraClass.UNI_EVEN_NO_WLP
    return GraphAlgebraClass.UNI_ODD_WLP


# -- constructions ----------------------------------------------------------


_GROUP_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def turan_complex(orders: Sequence[int]) -> SimplicialComplex:
    """The complete multipartite complex: vertices split into groups of
    the given sizes and a facet picks one vertex from each group.

    A single group is allowed and yields a zero-dimensional complex
    (isolated vertices as facets), which the algebra constructors then
    reject; groups of one vertex are not, since such a vertex would lie
    in every facet."""
    if len(orders) < 1:
        raise ValueError("need at least one group")
    if len(orders) > len(_GROUP_LETTERS):
        raise ValueError("too many groups")
    if any(n < 2 for n in orders):
        raise ValueError("every group needs at least two vertices")
    groups = [
        tuple(f"{_GROUP_LETTERS[g]}{i + 1}" for i in range(n))
        for g, n in enumerate(orders)
    ]
    vertices = tuple(v for grp in groups for v in grp)
    facets = tuple(tuple(choice) for choice in product(*groups))
    return SimplicialComplex(vertices, facets)


def attach_leaf(comp: SimplicialComplex) -> SimplicialComplex:
    """Add one facet containing exactly one new vertex: the most recently
    grown facet with its first vertex swapped for a fresh vertex p1, p2,
    ..., so repeated growth yields a caterpillar tail.  The fresh vertex
    comes last in vertex order, so the new facet is in vertex order."""
    k = 1
    while f"p{k}" in comp.vertices:
        k += 1
    fresh = f"p{k}"
    return SimplicialComplex(
        comp.vertices + (fresh,), comp.facets + (comp.facets[-1][1:] + (fresh,),)
    )


def grow_with_leaves(comp: SimplicialComplex, count: int) -> SimplicialComplex:
    for _ in range(count):
        comp = attach_leaf(comp)
    return comp


def without_face(
    comp: SimplicialComplex, face: Iterable[str]
) -> SimplicialComplex:
    """The complex whose faces are those not containing the given face.

    Facets containing it are replaced by their maximal subsets that
    avoid it; everything else survives unchanged."""
    gone = frozenset(face)
    if not gone:
        raise ValueError("cannot delete the empty face")
    if not gone <= set(comp.vertices):
        raise ValueError(f"unknown vertex {min(gone - set(comp.vertices))!r}")
    candidates: list[tuple[str, ...]] = []
    for fac in comp.facets:
        if not gone <= set(fac):
            candidates.append(fac)
        else:
            candidates.extend(tuple(w for w in fac if w != v) for v in gone)
    order = {v: i for i, v in enumerate(comp.vertices)}
    candidates = sorted(
        (c for c in candidates if c), key=lambda c: [order[v] for v in c]
    )
    used = {v for c in candidates for v in c}
    return SimplicialComplex.from_facets(
        candidates, [v for v in comp.vertices if v in used]
    )


# -- the dual generator and its algebra -------------------------------------


def dual_generator(comp: SimplicialComplex) -> Polynomial:
    """The two-block generator of a pure covered complex of dimension
    at least one: sum over facets of (facet variable) times (product of
    vertex variables).  Facet variables are x1, x2, ... in facet order
    (block 0); vertex variables carry the vertex names prefixed with u
    (block 1)."""
    if not comp.is_pure():
        raise ValueError("complex must be pure")
    if comp.dim < 1:
        raise ValueError("complex must have dimension at least one")
    if not comp.is_covered():
        raise ValueError("every vertex must lie in a facet")
    for v in comp.vertices:
        if not _NAME_RE.match(v):
            raise ValueError(f"vertex name {v!r} is not an identifier")
    m = len(comp.facets)
    names = tuple(f"x{i + 1}" for i in range(m)) + tuple(
        f"u{v}" for v in comp.vertices
    )
    blocks = (0,) * m + (1,) * len(comp.vertices)
    vs = VarSet(names, blocks)
    vidx = {v: m + i for i, v in enumerate(comp.vertices)}
    terms: dict[tuple[int, ...], Fraction] = {}
    for i, fac in enumerate(comp.facets):
        e = [0] * vs.size
        e[i] = 1
        for v in fac:
            e[vidx[v]] = 1
        terms[tuple(e)] = Fraction(1)
    return Polynomial(vs, terms)


def hilbert_from_face_counts(comp: SimplicialComplex) -> tuple[int, ...]:
    """Hilbert function of the complex's algebra from face counts alone:
    in middle degrees k the dimension is (number of k-vertex faces) +
    (number of (d-k)-vertex faces), d the socle degree.  Serves as an
    independent oracle for the catalecticant ranks."""
    return _face_count_hilbert(comp, 0)


def alternate_hilbert_closed_form(comp: SimplicialComplex) -> tuple[int, ...]:
    """A shifted variant of the face-count formula that circulates for
    complete multipartite complexes, using faces of one vertex fewer on
    each side.  Kept callable so reports can show both values; the
    catalecticant rank is the ground truth and agrees with
    `hilbert_from_face_counts`, not with this variant, already for the
    three-group complex with two vertices per group."""
    return _face_count_hilbert(comp, 1)


def _face_count_hilbert(comp: SimplicialComplex, shift: int) -> tuple[int, ...]:
    """(1, c(1) + c(d-1), ..., c(d-1) + c(1), 1) with c(k) the number of
    (k - shift)-vertex faces and d the socle degree."""
    d = comp.dim + 2
    e = comp.face_counts()

    def count(k: int) -> int:
        k -= shift
        return e[k] if 0 <= k < len(e) else 0

    return (1, *(count(k) + count(d - k) for k in range(1, d)), 1)


def incidence_gradient_matrix(comp: SimplicialComplex) -> MixedHessian:
    """Vertex-by-edge matrix read off a graph, a pure 1-dimensional
    complex: the (v, e) entry is the variable of the other endpoint
    when v lies on e, else zero, and only the former are stored.

    Built without the algebra, it must coincide with the bigraded
    Hessian block of bidegrees ((0, 1), (1, 0)) of the edge algebra,
    which is the dual-route check the tests perform."""
    if comp.dim != 1:
        raise ValueError("a graph is a pure 1-dimensional complex")
    f = dual_generator(comp)
    vs = f.varset
    m = len(comp.facets)
    vidx = {v: m + i for i, v in enumerate(comp.vertices)}

    def var_poly(index: int) -> Polynomial:
        return Polynomial(vs, {_unit(vs.size, index): Fraction(1)})

    cells = tuple(
        {
            j: var_poly(vidx[b if v == a else a])
            for j, (a, b) in enumerate(comp.facets)
            if v in (a, b)
        }
        for v in comp.vertices
    )
    return MixedHessian(
        vs,
        cells,
        tuple(_unit(vs.size, vidx[v]) for v in comp.vertices),
        tuple(_unit(vs.size, i) for i in range(m)),
        "bigraded",
        ((0, 1), (1, 0)),
    )


# -- combinatorial quadric presentation -------------------------------------


def is_facet_connected(comp: SimplicialComplex) -> bool:
    """Whether any two facets are linked by a chain of facets in which
    consecutive ones each have exactly one vertex outside the other."""
    sets = [frozenset(f) for f in comp.facets]
    if not sets:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(sets)):
            if j not in seen and len(sets[i] - sets[j]) == 1 == len(sets[j] - sets[i]):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(sets)


def _skeleton_adjacency(comp: SimplicialComplex) -> dict[str, set[str]]:
    """Neighbours of each vertex in the 1-skeleton."""
    adj: dict[str, set[str]] = {v: set() for v in comp.vertices}
    for fac in comp.facets:
        for a, b in combinations(fac, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def is_flag(comp: SimplicialComplex) -> bool:
    """Whether the complex is determined by its edges: every set of
    pairwise adjacent vertices must be a face.  By induction on the size
    of such a clique, that holds exactly when no face (the empty face
    included) extends to a non-face by a vertex adjacent to all of its
    vertices."""
    adj = _skeleton_adjacency(comp)
    faces = comp.faces()
    return all(
        face | {w} in faces
        for face in faces
        for w in set(comp.vertices).intersection(*(adj[v] for v in face))
    )


def presented_by_quadrics_combinatorial(comp: SimplicialComplex) -> bool:
    """Combinatorial route to the quadric-presentation question for the
    edge-and-facet algebra: flag plus facet-connected."""
    return is_flag(comp) and is_facet_connected(comp)


def detect_complete_multipartite(
    comp: SimplicialComplex,
) -> tuple[tuple[str, ...], ...] | None:
    """Recognize a complete multipartite complex and return its groups.

    Two vertices of such a complex share a group exactly when their
    1-skeleton neighbourhoods are equal, so the candidate groups collect
    the vertices by neighbourhood, in vertex order; the complex
    qualifies when there is one group per facet vertex and the facets
    are exactly the transversals of the groups.  Returns None
    otherwise."""
    if not comp.is_pure():
        return None
    adj = _skeleton_adjacency(comp)
    by_nbhd: dict[frozenset[str], list[str]] = {}
    for v in comp.vertices:
        by_nbhd.setdefault(frozenset(adj[v]), []).append(v)
    groups = tuple(tuple(grp) for grp in by_nbhd.values())
    if len(groups) != comp.dim + 1:
        return None
    transversals = {frozenset(choice) for choice in product(*groups)}
    if {frozenset(f) for f in comp.facets} != transversals:
        return None
    return groups


# -- non-injectivity certificate for complete multipartite complexes --------


class NoninjectivityWitness(NamedTuple):
    """Exact certificate that multiplication A_1 -> A_2 by any linear
    form fails to have full rank.

    syzygy lists one polynomial per facet row of the bigraded Hessian
    block; their row combination vanishes identically, which caps the
    rank of the facet rows one below their count at every point.  When
    that cap plus the vertex row count stays below the full rank the
    weak Lefschetz property is excluded outright.  grid_pairs records
    the two chosen vertices per group that support the syzygy."""

    grid_pairs: tuple[tuple[str, str], ...]
    block: MixedHessian
    syzygy: tuple[Polynomial, ...]
    block_rank: RankCertificate
    step: tuple[int, int]
    step_rank_bound: int
    step_full_rank: int
    wlp_excluded: bool
    notes: tuple[str, ...] = ()


def grid_noninjectivity_witness(
    comp: SimplicialComplex,
    pairs: Sequence[tuple[str, str]],
    config: SamplingConfig,
    alg: GradedAlgebra,
) -> NoninjectivityWitness:
    """Syzygy certificate for any pure complex containing a full grid:
    one distinguished pair of vertices per group, with every transversal
    of the pairs a facet.  `alg` is the algebra of comp's dual generator.

    A transversal facet picks one vertex from each pair; its syzygy
    coefficient is the product of the *unpicked* vertex variables,
    signed by the parity of the picks; all other facets get zero.  The
    row combination of the ((1,0), (0,d-2)) Hessian block vanishes
    because each column monomial pairs the transversals in cancelling
    couples.  The identity is verified by exact polynomial arithmetic
    here.  The block's rank certificate is `generic_rank`'s, exact once
    a sampled rank meets the torus-slice bound rank(C).  That bound
    never exceeds the cap: the slice variables of a dual generator are
    facet variables, so on the slice every vertex variable is 1, the
    syzygy is a nonzero constant vector, and it kills the rows of C."""
    pairs = tuple((str(a), str(b)) for a, b in pairs)
    flat = [v for p in pairs for v in p]
    if len(set(flat)) != len(flat):
        raise ValueError("grid pairs overlap")
    if len(pairs) != comp.dim + 1:
        raise ValueError("need one pair per facet vertex")
    grid = {frozenset(choice): choice for choice in product(*pairs)}
    facet_sets = {frozenset(f) for f in comp.facets}
    for key, choice in grid.items():
        if key not in facet_sets:
            raise ValueError(
                f"grid transversal {choice!r} is not a facet"
            )
    d = alg.socle_degree
    block = bigraded_hessian(alg, (1, 0), (0, d - 2))

    m = len(comp.facets)
    vs = alg.f.varset
    uindex = {v: m + i for i, v in enumerate(comp.vertices)}

    syzygy = []
    for mono in block.row_basis:
        choice = grid.get(frozenset(comp.facets[mono.index(1)]))
        if choice is None:
            syzygy.append(Polynomial.zero(vs))
            continue
        picks = [pair.index(v) for pair, v in zip(pairs, choice)]
        e = [0] * vs.size
        for pair, p in zip(pairs, picks):
            e[uindex[pair[1 - p]]] = 1
        sign = Fraction(-1 if sum(picks) % 2 else 1)
        syzygy.append(Polynomial(vs, {tuple(e): sign}))

    sums: dict[int, Polynomial] = {}
    for s, row in zip(syzygy, block.cells):
        if not s.is_zero():
            for j, p in row.items():
                sums[j] = sums[j] + s * p if j in sums else s * p
    for j in sorted(sums):
        if not sums[j].is_zero():
            raise InvariantViolation(
                "syzygy fails on column "
                f"{Polynomial(vs, {block.col_basis[j]: 1}).text()}"
            )

    cert = generic_rank(block, config)
    notes: list[str] = []
    cap = block.nrows - 1
    if cert.rank > cap:
        raise InvariantViolation(
            "sampled rank exceeds the cap the syzygy imposes"
        )
    elif cert.rank < cap and not cert.is_exact:
        notes.append(
            "sampling stayed below the syzygy cap; the block rank "
            "certificate is conservative"
        )

    h = alg.hilbert
    vertex_rows = sum(vs.bidegree_of(e) == (0, 1) for e in alg.quotient_basis(1))
    bound = cap + vertex_rows
    full = min(h[1], h[2])
    return NoninjectivityWitness(
        pairs,
        block,
        tuple(syzygy),
        cert,
        (1, 2),
        bound,
        full,
        bound < full,
        tuple(notes),
    )


def grid_pairs_for(groups: Sequence[Sequence[str]]) -> tuple[tuple[str, str], ...]:
    """The first two vertices of every group, the default grid."""
    for grp in groups:
        if len(grp) < 2:
            raise ValueError(f"group {tuple(grp)!r} has fewer than two vertices")
    return tuple((grp[0], grp[1]) for grp in groups)
