"""Simplicial complexes, facet algebras, graphs, and grid certificates."""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from mixedhess import (
    GraphAlgebraClass,
    InvariantViolation,
    Polynomial,
    SimplicialComplex,
    alternate_hilbert_closed_form,
    attach_leaf,
    build_algebra,
    classify_graph_algebra,
    detect_complete_multipartite,
    dual_generator,
    ann_generated_by_quadrics,
    grid_noninjectivity_witness,
    grid_pairs_for,
    hilbert_from_face_counts,
    is_facet_connected,
    is_flag,
    presented_by_quadrics_combinatorial,
    symbolic_det,
    turan_complex,
    wlp_check,
    without_face,
)
from mixedhess.complexes import incidence_gradient_matrix
from mixedhess.hessians import bigraded_hessian
from mixedhess.linalg import matrix_rank

from conftest import (
    atlas_graph_complex,
    connected_triangle_free_graphs,
    graph_complex,
    random_unicyclic_graph,
)


def _square_graph():
    return graph_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _cycle_graph(n):
    return graph_complex(n, [(i, (i + 1) % n) for i in range(n)])


def _path_graph(n):
    return graph_complex(n, [(i, i + 1) for i in range(n - 1)])


# -- complexes and face counts ------------------------------------------------


def test_from_facets_and_face_counts():
    comp = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
    assert comp.dim == 1
    assert comp.is_pure()
    assert comp.face_counts() == (1, 3, 2)


def test_from_facets_given_vertices_fix_the_order():
    comp = SimplicialComplex.from_facets(
        [["b", "a"], ["a"], ["c", "b"], ["a", "b"]], ["c", "b", "a", "d"]
    )
    assert comp == (("c", "b", "a", "d"), (("b", "a"), ("c", "b")))
    assert not comp.is_covered()
    with pytest.raises(ValueError, match="facet uses unknown vertex 'z'"):
        SimplicialComplex.from_facets([["a", "z"]], ["a", "b"])


def test_turan_face_counts_match_elementary_symmetric():
    for orders in itertools.chain.from_iterable(
        itertools.combinations_with_replacement((2, 3), r) for r in (1, 2, 3)
    ):
        comp = turan_complex(orders)
        counts = comp.face_counts()
        for k in range(len(orders) + 1):
            sym = sum(
                math.prod(combo)
                for combo in itertools.combinations(orders, k)
            )
            assert counts[k] == sym, (orders, k)


def test_turan_bounds():
    with pytest.raises(ValueError):
        turan_complex(())
    with pytest.raises(ValueError):
        turan_complex((2, 1))
    single = turan_complex((3,))
    assert single.dim == 0
    assert len(single.facets) == 3


def test_attach_leaf_swaps_the_first_vertex_of_the_last_facet():
    comp = turan_complex((2, 2))
    grown = attach_leaf(comp)
    assert grown.vertices == comp.vertices + ("p1",)
    assert grown.facets == comp.facets + (("b2", "p1"),)
    assert attach_leaf(grown).facets[-1] == ("p1", "p2")


def test_without_face_keeps_lower_faces():
    comp = turan_complex((2, 2))
    cut = without_face(comp, ("a1", "b1"))
    # the loose endpoints stay covered by the three remaining edges
    assert len(cut.facets) == 3
    assert set(cut.vertices) == set(comp.vertices)
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        without_face(comp, ("a1", "zz"))
    with pytest.raises(ValueError, match="empty face"):
        without_face(comp, ())


# -- dual generators and Hilbert oracles -------------------------------------


def test_dual_generator_square_matches_catalog(catalog):
    comp = _square_graph()
    f = dual_generator(comp)
    alg = build_algebra(f)
    assert alg.hilbert == (1, 8, 8, 1)


def test_hilbert_from_face_counts_is_exact():
    for orders in ((2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)):
        comp = turan_complex(orders)
        alg = build_algebra(dual_generator(comp))
        assert hilbert_from_face_counts(comp) == alg.hilbert


def test_turan_222_hilbert_and_alternate_form():
    comp = turan_complex((2, 2, 2))
    assert hilbert_from_face_counts(comp) == (1, 14, 24, 14, 1)
    assert alternate_hilbert_closed_form(comp) == (1, 13, 12, 13, 1)


def test_turan_223_hilbert():
    comp = turan_complex((2, 2, 3))
    assert hilbert_from_face_counts(comp) == (1, 19, 32, 19, 1)
    # removing a whole vertex shrinks the third group back to two
    assert hilbert_from_face_counts(without_face(comp, ("c3",))) == (
        1, 14, 24, 14, 1,
    )
    # removing one cross edge keeps all seven vertices and ten facets
    cut = without_face(comp, ("a1", "c3"))
    assert len(cut.vertices) == 7
    assert len(cut.facets) == 10
    assert cut.face_counts()[2] == 15  # edges
    assert hilbert_from_face_counts(cut) == (1, 17, 30, 17, 1)


# -- flagness, connectivity, quadrics ----------------------------------------


def test_flag_and_connectivity():
    assert is_flag(turan_complex((2, 2, 2)))
    assert is_facet_connected(turan_complex((2, 2, 2)))
    hollow = _cycle_graph(3)
    assert not is_flag(hollow)
    two_parts = SimplicialComplex.from_facets([("a", "b"), ("c", "d")])
    assert not is_facet_connected(two_parts)


@pytest.mark.parametrize(
    "facets, connected",
    [
        ([("c",), ("a", "b")], False),
        ([("a", "b"), ("c",)], False),
        ([("a", "b"), ("b", "c")], True),
        ([("b", "c"), ("a", "b")], True),
        ([("a", "b", "c"), ("b", "c", "d"), ("d", "e")], False),
        ([("d", "e"), ("a", "b", "c"), ("b", "c", "d")], False),
    ],
)
def test_facet_connectivity_does_not_depend_on_facet_order(facets, connected):
    # Facets are adjacent when each has exactly one vertex outside the
    # other, so facets of different sizes never are.
    comp = SimplicialComplex.from_facets(facets)
    assert is_facet_connected(comp) == connected


def test_combinatorial_equals_algebraic_quadrics():
    cases = [
        _square_graph(),
        _cycle_graph(3),  # not flag
        _cycle_graph(5),
        _path_graph(4),
        SimplicialComplex.from_facets([("a", "b"), ("c", "d")]),  # split
        turan_complex((2, 2, 2)),
        without_face(turan_complex((2, 2, 3)), ("c3",)),
    ]
    for comp in cases:
        combinatorial = presented_by_quadrics_combinatorial(comp)
        alg = build_algebra(dual_generator(comp))
        algebraic = ann_generated_by_quadrics(alg).presented
        assert combinatorial == algebraic, comp.facets


# -- graph classification -----------------------------------------------------


def test_classification_outcomes():
    k3 = _cycle_graph(3)
    assert (
        classify_graph_algebra(k3)
        is GraphAlgebraClass.NOT_PRESENTED_BY_QUADRICS
    )
    assert classify_graph_algebra(_path_graph(4)) is GraphAlgebraClass.TREE_WLP
    assert (
        classify_graph_algebra(_cycle_graph(5)) is GraphAlgebraClass.UNI_ODD_WLP
    )
    assert (
        classify_graph_algebra(_square_graph())
        is GraphAlgebraClass.UNI_EVEN_NO_WLP
    )
    two_squares = graph_complex(
        7,
        [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6)],
    )
    assert (
        classify_graph_algebra(two_squares)
        is GraphAlgebraClass.MULTI_CYCLE_NO_WLP
    )


def test_graph_functions_need_a_graph():
    with pytest.raises(ValueError):
        classify_graph_algebra(turan_complex((2, 2, 2)))
    with pytest.raises(ValueError):
        incidence_gradient_matrix(turan_complex((2, 2, 2)))
    with pytest.raises(ValueError):
        classify_graph_algebra(SimplicialComplex.from_facets([("a", "b"), ("c",)]))


def _networkx_class(g) -> GraphAlgebraClass:
    """The class of a graph read with networkx alone."""
    import networkx as nx

    if not nx.is_connected(g) or any(nx.triangles(g).values()):
        return GraphAlgebraClass.NOT_PRESENTED_BY_QUADRICS
    rank = g.number_of_edges() - g.number_of_nodes() + 1
    if rank == 0:
        return GraphAlgebraClass.TREE_WLP
    if rank > 1:
        return GraphAlgebraClass.MULTI_CYCLE_NO_WLP
    (cycle,) = nx.cycle_basis(g)
    if len(cycle) % 2 == 0:
        return GraphAlgebraClass.UNI_EVEN_NO_WLP
    return GraphAlgebraClass.UNI_ODD_WLP


def test_classifier_matches_networkx_on_the_atlas():
    # Every graph with an edge on at most 7 vertices, the disconnected
    # ones, those with triangles and those with isolated vertices included.
    import networkx as nx

    graphs = [g for g in nx.graph_atlas_g() if g.number_of_edges()]
    assert len(graphs) == 1245
    seen = set()
    for g in graphs:
        cls = classify_graph_algebra(atlas_graph_complex(g))
        assert cls is _networkx_class(g), sorted(g.edges())
        seen.add(cls)
    assert seen == set(GraphAlgebraClass)


def test_class_predictions():
    assert GraphAlgebraClass.TREE_WLP.predicts_wlp is True
    assert GraphAlgebraClass.UNI_ODD_WLP.predicts_wlp is True
    assert GraphAlgebraClass.UNI_EVEN_NO_WLP.predicts_wlp is False
    assert GraphAlgebraClass.MULTI_CYCLE_NO_WLP.predicts_wlp is False
    assert GraphAlgebraClass.NOT_PRESENTED_BY_QUADRICS.predicts_wlp is None


def test_classifier_agrees_with_wlp_on_small_sample(config):
    rng = random.Random(31)
    graphs = connected_triangle_free_graphs(5)
    for graph in graphs:
        cls = classify_graph_algebra(graph)
        assert cls.predicts_wlp is not None  # all are triangle-free
        alg = build_algebra(dual_generator(graph))
        verdict = wlp_check(alg, config)
        assert verdict.holds == cls.predicts_wlp, graph.facets


# -- incidence matrices -------------------------------------------------------


def test_incidence_matches_bigraded_block():
    for graph in (_square_graph(), _path_graph(3), _cycle_graph(5)):
        direct = incidence_gradient_matrix(graph)
        alg = build_algebra(dual_generator(graph))
        block = bigraded_hessian(alg, (0, 1), (1, 0))
        assert direct.shape == block.shape
        assert direct.cells == block.cells


def test_triangle_incidence_determinant():
    from mixedhess import parse_polynomial

    g = _cycle_graph(3)
    h = incidence_gradient_matrix(g)
    det = symbolic_det(h, cap=3)
    # twice the product of the three vertex variables, up to sign
    target = parse_polynomial("2*uv1*uv2*uv3", det.varset)
    assert det == target or det == target * Fraction(-1)


def test_unicyclic_determinant_dichotomy():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(3, 8)
        graph, cycle_length = random_unicyclic_graph(rng, n)
        h = incidence_gradient_matrix(graph)
        assert h.shape == (n, n)
        det = symbolic_det(h, cap=10)
        assert det.is_zero() == (cycle_length % 2 == 0)


def test_tree_incidence_full_edge_rank(config):
    rng = random.Random(43)
    for n in (3, 5, 7):
        graph, _ = random_unicyclic_graph(rng, n)
        # strip the chord: the first edge whose removal leaves the graph
        # covered and connected lies on the cycle, so a spanning tree is left
        spanning = next(
            tree
            for tree in (
                SimplicialComplex(
                    graph.vertices, tuple(e for e in graph.facets if e != chord)
                )
                for chord in graph.facets
            )
            if tree.is_covered() and is_facet_connected(tree)
        )
        h = incidence_gradient_matrix(spanning)
        # n vertices x (n - 1) edges; the edge columns stay independent
        from mixedhess import generic_rank

        cert = generic_rank(h, config)
        assert cert.rank == n - 1


# -- grid witnesses -----------------------------------------------------------


def test_square_grid_witness(config):
    comp = _square_graph()
    groups = detect_complete_multipartite(comp)
    assert groups is not None
    alg = build_algebra(dual_generator(comp))
    witness = grid_noninjectivity_witness(comp, grid_pairs_for(groups), config, alg)
    assert witness.wlp_excluded
    assert witness.step == (1, 2)
    assert witness.step_rank_bound == 7
    assert witness.step_full_rank == 8
    assert witness.block_rank.rank <= 3


def test_witness_survives_leaf_growth(config):
    comp = turan_complex((2, 2, 2))
    pairs = grid_pairs_for((("a1", "a2"), ("b1", "b2"), ("c1", "c2")))
    grown = attach_leaf(attach_leaf(comp))
    assert detect_complete_multipartite(grown) is None
    alg = build_algebra(dual_generator(grown))
    witness = grid_noninjectivity_witness(grown, pairs, config, alg)
    assert witness.wlp_excluded
    assert witness.step_rank_bound == witness.step_full_rank - 1


def test_witness_on_cut_turan(config):
    cut = without_face(turan_complex((2, 2, 3)), ("a1", "c3"))
    # no longer complete multipartite, but the grid on the first two
    # vertices of each group survives the cut
    assert detect_complete_multipartite(cut) is None
    pairs = grid_pairs_for((("a1", "a2"), ("b1", "b2"), ("c1", "c2")))
    alg = build_algebra(dual_generator(cut))
    witness = grid_noninjectivity_witness(cut, pairs, config, alg)
    assert witness.wlp_excluded
    assert witness.step_rank_bound == 16
    assert witness.step_full_rank == 17


def test_detect_on_vertex_deleted_turan():
    shrunk = without_face(turan_complex((2, 2, 3)), ("c3",))
    assert detect_complete_multipartite(shrunk) == (
        ("a1", "a2"),
        ("b1", "b2"),
        ("c1", "c2"),
    )


def test_detect_complete_multipartite_negatives():
    assert detect_complete_multipartite(_cycle_graph(5)) is None
    grown = attach_leaf(turan_complex((2, 2)))
    assert detect_complete_multipartite(grown) is None


@pytest.mark.parametrize(
    "pairs, message",
    [
        (
            (("a1", "a2"), ("a1", "b2"), ("c1", "c2")),
            "grid pairs overlap",
        ),
        ((("a1", "a2"), ("b1", "b2")), "need one pair per facet vertex"),
        (
            (("a1", "b1"), ("a2", "b2"), ("c1", "c2")),
            "grid transversal ('a1', 'a2', 'c1') is not a facet",
        ),
    ],
    ids=["overlap", "count", "transversal"],
)
def test_grid_witness_rejects_a_bad_grid(pairs, message, config):
    comp = turan_complex((2, 2, 2))
    alg = build_algebra(dual_generator(comp))
    with pytest.raises(ValueError, match=re.escape(message)):
        grid_noninjectivity_witness(comp, pairs, config, alg)


@pytest.mark.parametrize(
    "facet, column",
    [(0, "ua1*ub1"), (3, "ua1*ub2"), (5, "ua2*ub1"), (7, "ua2*ub2")],
)
def test_grid_witness_rejects_a_syzygy_that_fails(facet, column, config):
    # Doubling one facet's term doubles its row of the block, so the
    # syzygy fails on the columns of that facet's vertex pairs; the error
    # names the first of them in column order.
    comp = turan_complex((2, 2, 2))
    f = dual_generator(comp)
    terms = dict(f.terms)
    term = next(e for e in terms if e[facet])
    terms[term] *= 2
    alg = build_algebra(Polynomial(f.varset, terms))
    pairs = grid_pairs_for((("a1", "a2"), ("b1", "b2"), ("c1", "c2")))
    with pytest.raises(InvariantViolation) as err:
        grid_noninjectivity_witness(comp, pairs, config, alg)
    assert str(err.value) == f"syzygy fails on column {column}"


def test_grid_pairs_for_rejects_a_short_group():
    assert grid_pairs_for((("a", "b", "x"), ("c", "d"))) == (("a", "b"), ("c", "d"))
    with pytest.raises(ValueError, match=re.escape("group ('a',) has fewer")):
        grid_pairs_for((("a",), ("b", "c")))


def _skeleton_graph(comp):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(comp.vertices)
    for fac in comp.facets:
        graph.add_edges_from(itertools.combinations(fac, 2))
    return graph


def _oracle_is_flag(comp):
    """Every maximal clique of the 1-skeleton lies in a facet."""
    import networkx as nx

    facets = [set(fac) for fac in comp.facets]
    return all(
        any(set(clique) <= fac for fac in facets)
        for clique in nx.find_cliques(_skeleton_graph(comp))
    )


def _oracle_groups(comp):
    """The complement's components of the 1-skeleton, in vertex order,
    when their transversals are exactly the facets of a pure complex."""
    import networkx as nx

    order = {v: i for i, v in enumerate(comp.vertices)}
    groups = sorted(
        (
            tuple(sorted(part, key=order.__getitem__))
            for part in nx.connected_components(nx.complement(_skeleton_graph(comp)))
        ),
        key=lambda grp: order[grp[0]],
    )
    if not comp.is_pure() or len(groups) != comp.dim + 1:
        return None
    transversals = {frozenset(choice) for choice in itertools.product(*groups)}
    if {frozenset(fac) for fac in comp.facets} != transversals:
        return None
    return tuple(groups)


def _oracle_cases():
    import networkx as nx

    yield from (atlas_graph_complex(g) for g in nx.graph_atlas_g())
    rng = random.Random(23)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(3, 7))]
        yield SimplicialComplex.from_facets(
            rng.sample(names, 3) for _ in range(rng.randint(1, 8))
        )
    for _ in range(100):
        turan = turan_complex([rng.randint(2, 3) for _ in range(rng.randint(1, 4))])
        vertices = list(turan.vertices)
        facets = list(turan.facets)
        rng.shuffle(vertices)
        rng.shuffle(facets)
        yield SimplicialComplex.from_facets(facets, vertices)


def test_flag_and_multipartite_match_networkx_oracles():
    for comp in _oracle_cases():
        assert is_flag(comp) == _oracle_is_flag(comp), comp
        assert detect_complete_multipartite(comp) == _oracle_groups(comp), comp
    # The complex with no vertices and no facets: its only face, the
    # empty one, extends by no vertex, so it is flag.
    facetless = SimplicialComplex((), ())
    assert is_flag(facetless)
    assert not presented_by_quadrics_combinatorial(facetless)
    assert detect_complete_multipartite(facetless) is None


# -- enumeration oracle -------------------------------------------------------


def test_connected_triangle_free_counts():
    graphs = connected_triangle_free_graphs(7)
    by_size = {}
    for g in graphs:
        by_size[len(g.vertices)] = by_size.get(len(g.vertices), 0) + 1
    assert [by_size[n] for n in range(2, 8)] == [1, 1, 3, 6, 19, 59]


def test_euler_transform_consistency():
    """The connected counts determine the counts of all triangle-free
    graphs through the Euler transform; both sequences are pinned."""
    connected = [1, 1, 1, 3, 6, 19, 59]  # n = 1..7
    all_counts = [1, 2, 3, 7, 14, 38, 107]  # n = 1..7, possibly disconnected

    c = [0] * 8
    for n in range(1, 8):
        c[n] = sum(d * connected[d - 1] for d in range(1, n + 1) if n % d == 0)
    b = [0] * 8
    b[0] = 1
    for n in range(1, 8):
        b[n] = (
            c[n] + sum(c[k] * b[n - k] for k in range(1, n))
        ) // n
    assert b[1:8] == all_counts
