import dataclasses
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from graphflock import graphs
from graphflock.equilibrium import build_kernel
from graphflock.errors import GenerationError, ParameterError
from graphflock.graphs import (
    Graph,
    build_graph,
    complete,
    cycle,
    edge_list_graph,
    erdos_renyi,
    graph_distances,
    graph_spec,
    random_regular,
    read_edge_list,
    torus,
)
from graphflock.spectral import laplacian_eigensystem
from graphflock.strategies import equilibrium_profile, mf_profile, nash_audit


def path_graph(n):
    return edge_list_graph([(i, i + 1) for i in range(n - 1)], one_based=False)


class TestConstructors:
    def test_complete_degrees(self):
        g = complete(5)
        assert g.n == 5
        assert (g.degrees == 4).all()
        assert laplacian_eigensystem(g).closed_form

    def test_cycle_edges(self):
        g = cycle(4)
        assert (g.degrees == 2).all()
        edges = {(u, v) for u in range(4) for v in range(u + 1, 4) if g.adjacency[u, v]}
        assert edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_torus_3_2(self):
        g = torus(3, 2)
        assert g.n == 9
        assert (g.degrees == 4).all()

    def test_torus_dim1_is_cycle(self):
        g = torus(5, 1)
        assert np.array_equal(g.adjacency, cycle(5).adjacency)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: complete(1),
            lambda: cycle(2),
            lambda: torus(2, 2),
            lambda: torus(3, 0),
            lambda: erdos_renyi(5, 1.5, seed=0),
            lambda: erdos_renyi(5, 0.5, seed=None),
            lambda: random_regular(5, 3, seed=0),  # n*d odd
            lambda: random_regular(5, 5, seed=0),  # d >= n
        ],
    )
    def test_parameter_errors(self, builder):
        with pytest.raises(ParameterError):
            builder()

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(40, 0.3, seed=11)
        b = erdos_renyi(40, 0.3, seed=11)
        c = erdos_renyi(40, 0.3, seed=12)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert not np.array_equal(a.adjacency, c.adjacency)

    def test_random_regular_simple_and_deterministic(self):
        g = random_regular(10, 3, seed=1)
        assert (g.degrees == 3).all()
        assert np.trace(g.adjacency) == 0
        again = random_regular(10, 3, seed=1)
        assert np.array_equal(g.adjacency, again.adjacency)

    def test_random_regular_unchanged_where_pairing_succeeds(self):
        g = random_regular(12, 3, seed=2)
        edges = [tuple(map(int, e)) for e in np.argwhere(np.triu(g.adjacency))]
        assert edges == [
            (0, 6), (0, 8), (0, 9), (1, 4), (1, 7), (1, 8), (2, 4), (2, 7), (2, 11),
            (3, 5), (3, 9), (3, 10), (4, 5), (5, 8), (6, 10), (6, 11), (7, 11), (9, 10),
        ]

    @pytest.mark.parametrize("d", [8, 10, 20])
    def test_random_regular_high_degree(self, d):
        # A simple pairing is too rare here; the last one is repaired by switches.
        g = random_regular(200, d, seed=3)
        assert (g.degrees == d).all()
        assert np.trace(g.adjacency) == 0
        assert np.array_equal(g.adjacency, random_regular(200, d, seed=3).adjacency)
        assert not np.array_equal(g.adjacency, random_regular(200, d, seed=4).adjacency)

    def test_random_regular_retry_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "PAIRING_RETRY_CAP", 0)
        with pytest.raises(GenerationError, match="0 attempts"):
            random_regular(10, 3, seed=1)

    def test_handshake_identity(self):
        for g in (complete(6), cycle(7), torus(3, 2), erdos_renyi(25, 0.2, seed=3),
                  random_regular(12, 3, seed=2)):
            assert g.degrees.sum() == 2 * g.edge_count

    @pytest.mark.parametrize("build", [lambda: complete(4), lambda: cycle(5), lambda: torus(3, 2)])
    def test_constructors_carry_their_spectrum(self, build):
        # The closed form travels with a pickled graph; a graph rebuilt from its lists has none.
        g = build()
        closed = laplacian_eigensystem(g).eigenvalues
        copy = pickle.loads(pickle.dumps(g))
        assert laplacian_eigensystem(copy).closed_form
        assert np.array_equal(laplacian_eigensystem(copy).eigenvalues, closed)
        rebuilt = laplacian_eigensystem(dataclasses.replace(g))
        assert not rebuilt.closed_form
        assert np.abs(rebuilt.eigenvalues - closed).max() < 1e-12

    def test_adjacency_is_frozen(self):
        g = complete(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0


def edge_keys_sha256(g):
    """sha256 of the sorted keys u * n + v of the edges u < v, as little-endian int64."""
    rows = g.rows
    return hashlib.sha256((rows * g.n + g.indices)[rows < g.indices].astype("<i8").tobytes()).hexdigest()


class TestNeighborLists:
    def test_torus_lists_hold_the_lattice_neighbors(self):
        g = torus(3, 2)  # vertex x + 3 y
        assert g.indptr.tolist() == list(range(0, 37, 4))
        for v in range(g.n):
            x, y = v % 3, v // 3
            lattice = {(x + 1) % 3 + 3 * y, (x - 1) % 3 + 3 * y, x + 3 * ((y + 1) % 3), x + 3 * ((y - 1) % 3)}
            assert g.neighbors(v).tolist() == sorted(lattice)

    @pytest.mark.parametrize(
        "n,indptr,indices,problem",
        [
            (3, [0, 1, 2, 2], [1, 3], "vertices 0..2"),  # a neighbor out of range
            (2, [0, 2, 3], [0, 1, 0], "no self-loops"),
            (3, [0, 2, 3, 4], [1, 1, 0, 0], "strictly increasing"),  # a repeated edge
            (3, [0, 2, 3, 4], [2, 1, 0, 0], "strictly increasing"),  # an unsorted list
            (3, [0, 1, 2, 3], [1, 2, 0], "symmetric"),  # a directed triangle
            (3, [0, 1, 2], [1, 0], "3 + 1 entries|4 entries"),
            (2, [0, 2, 1], [1, 0], "rise from 0"),
        ],
    )
    def test_malformed_lists_rejected(self, n, indptr, indices, problem):
        with pytest.raises(ParameterError, match=problem):
            Graph(n, np.array(indptr), np.array(indices), "edge_list", {"n": n})

    def test_arrays_are_frozen(self):
        g = cycle(5)
        for a in (g.indptr, g.indices, g.degrees):
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize(
        "build,digest",
        [
            (lambda: erdos_renyi(100, 0.1, seed=1), "97e1eeea310313f621af097cb12a9cd328f269bc427fd14cb4ca3b5102dab6aa"),
            (lambda: random_regular(1000, 3, seed=1), "9f8c4776fdde0c2ebb519326d29d820e6c8668202cbab8a1dbe612c2930e0318"),
            # these two need the double-edge switch repair
            (lambda: random_regular(200, 8, seed=3), "7864db9409e6b079ddcbef38ef17f7fbe03091a76e00697af3a9b2c70354628a"),
            (lambda: random_regular(200, 20, seed=3), "85a498479e4a3dd560991999b47918213c8654e0a620a64937396c14ef7f1e8c"),
        ],
        ids=["er100", "rr1000_3", "rr200_8", "rr200_20"],
    )
    def test_seeds_give_pinned_graphs(self, build, digest):
        assert edge_keys_sha256(build()) == digest

    def test_million_vertex_cycle_builds_in_linear_memory(self):
        # A dense n x n adjacency would need 10^12 bytes here.
        tracemalloc.start()
        try:
            g = build_graph({"kind": "cycle", "n": 10**6})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 10**6 and (g.degrees == 2).all()
        assert peak < 128 * 10**6  # 128 bytes per vertex; about 90 are used

    def test_erdos_renyi_draws_pairs_a_block_at_a_time(self):
        # 4.5 million pairs: their uniforms drawn at once would take 36 MB,
        # and (row, col) index arrays for them 72 MB more.
        tracemalloc.start()
        try:
            g = erdos_renyi(3000, 0.001, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0
        assert peak < 32 * 2**20

    def test_erdos_renyi_blocks_keep_the_stream(self):
        # 1500 vertices have 1.1 million pairs, more than one block of rows.
        n, p = 1500, 0.01
        rows, cols = np.triu_indices(n, k=1)
        hits = graphs.philox(4).random(rows.size) < p
        g = erdos_renyi(n, p, seed=4)
        upper = g.rows < g.indices
        assert np.array_equal(g.rows[upper] * n + g.indices[upper], (rows * n + cols)[hits])

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    def test_no_dense_adjacency_is_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the dense adjacency was built")

        irregular = erdos_renyi(30, 0.2, seed=2)
        monkeypatch.setattr(Graph, "adjacency", property(refuse))
        for g in (cycle(12), torus(4, 2)):
            k = build_kernel(g, 1.0, 1.0, 1.0)
            x0 = np.linspace(-1.0, 1.0, g.n)
            assert nash_audit(g, equilibrium_profile(k), 1.0, 1.0, x0=x0, steps=200)["all_satisfied"]
            assert nash_audit(g, mf_profile(g, 1.0, 1.0), 1.0, 1.0, x0=x0, steps=200)["all_satisfied"]
            assert laplacian_eigensystem(g).eigenvectors.shape == (g.n, g.n)
            assert graph_distances(g, 0).max() == {12: 6, 16: 4}[g.n]
        assert laplacian_eigensystem(irregular).eigenvectors.shape == (30, 30)


class TestEdgeLists:
    def test_one_based_conversion(self):
        g = edge_list_graph([(1, 2), (2, 3)])
        assert g.n == 3
        assert g.adjacency[0, 1] == 1 and g.adjacency[1, 2] == 1 and g.adjacency[0, 2] == 0

    def test_explicit_n_allows_isolated(self):
        g = edge_list_graph([(1, 2)], n=3)
        assert g.degrees.tolist() == [1, 1, 0]

    def test_invalid_vertex(self):
        with pytest.raises(ParameterError):
            edge_list_graph([(1, 5)], n=3)

    def test_label_below_the_first_vertex(self):
        with pytest.raises(ParameterError, match="^edge_list vertex label 0 is not an integer >= 1"):
            edge_list_graph([(0, 2)], n=3)
        with pytest.raises(ParameterError, match="^edge_list vertex label -1 is not an integer >= 0"):
            edge_list_graph([(-1, 2)], n=3, one_based=False)

    def test_numpy_integer_labels(self):
        g = edge_list_graph([(np.int64(1), np.int32(2)), (np.uint8(2), 3)])
        assert np.array_equal(g.adjacency, edge_list_graph([(1, 2), (2, 3)]).adjacency)

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            edge_list_graph([(2, 2)])

    def test_read_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a square\n1 2\n2 3  # right side\n3 4\n4 1\n")
        g = read_edge_list(path)
        assert np.array_equal(g.adjacency, cycle(4).adjacency)

    def test_read_edge_list_rejects_zero_based(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ParameterError):
            read_edge_list(path)

    def test_build_graph_specs(self):
        assert build_graph({"kind": "complete", "n": 4}).n == 4
        assert build_graph({"kind": "torus", "side": 3, "d": 2}).n == 9
        g = build_graph({"kind": "edge_list", "edges": [[1, 2], [3, 4]]})
        assert g.n == 4
        with pytest.raises(ParameterError):
            build_graph({"kind": "moebius", "n": 4})
        with pytest.raises(ParameterError):
            build_graph("complete:4")

    def test_text_and_dict_specs_agree(self):
        assert graph_spec("torus:4,2") == graph_spec({"kind": "torus", "side": "4", "d": 2}) == {
            "kind": "torus",
            "side": 4,
            "d": 2,
        }
        assert graph_spec("er:50,0.3", seed=7) == {"kind": "erdos_renyi", "n": 50, "p": 0.3, "seed": 7}
        assert graph_spec({"kind": "random_regular", "n": 8, "d": 3, "seed": 2}, seed=7)["seed"] == 2
        assert graph_spec("edgelist:a, b.txt") == {"kind": "edge_list", "path": "a, b.txt"}

    @pytest.mark.parametrize(
        "spec",
        [
            "cycle:10.7",
            "cycle:10,7",
            "torus:3",
            "edge_list",
            {"kind": "cycle"},
            {"kind": "cycle", "n": 10.7},
            {"kind": "cycle", "n": True},
            {"kind": "cycle", "n": 10, "seed": 3},
            {"kind": "edge_list", "edges": [[1, 2], [2]]},
            {"kind": "edge_list", "edges": [[1, 2.5]]},
            {"kind": "edge_list", "path": "g.txt", "n": 3},
            {"kind": "er", "n": 10, "p": 0.5},
        ],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(ParameterError, match="graph"):
            graph_spec(spec)
        if isinstance(spec, dict):
            with pytest.raises(ParameterError):
                build_graph(spec)

    def test_random_kind_needs_a_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            build_graph(graph_spec("erdos_renyi:10,0.5"))
        assert build_graph(graph_spec("erdos_renyi:10,0.5", seed=3)).params["seed"] == 3


class TestDistances:
    def test_cycle_distances(self):
        assert graph_distances(cycle(6), 0).tolist() == [0, 1, 2, 3, 2, 1]

    def test_complete_distances(self):
        assert graph_distances(complete(4), 1).tolist() == [1, 0, 1, 1]

    def test_disconnected_infinite(self):
        g = edge_list_graph([(1, 2), (3, 4)])
        d = graph_distances(g, 0)
        assert d[1] == 1
        assert math.isinf(d[2]) and math.isinf(d[3])

    def test_invalid_source(self):
        for source in (7, -1, 1.5, True):
            with pytest.raises(ParameterError):
                graph_distances(cycle(4), source)

    def test_long_cycle_in_linear_time(self):
        # 500,000 BFS levels, so a loop with one round of numpy calls per level takes seconds.
        assert graph_distances(cycle(10**6), 0).max() == 500000

    def test_matches_breadth_first_search(self):
        # A sparse ER graph, so some vertices are unreachable.
        g = erdos_renyi(40, 0.04, seed=3)
        for source in range(0, g.n, 3):
            dist = [math.inf] * g.n
            dist[source], queue = 0, [source]
            for u in queue:
                for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
                    if math.isinf(dist[v]):
                        dist[v] = dist[u] + 1
                        queue.append(v)
            assert graph_distances(g, source).tolist() == dist

    def test_triangle_inequality(self):
        g = erdos_renyi(18, 0.25, seed=5)
        dists = np.array([graph_distances(g, s) for s in range(g.n)])
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert dists[u, v] <= dists[u, w] + dists[w, v] + 1e-12

    def test_diameters(self):
        for n in (4, 7):
            assert max(graph_distances(complete(n), 0)) == 1
        for n in (5, 8):
            assert max(graph_distances(cycle(n), 0)) == n // 2


class TestDegreeStats:
    def test_torus(self):
        g = torus(3, 2)
        assert (g.min_degree, int(g.degrees.max()), g.is_regular, int(g.degrees[0])) == (4, 4, True, 4)

    def test_path(self):
        g = path_graph(3)
        assert (g.min_degree, int(g.degrees.max()), g.is_regular) == (1, 2, False)

    def test_complete(self):
        g = complete(7)
        assert (g.min_degree, int(g.degrees.max()), g.is_regular) == (6, 6, True)


def test_determinism_across_builds():
    spec = {"kind": "random_regular", "n": 16, "d": 3, "seed": 9}
    assert np.array_equal(build_graph(spec).adjacency, build_graph(spec).adjacency)
