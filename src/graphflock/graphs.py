"""Construction and interrogation of the interaction graphs the game is played on.

Vertices are 0-based contiguous integers internally.  Edge-list files and
edge lists inside JSON graph specs are 1-based and converted on ingest.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, ParameterError

#: Number of pairing-model attempts before random_regular repairs the last one.
PAIRING_RETRY_CAP = 1000

#: Number of rejected double-edge switches before that repair gives up.
SWITCH_RETRY_CAP = 100_000

#: Default size limit for the brute-force automorphism search.
DEFAULT_TRANSITIVITY_MAX_N = 12

#: Distance reported for unreachable vertex pairs.
INFINITE_DISTANCE = math.inf


class Transitivity(str, enum.Enum):
    """Vertex-transitivity status attached to a graph.

    KNOWN comes from a constructor that guarantees transitivity
    (complete, cycle, torus).  VERIFIED/NOT_TRANSITIVE come from the
    brute-force check; UNKNOWN means nobody has decided yet.
    """

    KNOWN = "known_transitive"
    VERIFIED = "verified_transitive"
    NOT_TRANSITIVE = "not_transitive"
    UNKNOWN = "unknown"

    def is_transitive(self) -> bool:
        return self in (Transitivity.KNOWN, Transitivity.VERIFIED)


@dataclass(eq=False)
class Graph:
    """Simple undirected graph with construction provenance.

    adjacency is a dense symmetric 0/1 int8 matrix with zero diagonal;
    degrees[v] is the row sum.  Both arrays are frozen after construction.
    """

    n: int
    adjacency: np.ndarray
    degrees: np.ndarray
    construction: str
    params: dict = field(default_factory=dict)
    transitivity: Transitivity = Transitivity.UNKNOWN

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.int8)
        if adj.shape != (self.n, self.n):
            raise ParameterError(f"adjacency must be {self.n}x{self.n}, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ParameterError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ParameterError("adjacency must have zero diagonal (no self-loops)")
        if not np.isin(adj, (0, 1)).all():
            raise ParameterError("adjacency entries must be 0 or 1")
        degrees = adj.sum(axis=1, dtype=np.int64)
        if not np.array_equal(degrees, np.asarray(self.degrees, dtype=np.int64)):
            raise ParameterError("degrees must equal adjacency row sums")
        self.adjacency = adj
        self.degrees = degrees
        self.adjacency.setflags(write=False)
        self.degrees.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    @property
    def is_regular(self) -> bool:
        return self.n > 0 and int(self.degrees.min()) == int(self.degrees.max())

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min())

    def neighbors(self, v: int) -> np.ndarray:
        _check_vertex(self, v)
        return np.flatnonzero(self.adjacency[v])

    def has_isolated_vertices(self) -> bool:
        return bool((self.degrees == 0).any())

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return not np.isinf(graph_distances(self, 0)).any()

    def spec(self) -> dict:
        """JSON-able description of how this graph was constructed."""
        return {"kind": self.construction, **self.params}


def _check_vertex(g: Graph, v: int) -> None:
    if not isinstance(v, (int, np.integer)) or not (0 <= v < g.n):
        raise ParameterError(f"vertex {v!r} is not a valid index for a graph on {g.n} vertices")


def _make(adjacency, construction, params, transitivity=Transitivity.UNKNOWN) -> Graph:
    adjacency = np.asarray(adjacency, dtype=np.int8)
    return Graph(
        n=adjacency.shape[0],
        adjacency=adjacency,
        degrees=adjacency.sum(axis=1, dtype=np.int64),
        construction=construction,
        params=params,
        transitivity=transitivity,
    )


def complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise ParameterError(f"complete graph needs n >= 2, got {n}")
    adj = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    return _make(adj, "complete", {"n": n}, Transitivity.KNOWN)


def cycle(n: int) -> Graph:
    """Cycle graph on n >= 3 vertices."""
    if n < 3:
        raise ParameterError(f"cycle graph needs n >= 3, got {n}")
    adj = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = 1
    adj[(idx + 1) % n, idx] = 1
    return _make(adj, "cycle", {"n": n}, Transitivity.KNOWN)


def torus(side: int, d: int) -> Graph:
    """d-dimensional discrete torus with `side` vertices per axis.

    Vertices are lattice points of {0,..,side-1}^d with wrap-around
    adjacency along each axis; every vertex has degree 2d.
    """
    if side < 3:
        raise ParameterError(f"torus needs side >= 3, got {side}")
    if d < 1:
        raise ParameterError(f"torus needs d >= 1, got {d}")
    n = side**d
    adj = np.zeros((n, n), dtype=np.int8)
    strides = side ** np.arange(d)
    coords = (np.arange(n)[:, None] // strides[None, :]) % side
    for axis in range(d):
        shifted = coords.copy()
        shifted[:, axis] = (coords[:, axis] + 1) % side
        nbr = shifted @ strides
        adj[np.arange(n), nbr] = 1
        adj[nbr, np.arange(n)] = 1
    return _make(adj, "torus", {"side": side, "d": d}, Transitivity.KNOWN)


def philox_key(seed) -> int:
    """The seed as a Philox key; ParameterError unless it lies in [0, 2**128)."""
    key = int(seed)
    if not 0 <= key < 2**128:
        raise ParameterError(f"seed must be in [0, 2**128), got {key}")
    return key


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each unordered pair is an edge independently with
    probability p.

    Pairs are assigned uniforms in lexicographic order from a counter-based
    (Philox) stream, so the same seed reproduces the same graph everywhere.
    """
    if n < 1:
        raise ParameterError(f"erdos_renyi needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    if seed is None:
        raise ParameterError("erdos_renyi needs a seed")
    gen = np.random.Generator(np.random.Philox(key=philox_key(seed)))
    rows, cols = np.triu_indices(n, k=1)
    mask = gen.random(rows.size) < p
    adj = np.zeros((n, n), dtype=np.int8)
    adj[rows[mask], cols[mask]] = 1
    adj[cols[mask], rows[mask]] = 1
    return _make(adj, "erdos_renyi", {"n": n, "p": p, "seed": int(seed)})


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish random d-regular graph via the pairing (configuration)
    model with full rejection of self-loops and multi-edges.

    A simple pairing has probability about exp((1 - d^2)/4), so for larger
    d all PAIRING_RETRY_CAP attempts can fail.  The last pairing is then
    repaired by degree-preserving double-edge switches drawn from the same
    generator (_switch_to_simple).  Raises GenerationError if there is no
    pairing to repair or the repair gets stuck.
    """
    if n < 1:
        raise ParameterError(f"random_regular needs n >= 1, got {n}")
    if d >= n:
        raise ParameterError(f"random_regular needs d < n, got d={d}, n={n}")
    if d < 0:
        raise ParameterError(f"degree must be nonnegative, got {d}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d must be even, got n={n}, d={d}")
    if seed is None:
        raise ParameterError("random_regular needs a seed")
    gen = np.random.Generator(np.random.Philox(key=philox_key(seed)))
    stubs = np.repeat(np.arange(n), d)
    params = {"n": n, "d": d, "seed": int(seed)}
    u = v = None
    for _ in range(PAIRING_RETRY_CAP):
        perm = gen.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if (u == v).any():
            continue
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo.astype(np.int64) * n + hi
        if np.unique(keys).size != keys.size:
            continue
        return _make(_pairs_adjacency(n, u, v), "random_regular", params)
    if u is None:
        raise GenerationError(
            f"pairing model failed to produce a simple {d}-regular graph on {n} "
            f"vertices within {PAIRING_RETRY_CAP} attempts"
        )
    u, v = _switch_to_simple(u, v, gen)
    return _make(_pairs_adjacency(n, u, v), "random_regular", params)


def _pairs_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int8)
    adj[u, v] = 1
    adj[v, u] = 1
    return adj


def _switch_to_simple(u: np.ndarray, v: np.ndarray, gen: np.random.Generator):
    """Remove the loops and multi-edges of the pairing (u[e], v[e]) by
    double-edge switches, which keep every degree.

    Each attempt picks a bad edge (a, b) (a loop, or one copy of a repeated
    edge) and a uniform edge (x, y), oriented at random, and replaces them
    by (a, x) and (b, y).  It is accepted only when neither new edge is a
    loop or already present, so every accepted switch removes at least one
    bad edge and never adds one.
    """
    u, v = u.tolist(), v.tolist()
    m = len(u)

    def key(a, b):
        return (a, b) if a < b else (b, a)

    counts = Counter(map(key, u, v))

    def bad_edges():
        return [e for e in range(m) if u[e] == v[e] or counts[key(u[e], v[e])] > 1]

    bad = bad_edges()
    rejected = 0
    while bad:
        if rejected >= SWITCH_RETRY_CAP:
            raise GenerationError(
                f"double-edge switches failed to make the pairing simple after "
                f"{SWITCH_RETRY_CAP} rejected switches ({len(bad)} bad edges left)"
            )
        e1 = bad[int(gen.integers(len(bad)))]
        e2 = int(gen.integers(m))
        a, b = u[e1], v[e1]
        x, y = (u[e2], v[e2]) if gen.integers(2) else (v[e2], u[e2])
        new1, new2 = key(a, x), key(b, y)
        if e1 == e2 or a == x or b == y or new1 == new2 or new1 in counts or new2 in counts:
            rejected += 1
            continue
        for k in (key(a, b), key(x, y)):
            counts[k] -= 1
            if counts[k] == 0:
                del counts[k]
        counts[new1] = counts[new2] = 1
        u[e1], v[e1], u[e2], v[e2] = a, x, b, y
        bad = bad_edges()
    return np.array(u), np.array(v)


def edge_list_graph(edges, n: int | None = None, one_based: bool = True) -> Graph:
    """Graph from an explicit edge list.

    Edges are 1-based by default (matching the file format); pass
    one_based=False for 0-based input.  n defaults to the largest vertex
    index seen, but may be given explicitly to allow trailing isolated
    vertices.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    if one_based:
        edges = [(u - 1, v - 1) for u, v in edges]
    max_seen = max((max(u, v) for u, v in edges), default=-1)
    if n is None:
        n = max_seen + 1
    if n < 1:
        raise ParameterError("edge_list graph needs at least one vertex")
    adj = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u} is not allowed")
        adj[u, v] = 1
        adj[v, u] = 1
    return _make(adj, "edge_list", {"n": n})


def read_edge_list(path) -> Graph:
    """Read the 1-based 'u v' edge-list text format ('#' starts a comment)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read edge list {path}: {exc}") from exc
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(f"{path}:{lineno}: expected 'u v', got {raw.rstrip()!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: non-integer vertex label") from exc
    if not edges:
        raise ParameterError(f"{path}: no edges found")
    if min(min(e) for e in edges) < 1:
        raise ParameterError(f"{path}: edge-list files are 1-based")
    return edge_list_graph(edges, one_based=True)


_BUILDERS = {
    "complete": lambda spec: complete(int(spec["n"])),
    "cycle": lambda spec: cycle(int(spec["n"])),
    "torus": lambda spec: torus(int(spec["side"]), int(spec["d"])),
    "erdos_renyi": lambda spec: erdos_renyi(int(spec["n"]), float(spec["p"]), spec["seed"]),
    "random_regular": lambda spec: random_regular(int(spec["n"]), int(spec["d"]), spec["seed"]),
}


def build_graph(spec: dict) -> Graph:
    """Build a graph from a JSON-style spec: {"kind": ..., params...}.

    Supported kinds: complete{n}, cycle{n}, torus{side,d},
    erdos_renyi{n,p,seed}, random_regular{n,d,seed},
    edge_list{edges (1-based) | path, n?}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError("graph spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "edge_list":
            if "path" in spec:
                return read_edge_list(spec["path"])
            return edge_list_graph(spec["edges"], n=spec.get("n"), one_based=True)
        builder = _BUILDERS[kind]
    except KeyError as exc:
        raise ParameterError(f"unknown graph kind {kind!r}") from exc
    return builder(spec)


def graph_distances(g: Graph, source: int) -> np.ndarray:
    """Breadth-first-search distances from `source` to every vertex.

    Unreachable vertices get INFINITE_DISTANCE (float inf).
    """
    _check_vertex(g, source)
    dist = np.full(g.n, INFINITE_DISTANCE)
    dist[source] = 0.0
    frontier = np.zeros(g.n, dtype=bool)
    frontier[source] = True
    level = 0
    while frontier.any():
        reach = (g.adjacency[frontier].any(axis=0)) & np.isinf(dist)
        level += 1
        dist[reach] = level
        frontier = reach
    return dist


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    max_degree: int
    is_regular: bool
    common_degree: int | None


def degree_stats(g: Graph) -> DegreeStats:
    """Exact degree statistics; common_degree is None unless regular."""
    lo, hi = int(g.degrees.min()), int(g.degrees.max())
    regular = lo == hi
    return DegreeStats(lo, hi, regular, lo if regular else None)


def _automorphism_mapping_exists(adj: np.ndarray, target: int) -> bool:
    """Backtracking search for an automorphism sending vertex 0 to `target`."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    image = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    image[0] = target
    used[target] = True

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if adj[v, u] != adj[w, image[u]]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    if deg[target] != deg[0]:
        return False
    return extend(1)


def verify_transitive(g: Graph, max_n: int = DEFAULT_TRANSITIVITY_MAX_N) -> Transitivity:
    """Decide vertex-transitivity where feasible and update g.transitivity.

    Non-regular graphs are immediately NOT_TRANSITIVE.  Graphs with
    n <= max_n get a brute-force automorphism search; larger graphs stay
    at their constructor guarantee (KNOWN) or UNKNOWN.
    """
    if not g.is_regular:
        g.transitivity = Transitivity.NOT_TRANSITIVE
        return g.transitivity
    if g.n <= max_n:
        transitive = all(
            _automorphism_mapping_exists(np.asarray(g.adjacency), v) for v in range(1, g.n)
        )
        g.transitivity = Transitivity.VERIFIED if transitive else Transitivity.NOT_TRANSITIVE
        return g.transitivity
    return g.transitivity
