"""Construction and interrogation of the interaction graphs the game is played on.

A graph is stored as sorted neighbor lists (CSR), so building, checking
and searching it takes O(n + E) memory and O(E log E) time for E edge
entries; no dense adjacency matrix is built unless Graph.adjacency is
read.  Every constructor goes through _make, from a list of edges.
complete, cycle and torus also hand _make their graph's Laplacian
spectrum in closed form, which spectral.laplacian_eigensystem takes in
place of an eigensolver; a graph built any other way carries none.  A
graph carries no verdict on its symmetry: where the equilibrium formula
holds is read from the Laplacian spectrum (spectral, strategies).
Vertices are 0-based contiguous integers internally.  Edge-list files and
edge lists inside JSON graph specs are 1-based and converted on ingest.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import GenerationError, ParameterError

#: Number of pairing-model attempts before random_regular repairs the last one.
PAIRING_RETRY_CAP = 1000

#: Number of rejected double-edge switches before that repair gives up.
SWITCH_RETRY_CAP = 100_000

#: Most vertices a graph may have: a vertex fits in int32, so the neighbor
#: lists take 4 bytes an entry, and an edge key u * n + v in int64.
MAX_VERTICES = 2**31 - 1


def _check_order(n: int) -> int:
    return _integer(n, f"a graph needs 0 to {MAX_VERTICES} vertices, got {n!r}", 0, MAX_VERTICES + 1)


def _key_type(n: int) -> type:
    """int32 if every edge key u * n + v < n^2 fits in it, else int64: the
    narrower keys halve the memory and the sorting of a graph with n <= 46340."""
    return np.int32 if n * n <= MAX_VERTICES else np.int64


@dataclass(eq=False)
class Graph:
    """Simple undirected graph with construction provenance, stored as
    sorted neighbor lists (CSR).

    Vertex v's neighbors are indices[indptr[v]:indptr[v + 1]] (int32),
    strictly increasing, and degrees[v] is their count.  Construction checks, in
    O(E log E) for E = indices.size, that every neighbor is a vertex, that
    no vertex lists itself or a neighbor twice, and that the lists are
    symmetric (u lists v exactly when v lists u).  The arrays are frozen.
    adjacency, the dense n x n 0/1 matrix, is built only when read.
    _spectrum, set by _make and by no argument, returns the unsorted
    Laplacian spectrum of a graph whose constructor knows it, else is None.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    construction: str
    params: dict = field(default_factory=dict)
    degrees: np.ndarray = field(init=False, repr=False)
    _spectrum: Callable[[], np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = _check_order(self.n)
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices)
        if indptr.shape != (n + 1,) or indices.ndim != 1 or indices.dtype.kind not in "iu":
            raise ParameterError(f"indptr must have {n + 1} entries and indices must be an integer vector")
        degrees = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != indices.size or (degrees < 0).any():
            raise ParameterError("indptr must rise from 0 to the number of neighbor entries")
        if indices.size and not (0 <= indices.min() and indices.max() < n):
            raise ParameterError(f"neighbors must be vertices 0..{n - 1}")
        indices = indices.astype(np.int32, copy=False)
        self.indptr, self.indices, self.degrees = indptr, indices, degrees
        keys = np.repeat(np.arange(n, dtype=_key_type(n)), degrees)  # the rows
        if (keys == indices).any():
            raise ParameterError("a vertex may not neighbor itself (no self-loops)")
        transposed = indices.astype(keys.dtype)
        transposed *= n
        transposed += keys
        keys *= n
        keys += indices  # rows * n + indices, in place: the sort order of (row, neighbor)
        if (keys[1:] <= keys[:-1]).any():
            raise ParameterError("neighbor lists must be strictly increasing (no repeated edge)")
        transposed.sort()
        if not np.array_equal(transposed, keys):
            raise ParameterError("neighbor lists must be symmetric")
        for a in (indptr, indices, degrees):
            a.setflags(write=False)

    @property
    def rows(self) -> np.ndarray:
        """The vertex whose list holds each entry of indices, so that
        (rows[k], indices[k]) runs over the directed edges in sorted order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    @property
    def adjacency(self) -> np.ndarray:
        """The dense symmetric 0/1 int8 adjacency matrix, read-only and built
        on every read: n^2 bytes, for small graphs only."""
        adj = np.zeros((self.n, self.n), dtype=np.int8)
        adj[self.rows, self.indices] = 1
        adj.setflags(write=False)
        return adj

    def neighbors(self, v: int) -> np.ndarray:
        """Vertex v's neighbors, ascending."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def is_regular(self) -> bool:
        return self.n > 0 and int(self.degrees.min()) == int(self.degrees.max())

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min())

    def spec(self) -> dict:
        """JSON-able description of how this graph was constructed."""
        return {"kind": self.construction, **self.params}


def _make(n: int, u, v, construction, params, spectrum=None) -> Graph:
    """The graph on n vertices whose edges are the pairs (u[k], v[k]), each
    given once in either order; Graph checks the rest.  spectrum, from a
    constructor that knows it, returns the unsorted Laplacian spectrum."""
    kind = _key_type(_check_order(n))
    u, v = np.asarray(u), np.asarray(v)
    keys = np.empty(2 * u.size, dtype=kind)  # u * n + v orders the pairs (u, v) row by row
    for a, b, part in ((u, v, keys[: u.size]), (v, u, keys[u.size :])):
        np.multiply(a, n, out=part)
        part += b
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=kind) * n)
    keys -= np.repeat(np.arange(n, dtype=kind) * n, np.diff(indptr))  # now the neighbors
    g = Graph(n, indptr, keys.astype(np.int32, copy=False), construction, params)
    g._spectrum = spectrum
    return g


def complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    n = _integer(n, f"complete graph needs an integer n >= 2, got {n!r}", 2)
    return _make(n, *np.triu_indices(n, k=1), "complete", {"n": n}, partial(_complete_spectrum, n))


def cycle(n: int) -> Graph:
    """Cycle graph on n >= 3 vertices."""
    n = _integer(n, f"cycle graph needs an integer n >= 3, got {n!r}", 3)
    return _make(n, np.arange(n), _torus_successors(n, 1)[0], "cycle", {"n": n}, partial(_torus_spectrum, n, 1))


def torus(side: int, d: int) -> Graph:
    """d-dimensional discrete torus with `side` vertices per axis.

    Vertices are lattice points of {0,..,side-1}^d, vertex sum_i coord_i
    side^i, with wrap-around adjacency along each axis; every vertex has
    degree 2d.
    """
    side = _integer(side, f"torus needs an integer side >= 3, got {side!r}", 3)
    d = _integer(d, f"torus needs an integer d >= 1, got {d!r}", 1)
    n = side**d
    successors = _torus_successors(side, d).ravel()
    params = {"side": side, "d": d}
    return _make(n, np.tile(np.arange(n), d), successors, "torus", params, partial(_torus_spectrum, side, d))


def _torus_successors(side: int, d: int) -> np.ndarray:
    """Row a: every vertex's successor along axis a of the lattice
    {0,..,side-1}^d, vertex sum_i coord_i side^i."""
    idx, stride = np.arange(side**d), side ** np.arange(d)[:, None]
    coord = (idx // stride) % side
    return idx + stride * ((coord + 1) % side - coord)


def _complete_spectrum(n: int) -> np.ndarray:
    """complete(n)'s Laplacian spectrum: 0 once and -n/(n-1) n-1 times."""
    vals = np.full(n, -n / (n - 1))
    vals[0] = 0.0
    return vals


def _torus_spectrum(side: int, d: int) -> np.ndarray:
    """torus(side, d)'s unsorted Laplacian spectrum: the mean over axes of
    cos(2 pi k_i/side), minus 1; cycle(n) is torus(n, 1)."""
    axis = np.cos(2.0 * np.pi * np.arange(side) / side)
    sums = axis
    for _ in range(d - 1):
        sums = (sums[:, None] + axis[None, :]).ravel()
    return sums / d - 1.0


def philox(seed, block: int = 0) -> np.random.Generator:
    """The generator of seed's Philox stream from counter block << 128, so
    that blocks are disjoint 2**128-wide runs of it; ParameterError unless
    seed is given and is an integer in [0, 2**128)."""
    if seed is None:
        raise ParameterError("a seed is required")
    key = _integer(seed, f"seed must be an integer in [0, 2**128), got {seed!r}", 0, 2**128)
    return np.random.Generator(np.random.Philox(key=key, counter=block << 128))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each unordered pair is an edge independently with
    probability p.

    Pairs are assigned uniforms in lexicographic order from a counter-based
    (Philox) stream, so the same seed reproduces the same graph everywhere.
    The stream is drawn in blocks of whole rows, at most 2**20 pairs each,
    and each block's edges are mapped to (row, column) from the rows' first
    pairs, so memory is O(n + edges), not O(n^2).
    """
    n = _integer(n, f"erdos_renyi needs an integer n >= 1, got {n!r}", 1)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    gen = philox(seed)
    i = np.arange(n + 1, dtype=np.int64)
    starts = i * (2 * n - 1 - i) // 2  # row i's first pair in the stream; starts[n] counts them all
    block, edges = max(1, 2**20 // n), []  # rows per block: a row has at most n - 1 pairs
    for lo in range(0, n, block):
        pair = np.flatnonzero(gen.random(starts[min(lo + block, n)] - starts[lo]) < p) + starts[lo]
        row = np.searchsorted(starts, pair, side="right") - 1
        edges.append((row, pair - starts[row] + row + 1))
    u, v = (np.concatenate(ends) for ends in zip(*edges))
    return _make(n, u, v, "erdos_renyi", {"n": n, "p": p, "seed": int(seed)})


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish random d-regular graph via the pairing (configuration)
    model with full rejection of self-loops and multi-edges.

    A simple pairing has probability about exp((1 - d^2)/4), so for larger
    d all PAIRING_RETRY_CAP attempts can fail.  The last pairing is then
    repaired by degree-preserving double-edge switches drawn from the same
    generator (_switch_to_simple).  Raises GenerationError if there is no
    pairing to repair or the repair gets stuck.
    """
    n = _integer(n, f"random_regular needs an integer n >= 1, got {n!r}", 1)
    d = _integer(d, f"random_regular needs an integer degree d >= 0, got {d!r}", 0)
    if d >= n:
        raise ParameterError(f"random_regular needs d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d must be even, got n={n}, d={d}")
    gen = philox(seed)
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
        return _make(n, u, v, "random_regular", params)
    if u is None:
        raise GenerationError(
            f"pairing model failed to produce a simple {d}-regular graph on {n} "
            f"vertices within {PAIRING_RETRY_CAP} attempts"
        )
    return _make(n, *_switch_to_simple(u, v, gen), "random_regular", params)


def _switch_to_simple(u: np.ndarray, v: np.ndarray, gen: np.random.Generator):
    """Remove the loops and multi-edges of the pairing (u[e], v[e]) by
    double-edge switches, which keep every degree.

    Each attempt picks a bad edge (a, b) (a loop, or one copy of a repeated
    edge) and a uniform edge (x, y), oriented at random, and replaces them
    by (a, x) and (b, y).  It is accepted only when neither new edge is a
    loop or already present, so every accepted switch removes at least one
    bad edge and never adds one.  After a switch only the edges whose key
    counts changed are checked again, and the bad edges are kept in edge
    order, so each draw picks the edge a full rescan would.
    """
    u, v = u.tolist(), v.tolist()
    m = len(u)

    def key(e):
        return (u[e], v[e]) if u[e] < v[e] else (v[e], u[e])

    holders = defaultdict(set)  # key -> the edges that are copies of it
    for e in range(m):
        holders[key(e)].add(e)
    bad = {e for e in range(m) if u[e] == v[e] or len(holders[key(e)]) > 1}
    order = sorted(bad)
    rejected = 0
    while bad:
        if rejected >= SWITCH_RETRY_CAP:
            raise GenerationError(
                f"double-edge switches failed to make the pairing simple after "
                f"{SWITCH_RETRY_CAP} rejected switches ({len(bad)} bad edges left)"
            )
        e1 = order[int(gen.integers(len(order)))]
        e2 = int(gen.integers(m))
        a, b = u[e1], v[e1]
        x, y = (u[e2], v[e2]) if gen.integers(2) else (v[e2], u[e2])
        new1, new2 = (min(a, x), max(a, x)), (min(b, y), max(b, y))
        if e1 == e2 or a == x or b == y or new1 == new2 or new1 in holders or new2 in holders:
            rejected += 1
            continue
        touched = set()
        for e in (e1, e2):
            k = key(e)
            holders[k].discard(e)
            touched |= holders[k]
            if not holders[k]:
                del holders[k]
        u[e1], v[e1], u[e2], v[e2] = a, x, b, y
        holders[new1], holders[new2] = {e1}, {e2}
        for e in touched | {e1, e2}:
            if u[e] == v[e] or len(holders[key(e)]) > 1:
                bad.add(e)
            else:
                bad.discard(e)
        order = sorted(bad)
    return np.array(u), np.array(v)


def edge_list_graph(edges, n: int | None = None, one_based: bool = True) -> Graph:
    """Graph from an explicit edge list.

    Edges are 1-based by default (matching the file format); pass
    one_based=False for 0-based input.  A label is an integer by
    _integer's rule: a bool or a float raises ParameterError naming it.  n
    defaults to the largest vertex index seen, but may be given explicitly
    to allow trailing isolated vertices.
    """
    first = int(one_based)

    def label(v) -> int:
        return _integer(v, f"edge_list vertex label {v!r} is not an integer >= {first}", first) - first

    edges = [(label(u), label(v)) for u, v in edges]
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
    n = _integer(n, f"edge_list graph needs an integer n from 1 to {MAX_VERTICES}, got {n!r}", 1, MAX_VERTICES + 1)
    for u, v in edges:
        if max(u, v) >= n:
            raise ParameterError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u} is not allowed")
    pairs = np.array(sorted({(min(u, v), max(u, v)) for u, v in edges}), dtype=np.int64).reshape(-1, 2)
    return _make(n, pairs[:, 0], pairs[:, 1], "edge_list", {"n": n})


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
    return edge_list_graph(edges, one_based=True)


#: Graph kind -> its spec forms: (constructor, its parameters; "?" marks
#: one a spec may leave out).  KIND:ARGS text gives the first form's
#: parameters without "?" in this order; an edge_list's text is all path.
_KINDS = {
    "complete": [(complete, "n")],
    "cycle": [(cycle, "n")],
    "torus": [(torus, "side d")],
    "erdos_renyi": [(erdos_renyi, "n p seed?")],
    "random_regular": [(random_regular, "n d seed?")],
    "edge_list": [(read_edge_list, "path"), (edge_list_graph, "edges n?")],
}


def _value(key: str, v):
    """A spec value parsed as its KIND:ARGS text would be; edges are
    [u, v] pairs of 1-based vertex labels."""
    if key == "edges":
        if not isinstance(v, list) or not all(isinstance(e, list) and len(e) == 2 for e in v):
            raise ValueError(v)
        return [[_value("n", a), _value("n", b)] for a, b in v]
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError(v)
    return {"p": float, "path": str}.get(key, int)(str(v))


def _parse(spec, seed=None):
    """(constructor, its keyword arguments, the checked dict) of a spec."""
    items = spec
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        kind = {"er": "erdos_renyi", "rr": "random_regular", "edgelist": "edge_list"}.get(kind, kind)
        names = [k for k in _KINDS[kind][0][1].split() if "?" not in k] if kind in _KINDS else []
        parts = [rest] if kind == "edge_list" and rest else rest.replace(",", " ").split()  # a path may hold commas
        if names and len(parts) != len(names):
            raise ParameterError(f"malformed graph spec {spec!r}, expected {kind}:{','.join(names)}")
        items = {"kind": kind, **dict(zip(names, parts))}
    kind = items.get("kind") if isinstance(items, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParameterError(f"unknown graph kind {kind!r} in graph spec {spec!r}")
    keys = items.keys() - {"kind"}
    for constructor, signature in _KINDS[kind]:
        names = signature.replace("?", "").split()
        if {k for k in signature.split() if "?" not in k} <= keys <= set(names):
            break
    else:
        forms = " or ".join(f"{kind}{{{signature}}}" for _, signature in _KINDS[kind])
        raise ParameterError(f"malformed graph spec {spec!r}, expected {forms}")
    params = {}
    for key in (k for k in names if k in keys):
        try:
            params[key] = _value(key, items[key])
        except ValueError as exc:
            raise ParameterError(f"malformed graph spec {spec!r}: invalid {key} {items[key]!r}") from exc
    if seed is not None and "seed" in names:
        params.setdefault("seed", seed)
    return constructor, {**dict.fromkeys(names), **params}, {"kind": kind, **params}


def graph_spec(spec: str | dict, seed: int | None = None) -> dict:
    """The checked dict form of a graph spec, as build_graph takes it: of
    KIND:ARGS text (complete:300, torus:10,2, erdos_renyi:50,0.3,
    edge_list:PATH; aliases er, rr, edgelist), or of a dict {"kind": KIND,
    parameter: value, ...} with the keys of one of its kind's forms in
    _KINDS, each value parsed as its text would be.  seed fills in a random
    kind's missing seed.  Raises ParameterError naming a malformed spec."""
    return _parse(spec, seed)[2]


def build_graph(spec: dict) -> Graph:
    """Build a graph from a dict spec, checked as graph_spec checks it."""
    if not isinstance(spec, dict):
        raise ParameterError(f"graph spec must be a dict with a 'kind' key, got {spec!r}")
    constructor, kwargs, _ = _parse(spec)
    return constructor(**kwargs)


def graph_distances(g: Graph, source: int) -> np.ndarray:
    """Breadth-first-search distances from `source` to every vertex, by
    scipy's compiled BFS over the neighbor lists: O(n + E) time and memory.

    Unreachable vertices get float inf, as scipy reports them.
    """
    from scipy.sparse import csr_array  # here, not at import: graph commands would pay for it
    from scipy.sparse.csgraph import shortest_path

    source = _vertex(g.n, source)
    adjacency = csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    return shortest_path(adjacency, unweighted=True, directed=False, indices=source)


def _integer(v, message: str, least: int = 0, below: int | None = None) -> int:
    """v as an int in [least, below): the one rule for counts, seeds and
    indices.  v must be an integer, not a bool (nor a float, however
    whole); anything else raises ParameterError(message), which names the
    parameter."""
    whole = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    if not (whole and least <= v and (below is None or v < below)):
        raise ParameterError(message)
    return int(v)


def _fits(count: int, what: str) -> None:
    """ParameterError(what) for count floats, more than numpy's array size limit, before any is allocated."""
    if count > np.iinfo(np.intp).max // 8:
        raise ParameterError(f"{what}, more than an array can index")


def _vertex(n: int, v) -> int:
    """v as a vertex (or player) index of a graph on n vertices: an integer
    in [0, n), by _integer's rule."""
    return _integer(v, f"vertex {v!r} is not a valid index for a graph on {n} vertices", 0, n)


def _vector(g: Graph, x) -> np.ndarray:
    """x as a finite float state vector, one entry per vertex of g; another
    shape, or a NaN or infinite entry, raises ParameterError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ParameterError(f"a state vector must have length {g.n}, got shape {x.shape}")
    if not (finite := np.isfinite(x)).all():
        i = finite.argmin()  # the first entry that is not finite
        raise ParameterError(f"a state vector must be finite, got entry {i} = {x[i]}")
    return x
