"""Desk-scale Ising backend with exact enumeration.

Configurations are 0/1 spin assignments on a small graph and the Hamiltonian
H(x) counts the edges whose endpoints agree, so the Gibbs weight of x at
inverse temperature beta is exp(beta * H(x)) and the partition function is
Z(beta) = sum_x exp(beta * H(x)).

At 24 vertices or fewer, fully enumerating the level counts
#{x : H(x) = h} is cheap (strided numpy passes over a block of states, in
about 1 MiB of working memory on any graph; see :func:`build_histogram`) and
gives three exact tools from one histogram: the partition function at any
beta, the exact law of H(X) under Gibbs(beta) (sampled by cumulative-weight
inversion over at most #E + 1 levels), and hence a
:class:`~gpas.tpa.NestedGibbsFamily` with no sampler bias, which is what
makes this backend a clean validation target for the ratio scheme.

A descent draws H(X) at a fresh beta on every step, so the inversion is the
hot path.  :func:`sample_hamiltonian` answers most draws from normalized CDF
tables cached on the histogram at the points of a fine dyadic beta grid: the
level law c_h e^{beta h} has a monotone likelihood ratio in beta, so the
tables at the two grid points around beta bracket its CDF, and whenever both
brackets invert the uniform to the same level that level is the answer.  Each
grid cell also caches a guide of 256 buckets on the uniform, holding the level
wherever the bracket is already decided for a whole bucket, so most draws
cost one lookup.  The other draws take the two bisects, and those the
bracket cannot settle, like every beta off the tabulated range (negative
betas among them: no descent visits one), invert directly at beta.  Every
path returns the level the direct inversion returns for the same uniform.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from math import floor, isfinite
from types import MethodType

import numpy as np

from .errors import SizeExceededError, _check_integer
from .numerics import RngStream
from .tpa import NestedGibbsFamily

__all__ = [
    "ENUMERATION_LIMIT",
    "LatticeGraph",
    "HamiltonianHistogram",
    "build_histogram",
    "partition_function",
    "log_partition_function",
    "sample_hamiltonian",
    "IsingGibbsFamily",
]

ENUMERATION_LIMIT = 24

# build_histogram enumerates the low _BLOCK_BITS vertex bits as one block of
# uint8 disagreement counts (256 KiB) and bincounts each copy of it in chunks
# of _BINCOUNT_CHUNK states, so the int64 copy bincount makes stays at 512 KiB.
_BLOCK_BITS = 18
_BINCOUNT_CHUNK = 1 << 16

# CDF tables for sample_hamiltonian sit at beta = j * step for
# 0 <= j <= _GRID_LIMIT, where step is the largest power of two at most
# 1 / (_GRID_PER_EDGE * #E).  The limit caps the cache at _GRID_LIMIT + 1
# tables of at most #E + 1 doubles each.  The tabulated range, top point
# included, spans beta * #E from 0 to somewhere in (32, 64], so at least 32,
# and covers all of [0, 1] on every graph of at most 64 edges.
_GRID_PER_EDGE = 64
_GRID_LIMIT = 1 << 12
# the same bound as a float, so the sampler's range checks compare floats
_GRID_TOP = float(_GRID_LIMIT)
# A bracket decides a draw only when the uniform clears the table entries it
# is compared with by this margin.  In the tabulated range every log weight is
# below 81 in magnitude (|ln count| <= 24 ln 2, 0 <= beta h <= 64), so with up
# to 277 levels a table entry, and the direct inversion's comparison, each
# differ from the exact CDF by less than 1.7e-13.
_TABLE_MARGIN = 1e-12
# Each cell's guide splits [0, 1) into this many buckets of uniforms; a power
# of two, so int(u * _GUIDE_SIZE) is the exact bucket of u.
_GUIDE_SIZE = 256


def _check_vertex_count(vertex_count: int) -> None:
    _check_integer("vertex_count", vertex_count, 1)
    if vertex_count > ENUMERATION_LIMIT:
        raise SizeExceededError(
            f"{vertex_count} vertices exceed the enumeration bound of {ENUMERATION_LIMIT}"
        )


@dataclass(frozen=True)
class LatticeGraph:
    """Undirected simple graph.

    ``grid`` builds the 4-neighbor width x height lattice with free
    boundary, which has w(h-1) + h(w-1) edges; ``from_edge_file`` reads one
    0-indexed "u v" pair per line.  Vertex counts above
    :data:`ENUMERATION_LIMIT` are rejected, since every consumer here relies
    on exact enumeration.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.vertex_count)
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not all(isinstance(w, (int, np.integer)) for w in (u, v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer vertex")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an out-of-range vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(pair)

    @classmethod
    def grid(cls, width: int, height: int) -> "LatticeGraph":
        """4-neighbor width x height lattice with free boundary."""
        _check_integer("grid width", width, 1)
        _check_integer("grid height", height, 1)
        _check_vertex_count(width * height)  # before building the edge list
        edges: list[tuple[int, int]] = []
        for row in range(height):
            for col in range(width):
                v = row * width + col
                if col + 1 < width:
                    edges.append((v, v + 1))
                if row + 1 < height:
                    edges.append((v, v + width))
        return cls(vertex_count=width * height, edges=tuple(edges))

    @classmethod
    def from_edge_file(cls, path) -> "LatticeGraph":
        """Read one "u v" pair per line (0-indexed; blank and # lines skipped).

        The vertex count is one past the largest vertex mentioned.
        """
        edges: list[tuple[int, int]] = []
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                try:
                    u, v = map(int, stripped.split())
                except ValueError:  # wrong arity or a non-integer token
                    raise ValueError(
                        f"{path}:{line_no}: expected 'u v' integers, got {stripped!r}"
                    ) from None
                edges.append((u, v))
        if not edges:
            raise ValueError(f"{path}: the edge list is empty")
        return cls(vertex_count=1 + max(max(u, v) for u, v in edges), edges=tuple(edges))


@dataclass(frozen=True, eq=False)
class HamiltonianHistogram:
    """Exact level counts: counts[h] = #{x in {0,1}^V : H(x) = h}.

    The counts array (length #E + 1) is write-locked after construction and
    the object is safe to share across threads; sampling needs only a
    caller-owned stream.  The sampler's CDF tables (one per grid point j) and
    cell guides (one per cell [b_j, b_{j+1}]) are filled in lazily, one slot
    at a time: every table and guide is a deterministic function of the
    counts, so threads that race to fill one slot store equal tables or equal
    guides, and a guide is stored only after both tables it was built from.

    Histograms compare and hash by identity: those lazy caches make value
    equality meaningless, and an ndarray has no truth value to compare by.
    """

    vertex_count: int
    counts: np.ndarray
    _levels: np.ndarray = field(init=False, repr=False)
    _log_counts: np.ndarray = field(init=False, repr=False)
    _level_values: tuple[int, ...] = field(init=False, repr=False)
    _grid_scale: float = field(init=False, repr=False)
    _cdf_tables: list[array | None] = field(init=False, repr=False)
    _guides: list[array | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the sampler's _TABLE_MARGIN assumes |ln count| <= 24 ln 2
        _check_vertex_count(self.vertex_count)
        given = np.asarray(self.counts)
        counts = given.astype(np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a one-dimensional nonempty array")
        if not np.array_equal(counts, given):
            raise ValueError(f"counts must all be integers, got {given.tolist()!r}")
        if counts.min() < 0:
            raise ValueError(f"counts must be nonnegative, got {counts.tolist()!r}")
        if int(counts.sum()) != 1 << self.vertex_count:
            raise ValueError(
                f"counts sum to {int(counts.sum())}, expected 2^{self.vertex_count}"
            )
        counts.setflags(write=False)
        occupied = np.flatnonzero(counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_levels", occupied.astype(np.float64))
        object.__setattr__(self, "_log_counts", np.log(counts[occupied].astype(np.float64)))
        object.__setattr__(self, "_level_values", tuple(occupied.tolist()))
        edges = max(counts.size - 1, 1)
        object.__setattr__(self, "_grid_scale", float(1 << (_GRID_PER_EDGE * edges - 1).bit_length()))
        object.__setattr__(self, "_cdf_tables", [None] * (_GRID_LIMIT + 1))
        object.__setattr__(self, "_guides", [None] * _GRID_LIMIT)

    @property
    def edge_count(self) -> int:
        return self.counts.size - 1


def build_histogram(graph: LatticeGraph) -> HamiltonianHistogram:
    """Exact level counts by enumerating all 2^V configurations.

    States are encoded as the bits of an unsigned integer, one bit per
    vertex.  Flipping every spin changes no edge's agreement, so the top
    vertex is fixed at 0 and the counts of the 2^(V-1) remaining states are
    doubled.  The low L = min(18, V - 1) bits form one block: the
    disagreement count of each of its 2^L states over the edges inside it is
    built by doubling, one vertex bit b at a time.  The states with bit b
    set are the states before it plus the number of b's lower neighbours,
    and then, for each lower neighbour w, a strided pass adds 1 where bit w
    is set among the states with bit b clear and subtracts 1 there among
    those with bit b set.  Each assignment of the bits above the block, the
    top vertex's included, then costs one copy of the block plus a
    constant: the disagreements among those bits, and for each low vertex
    w with neighbours above it, the number of them that are set.  One
    strided pass per such w corrects the states with w set, which disagree
    with the clear neighbours instead.  Each copy is bincounted in chunks of
    2^16 states.  An edge inside the block costs one pass over at most 2^L
    states, and a vertex with neighbours above it one pass per assignment,
    so the cost grows with the edges and with the vertices that have
    neighbours above the block.  The disagreement counts fit in uint8 on every
    graph, so working memory is the block, its copy and one int64 bincount
    chunk: about 1 MiB at any size.
    """
    _check_vertex_count(graph.vertex_count)
    edge_count = len(graph.edges)
    top = graph.vertex_count - 1
    low = min(_BLOCK_BITS, top)
    lower_neighbours: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        lower_neighbours[max(u, v)].append(min(u, v))
    # block[x] counts the disagreeing edges inside the low bits of state x.
    # A state's count is the size of a cut, at most 12 * 12 = 144 on 24
    # vertices, so uint8 holds it even when #E > 255; uint8 arithmetic is
    # modular, so partial sums that leave [0, 255] on the way come out exact.
    block = np.zeros(1 << low, dtype=np.uint8)
    for b in range(low):
        clear, set_ = block[: 1 << b], block[1 << b : 2 << b]
        np.add(clear, len(lower_neighbours[b]), out=set_)
        for w in lower_neighbours[b]:
            clear.reshape(-1, 2, 1 << w)[:, 1] += 1
            set_.reshape(-1, 2, 1 << w)[:, 1] -= 1
    # The edges above the block, with high bits counted from bit `low`: those
    # between two high bits, and per low vertex w the mask and number of its
    # high neighbours.
    high_edges: list[tuple[int, int]] = []
    cross: dict[int, tuple[int, int]] = {}
    for v in range(low, graph.vertex_count):
        for w in lower_neighbours[v]:
            if w >= low:
                high_edges.append((w - low, v - low))
            else:
                mask, degree = cross.get(w, (0, 0))
                cross[w] = (mask | 1 << (v - low), degree + 1)
    counts = np.zeros(edge_count + 1, dtype=np.int64)
    states = np.empty_like(block)
    # the top vertex is bit top - low of `high`, always clear
    for high in range(1 << (top - low)):
        constant = sum((high >> a ^ high >> b) & 1 for a, b in high_edges)
        shifts = []
        for w, (mask, degree) in cross.items():
            ones = (high & mask).bit_count()
            constant += ones
            shifts.append((w, degree - 2 * ones))
        np.add(block, constant % 256, out=states)
        for w, shift in shifts:
            if shift:
                states.reshape(-1, 2, 1 << w)[:, 1] += shift % 256
        for start in range(0, states.size, _BINCOUNT_CHUNK):
            chunk = states[start : start + _BINCOUNT_CHUNK]
            counts += np.bincount(chunk, minlength=edge_count + 1)
    # level h holds the states with edge_count - h disagreements
    return HamiltonianHistogram(vertex_count=graph.vertex_count, counts=2 * counts[::-1])


def partition_function(hist: HamiltonianHistogram, beta: float) -> float:
    """Z(beta) = sum_h counts[h] * exp(beta * h), exact up to round-off."""
    levels = np.arange(hist.counts.size, dtype=np.float64)
    return float(np.sum(hist.counts * np.exp(beta * levels)))


def log_partition_function(hist: HamiltonianHistogram, beta: float) -> float:
    """ln Z(beta), evaluated stably in log space (safe at large beta * #E)."""
    log_weights = hist._log_counts + beta * hist._levels
    peak = float(log_weights.max())
    return peak + float(np.log(np.sum(np.exp(log_weights - peak))))


def _cumulative_weights(hist: HamiltonianHistogram, beta: float) -> np.ndarray:
    """Unnormalized cumulative level weights, exponentiated against the peak."""
    log_weights = hist._log_counts + beta * hist._levels
    return np.cumsum(np.exp(log_weights - log_weights.max()))


def _cdf_table(hist: HamiltonianHistogram, j: int) -> array:
    """The normalized CDF at grid point j, built on first use and cached."""
    cumulative = _cumulative_weights(hist, j / hist._grid_scale)
    table = array("d", (cumulative / cumulative[-1]).tobytes())
    hist._cdf_tables[j] = table
    return table


def _cell_guide(hist: HamiltonianHistogram, j: int) -> array:
    """The guide of the cell [b_j, b_{j+1}], built on first use and cached.

    Bucket b covers the uniforms in [b / M, (b + 1) / M).  Both bracket
    indices are nondecreasing in u, so when the lower bracket at the
    bucket's left edge equals the upper bracket at its right edge, every
    uniform in the bucket gets that level; the bucket stores it.  Otherwise
    it stores -1.  Both tables are cached before the guide is.
    """
    tables = hist._cdf_tables
    lower = tables[j] or _cdf_table(hist, j)
    upper = tables[j + 1] or _cdf_table(hist, j + 1)
    edges = np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE
    # the same float comparisons bisect_right makes in sample_hamiltonian
    low = np.searchsorted(np.frombuffer(lower), edges[:-1] - _TABLE_MARGIN, side="right")
    high = np.searchsorted(np.frombuffer(upper), edges[1:] + _TABLE_MARGIN, side="right")
    levels = np.array(hist._level_values, dtype=np.int16)[low]
    guide = array("h", np.where(low == high, levels, -1).astype(np.int16).tobytes())
    hist._guides[j] = guide
    return guide


def sample_hamiltonian(hist: HamiltonianHistogram, beta: float, rng: RngStream) -> int:
    """Draw H(X) for X ~ Gibbs(beta): level h w.p. counts[h] e^{beta h} / Z(beta).

    Inverts one uniform u, taken with ``next(rng.uniforms)``: any stream
    that provides a ``uniforms`` iterator will do.  The answer is the first
    occupied level whose cumulative weight exceeds u times the total, with
    weights exponentiated against the peak log weight so no beta overflows.

    Most draws skip that computation.  On the grid b_j = j * step for
    0 <= j <= L (step a power of two, so a beta in [0, b_L] lies exactly in
    a cell [b_j, b_{j+1}], and b_L closes the last one), the level
    law has a monotone likelihood ratio in beta, so its CDF is nonincreasing
    in beta: F_{b_{j+1}}(h) <= F_beta(h) <= F_{b_j}(h) at every level.
    Inverting u - m in the cached table of F_{b_j} and u + m in that of
    F_{b_{j+1}} therefore brackets the answer from below and above; when
    both give the same level, it is the answer.  The margin m exceeds the
    rounding error of the tables and of the direct inversion together, so
    the bracket agrees with the direct inversion bit for bit, not merely in
    law.

    The cell's guide settles most draws before either bisect: it holds the
    bracket's level for each of 256 equal buckets of u in which the bracket
    cannot change (see :func:`_cell_guide`), so a draw in such a bucket is
    one lookup at int(256 u), exact since 256 is a power of two.  A draw in
    any other bucket takes the two bisects, and when they differ, or for
    beta outside [0, b_L], negative betas included, the direct inversion
    runs at beta with the same u.

    Raises:
        ValueError: if beta is not finite.
    """
    x = beta * hist._grid_scale
    if 0.0 <= x <= _GRID_TOP:
        u = next(rng.uniforms)
        j = floor(x) if x < _GRID_TOP else _GRID_LIMIT - 1
        level = (hist._guides[j] or _cell_guide(hist, j))[int(u * _GUIDE_SIZE)]
        if level >= 0:
            return level
        tables = hist._cdf_tables
        index = bisect_right(tables[j], u - _TABLE_MARGIN)
        if index == bisect_right(tables[j + 1], u + _TABLE_MARGIN):
            return hist._level_values[index]
    elif isfinite(beta):
        u = next(rng.uniforms)
    else:
        raise ValueError(f"beta must be finite, got {beta!r}")
    cumulative = _cumulative_weights(hist, beta)
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return hist._level_values[min(index, cumulative.size - 1)]


@dataclass(frozen=True)
class IsingGibbsFamily(NestedGibbsFamily):
    """Level-histogram Gibbs family for the fixed ratio Z(1)/Z(0).

    Satisfies the nested-family contract with H_max = #E; the histogram is
    computed once per graph and shared across all beta values.  The
    histogram is the one field: ``beta_outer = 1`` and ``beta_inner = 0``
    are class attributes, so two families compare and hash by their
    histograms alone, and neither beta is a constructor argument.
    """

    histogram: HamiltonianHistogram
    beta_outer = 1.0
    beta_inner = 0.0

    @property
    def sample_hamiltonian(self) -> MethodType:
        """The module's :func:`sample_hamiltonian` bound to the histogram.

        Called as ``(beta, rng)``, it returns the int level.  Bound rather
        than forwarded, a draw costs no extra Python frame; the module
        global is read on each access, so a replacement of it (a tracer's
        wrapper, say) is what a descent binds.
        """
        return MethodType(sample_hamiltonian, self.histogram)
