"""Enumeration, partition function, and exact level sampling."""

import itertools
import math
import sys
import threading
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpas import ising
from gpas.errors import SizeExceededError
from gpas.ising import (
    ENUMERATION_LIMIT,
    HamiltonianHistogram,
    IsingGibbsFamily,
    LatticeGraph,
    build_histogram,
    log_partition_function,
    partition_function,
    sample_hamiltonian,
)
from gpas.numerics import RngStream
from gpas.tpa import two_phase_scheme

SEED = 404


def brute_force_histogram(graph):
    """Independent oracle: walk every configuration explicitly."""
    counts = [0] * (len(graph.edges) + 1)
    for assignment in itertools.product((0, 1), repeat=graph.vertex_count):
        h = sum(assignment[u] == assignment[v] for u, v in graph.edges)
        counts[h] += 1
    return counts


def reference_cdf(hist, beta):
    """Occupied levels and their unnormalized cumulative weights at beta,
    in the direct inversion's arithmetic."""
    occupied = np.flatnonzero(hist.counts)
    levels = occupied.astype(np.float64)
    log_weights = np.log(hist.counts[occupied].astype(np.float64)) + beta * levels
    return occupied, np.cumsum(np.exp(log_weights - log_weights.max()))


def reference_inversion(hist, beta, u):
    """The level direct inversion at beta returns for the uniform u."""
    occupied, cumulative = reference_cdf(hist, beta)
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return int(occupied[min(index, occupied.size - 1)])


class FixedUniforms:
    """Stand-in stream that serves the given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def next_uniform(self):
        return next(self._values)


def assert_matches_reference(hist, pairs):
    uniforms = FixedUniforms(u for _, u in pairs)
    got = [sample_hamiltonian(hist, beta, uniforms) for beta, _ in pairs]
    expected = [reference_inversion(hist, beta, u) for beta, u in pairs]
    mismatches = [(pair, g, e) for pair, g, e in zip(pairs, got, expected) if g != e]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# LatticeGraph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width,height", [(1, 1), (1, 2), (2, 2), (3, 4), (4, 6)])
def test_grid_edge_count_formula(width, height):
    graph = LatticeGraph.grid(width, height)
    assert graph.vertex_count == width * height
    assert len(graph.edges) == width * (height - 1) + height * (width - 1)


def test_grid_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        LatticeGraph.grid(0, 3)


def test_vertex_budget_enforced():
    with pytest.raises(SizeExceededError):
        LatticeGraph.grid(5, 5)
    assert LatticeGraph.grid(4, 6).vertex_count == ENUMERATION_LIMIT


@pytest.mark.parametrize(
    "edges",
    [
        ((0, 0),), ((0, 1), (1, 0)), ((0, 1), (0, 1)), ((0, 5),),
        # non-integer vertex ids
        ((0, 1.5),), ((0.0, 1),), ((0, "1"),),
    ],
)
def test_graph_rejects_malformed_edges(edges):
    with pytest.raises(ValueError):
        LatticeGraph(vertex_count=3, edges=edges)


def test_edge_file_round_trip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a 2x2 grid\n0 1\n2 3\n\n0 2\n1 3\n", encoding="utf-8")
    graph = LatticeGraph.from_edge_file(path)
    assert graph.vertex_count == 4
    assert len(graph.edges) == 4
    # same topology as the built-in grid: identical level counts
    assert np.array_equal(
        build_histogram(graph).counts,
        build_histogram(LatticeGraph.grid(2, 2)).counts,
    )


def test_edge_file_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        LatticeGraph.from_edge_file(path)


def test_edge_file_non_integer_token_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n0 1\n1 x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.txt:3: .*'1 x'"):
        LatticeGraph.from_edge_file(path)


def test_edge_file_empty_needs_vertex_count(tmp_path):
    # the vertex count comes from the edges, so an empty list has none
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"empty\.txt: the edge list is empty"):
        LatticeGraph.from_edge_file(path)


@pytest.mark.parametrize("vertex_count", [3.0, 2.5, "3"])
def test_graph_rejects_non_integer_vertex_count(vertex_count):
    with pytest.raises(ValueError, match="positive integer"):
        LatticeGraph(vertex_count=vertex_count, edges=())


def test_graph_accepts_numpy_integers():
    graph = LatticeGraph(vertex_count=np.int64(2), edges=((np.int64(0), np.int32(1)),))
    assert build_histogram(graph).counts.tolist() == [2, 2]


# ---------------------------------------------------------------------------
# build_histogram
# ---------------------------------------------------------------------------


def test_histogram_1x2_by_hand():
    # one edge, four states: two agree, two disagree
    hist = build_histogram(LatticeGraph.grid(1, 2))
    assert hist.counts.tolist() == [2, 2]


def test_histogram_2x2_matches_brute_force():
    graph = LatticeGraph.grid(2, 2)
    hist = build_histogram(graph)
    assert hist.counts.tolist() == brute_force_histogram(graph)
    # the 4-cycle forces even disagreement counts
    assert hist.counts.tolist() == [2, 0, 12, 0, 2]


@pytest.mark.parametrize(
    "graph",
    [
        LatticeGraph.grid(3, 3),
        LatticeGraph.grid(1, 5),
        LatticeGraph(vertex_count=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))),
    ],
)
def test_histogram_matches_brute_force(graph):
    assert build_histogram(graph).counts.tolist() == brute_force_histogram(graph)


def complete_graph(n):
    return LatticeGraph(vertex_count=n, edges=tuple(itertools.combinations(range(n), 2)))


def complete_graph_counts(n):
    """Closed form for K_n: a configuration with a ones has
    H = C(a,2) + C(n-a,2)."""
    expected = np.zeros(math.comb(n, 2) + 1, dtype=np.int64)
    for ones in range(n + 1):
        expected[math.comb(ones, 2) + math.comb(n - ones, 2)] += math.comb(n, ones)
    return expected


def chunked_histogram(graph):
    """Independent oracle at any size: every edge recomputed over each
    2^20-state chunk of whole states, with no split of the vertex bits."""
    counts = np.zeros(len(graph.edges) + 1, dtype=np.int64)
    total, chunk = 1 << graph.vertex_count, 1 << 20
    for start in range(0, total, chunk):
        states = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        agreements = np.zeros(states.shape, dtype=np.int64)
        for u, v in graph.edges:
            agreements += 1 - (((states >> u) ^ (states >> v)) & 1)
        counts += np.bincount(agreements, minlength=len(graph.edges) + 1)
    return counts


def test_histogram_dense_graph_closed_form():
    # 136 edges
    hist = build_histogram(complete_graph(17))
    assert np.array_equal(hist.counts, complete_graph_counts(17))


def k23_plus_pendant_counts(neighbours):
    """Closed form for K23 plus vertex 23 joined to the first `neighbours`
    vertices: with a ones among the 23, j of them among those neighbours and
    vertex 23 at spin s, H = C(a,2) + C(23-a,2) + (j if s else neighbours - j)."""
    expected = np.zeros(253 + neighbours + 1, dtype=np.int64)
    for ones in range(24):
        clique = math.comb(ones, 2) + math.comb(23 - ones, 2)
        for j in range(min(ones, neighbours) + 1):
            ways = math.comb(neighbours, j) * math.comb(23 - neighbours, ones - j)
            expected[clique + j] += ways
            expected[clique + neighbours - j] += ways
    return expected


@pytest.mark.parametrize("neighbours", [2, 3], ids=["255-edges", "256-edges"])
def test_histogram_either_side_of_255_edges(neighbours):
    # the per-state disagreement counts are uint8 whatever #E is: a count is
    # the size of a cut, at most 144 on 24 vertices
    edges = tuple(itertools.combinations(range(23), 2)) + tuple(
        (w, 23) for w in range(neighbours)
    )
    graph = LatticeGraph(vertex_count=24, edges=edges)
    assert len(graph.edges) == 253 + neighbours
    expected = k23_plus_pendant_counts(neighbours)
    assert int(expected.sum()) == 1 << 24
    assert np.array_equal(build_histogram(graph).counts, expected)


def test_histogram_k24_closed_form():
    # 276 edges, the most a 24-vertex graph can carry
    assert np.array_equal(build_histogram(complete_graph(24)).counts, complete_graph_counts(24))


@pytest.mark.parametrize("vertex_count", [1, 2, 24])
def test_histogram_edgeless_graph(vertex_count):
    hist = build_histogram(LatticeGraph(vertex_count=vertex_count, edges=()))
    assert hist.counts.tolist() == [1 << vertex_count]


# Level counts of the 6x4 grid, pinned from the whole-state enumeration.
GRID_6X4_COUNTS = [
    2, 0, 8, 40, 86, 280, 902, 2328, 6132, 15520, 36266, 79712, 164222,
    314896, 555804, 899880, 1327336, 1764408, 2103546, 2234480, 2103546,
    1764408, 1327336, 899880, 555804, 314896, 164222, 79712, 36266, 15520,
    6132, 2328, 902, 280, 86, 40, 8, 0, 2,
]


def _relabelled(graph, seed):
    label = np.random.default_rng(seed).permutation(graph.vertex_count).tolist()
    return LatticeGraph(graph.vertex_count, tuple((label[u], label[v]) for u, v in graph.edges))


def _reversed(graph):
    return LatticeGraph(graph.vertex_count, tuple((v, u) for u, v in graph.edges))


@pytest.mark.parametrize(
    "graph",
    [
        LatticeGraph.grid(6, 4),
        LatticeGraph.grid(4, 6),
        _relabelled(LatticeGraph.grid(4, 6), SEED),
        _reversed(LatticeGraph.grid(4, 6)),
    ],
    ids=["6x4", "4x6", "4x6-relabelled", "4x6-reversed"],
)
def test_histogram_24_vertex_grid_pinned(graph):
    # the same lattice however its vertices are numbered and edges oriented:
    # relabelling changes which edges reach the top vertex, which is fixed
    # at 0, and how far apart each edge's bits are
    assert build_histogram(graph).counts.tolist() == GRID_6X4_COUNTS


@pytest.mark.parametrize(
    "edges",
    [
        tuple((i, i + 1) for i in range(23)),
        tuple((0, i) for i in range(1, 24)),
        tuple((23, i) for i in range(23)),
    ],
    ids=["path", "star-low-hub", "star-high-hub"],
)
def test_histogram_24_vertex_trees(edges):
    # every edge of a tree agrees independently: counts[h] = 2 C(23, h)
    hist = build_histogram(LatticeGraph(vertex_count=24, edges=edges))
    assert hist.counts.tolist() == [2 * math.comb(23, h) for h in range(24)]


def test_histogram_k22_closed_form():
    # every vertex adds a strided pass per lower neighbour, up to 20 of them
    assert np.array_equal(build_histogram(complete_graph(22)).counts, complete_graph_counts(22))


def test_histogram_21_vertices_matches_chunked_oracle():
    rng = np.random.default_rng(SEED)
    edges = tuple(pair for pair in itertools.combinations(range(21), 2) if rng.random() < 0.3)
    # vertex 20 is the top vertex, fixed at 0; it must carry edges
    assert any(v == 20 for _, v in edges)
    graph = LatticeGraph(vertex_count=21, edges=edges)
    assert np.array_equal(build_histogram(graph).counts, chunked_histogram(graph))


def _sparse_low_edges(vertex_count, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        pair for pair in itertools.combinations(range(vertex_count), 2) if rng.random() < 0.12
    )


@pytest.mark.parametrize(
    "extra_edges",
    [
        ((3, 20), (11, 20), (19, 20)),
        ((3, 20), (11, 20), (20, 21)),
    ],
    ids=["top-isolated", "top-high-high-only"],
)
def test_histogram_22_vertices_matches_chunked_oracle(extra_edges):
    # the enumeration fixes the top vertex (21) at 0 and doubles; the oracle
    # walks all 2^22 whole states, so a top vertex with no edge, or with only
    # an edge to vertex 20, must come out the same
    graph = LatticeGraph(vertex_count=22, edges=_sparse_low_edges(20, SEED) + extra_edges)
    assert np.array_equal(build_histogram(graph).counts, chunked_histogram(graph))


@pytest.mark.parametrize(
    "graph",
    [LatticeGraph.grid(6, 4), complete_graph(22), complete_graph(24)],
    ids=["6x4", "K22", "K24"],
)
def test_histogram_peak_memory_at_most_32_mib(graph):
    tracemalloc.start()
    try:
        build_histogram(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "graph",
    [
        LatticeGraph.grid(6, 4),
        complete_graph(22),
        complete_graph(24),
        LatticeGraph(24, _sparse_low_edges(24, SEED)),
    ],
    ids=["6x4", "K22", "K24", "random-24"],
)
def test_histogram_peak_memory_at_most_2_mib(graph):
    # one 2^18-state uint8 block, its copy and a 2^16-state int64 bincount
    # chunk: about 1 MiB whatever the graph
    tracemalloc.start()
    try:
        build_histogram(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak / 2**20


@st.composite
def _graphs_and_block_widths(draw):
    vertex_count = draw(st.integers(min_value=1, max_value=12))
    pairs = list(itertools.combinations(range(vertex_count), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = LatticeGraph(vertex_count, tuple(pair for pair, kept in zip(pairs, keep) if kept))
    return graph, draw(st.integers(min_value=0, max_value=vertex_count - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_graphs_and_block_widths())
@example(case=(complete_graph(8), 0))  # every edge between two high bits
@example(case=(complete_graph(8), 3))  # edges inside, across and above the block
@example(case=(complete_graph(8), 7))  # no high bit but the top vertex
@example(case=(LatticeGraph(6, ((0, 5), (2, 5))), 5))  # only the top vertex above
def test_histogram_any_block_width_matches_brute_force(case):
    # the block holds the low `width` bits, and each assignment of the bits
    # between it and the top vertex (fixed at 0) is added on its own
    graph, width = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ising, "_BLOCK_BITS", width)
        counts = build_histogram(graph).counts
    assert np.array_equal(counts, chunked_histogram(graph))


def test_histogram_4x4_totals():
    hist = build_histogram(LatticeGraph.grid(4, 4))
    assert int(hist.counts.sum()) == 65536
    # the two constant configurations agree on every edge
    assert int(hist.counts[-1]) == 2
    assert hist.edge_count == 24


def test_histogram_validates_total():
    with pytest.raises(ValueError):
        HamiltonianHistogram(vertex_count=3, counts=np.array([1, 2, 3]))


def test_histogram_rejects_negative_counts():
    # sums to 2^1, but a negative count has no logarithm
    with pytest.raises(ValueError, match="nonnegative"):
        HamiltonianHistogram(vertex_count=1, counts=[-1, 3])


def test_histogram_rejects_non_integral_counts():
    # sums to 2^1 after truncation to [1, 0, 1]
    with pytest.raises(ValueError, match="integers"):
        HamiltonianHistogram(vertex_count=1, counts=[1.9, 0.1, 1.0])
    assert HamiltonianHistogram(vertex_count=1, counts=[1.0, 1.0]).counts.tolist() == [1, 1]


def test_histogram_rejects_nonpositive_vertex_count():
    with pytest.raises(ValueError, match="positive"):
        HamiltonianHistogram(vertex_count=0, counts=[1])


def test_histogram_rejects_non_integer_vertex_count():
    with pytest.raises(ValueError, match="positive integer"):
        HamiltonianHistogram(vertex_count=2.5, counts=[2, 2])
    with pytest.raises(ValueError, match="positive integer"):
        HamiltonianHistogram(vertex_count=1.0, counts=[1, 1])


def test_histogram_rejects_vertex_count_above_limit():
    with pytest.raises(SizeExceededError):
        HamiltonianHistogram(
            vertex_count=ENUMERATION_LIMIT + 1, counts=[1 << (ENUMERATION_LIMIT + 1)]
        )


def test_histogram_counts_are_write_locked():
    hist = build_histogram(LatticeGraph.grid(2, 2))
    with pytest.raises(ValueError):
        hist.counts[0] = 99


def test_histogram_and_family_compare_and_hash():
    # a histogram compares by identity; a family by its fields
    hist = build_histogram(LatticeGraph.grid(2, 2))
    assert hist == hist
    assert hist != build_histogram(LatticeGraph.grid(2, 2))
    family = IsingGibbsFamily(hist)
    assert hash(family) == hash(IsingGibbsFamily(hist))
    assert family == IsingGibbsFamily(hist)
    assert family in {IsingGibbsFamily(hist)}
    assert IsingGibbsFamily(hist, beta_outer=2.0) not in {family}


# ---------------------------------------------------------------------------
# partition_function
# ---------------------------------------------------------------------------


def test_partition_function_at_zero_is_state_count():
    for graph in (LatticeGraph.grid(2, 2), LatticeGraph.grid(3, 4)):
        hist = build_histogram(graph)
        assert partition_function(hist, 0.0) == 2.0**graph.vertex_count


def test_partition_function_2x2_closed_form():
    hist = build_histogram(LatticeGraph.grid(2, 2))
    expected = 2.0 * math.exp(4.0) + 12.0 * math.exp(2.0) + 2.0
    assert partition_function(hist, 1.0) == pytest.approx(expected, rel=1e-14)


def test_partition_function_4x4_reference_values():
    # the reference displays are truncated: the exact constants are
    # Z(1) = 3.2196575...e11 and ln ratio = 15.40735..., so the right check
    # is a leading-digit match (3.219 / 15.40), not rounding
    hist = build_histogram(LatticeGraph.grid(4, 4))
    z1 = partition_function(hist, 1.0)
    assert 3.219e11 <= z1 < 3.220e11
    log_ratio = log_partition_function(hist, 1.0) - log_partition_function(hist, 0.0)
    assert 15.40 <= log_ratio < 15.41
    assert log_ratio == pytest.approx(15.4073561351, abs=1e-9)


def test_partition_function_strictly_increasing_in_beta():
    hist = build_histogram(LatticeGraph.grid(2, 3))
    betas = np.linspace(-1.0, 3.0, 17)
    values = [partition_function(hist, b) for b in betas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_log_partition_function_consistency_and_stability():
    hist = build_histogram(LatticeGraph.grid(3, 3))
    for beta in (-0.5, 0.0, 0.7, 1.0):
        assert log_partition_function(hist, beta) == pytest.approx(
            math.log(partition_function(hist, beta)), rel=1e-13
        )
    # far beyond float range for the plain sum: dominated by the two
    # all-agree states, ln Z -> ln 2 + beta * #E
    beta = 200.0
    assert log_partition_function(hist, beta) == pytest.approx(
        math.log(2.0) + beta * hist.edge_count, rel=1e-12
    )


def test_level_weight_normalization_matches_partition_function():
    hist = build_histogram(LatticeGraph.grid(3, 3))
    for beta in (0.0, 0.5, 1.0, 2.0):
        log_weights = np.log(hist.counts[hist.counts > 0].astype(float)) + beta * np.flatnonzero(hist.counts)
        peak = log_weights.max()
        total = math.exp(peak) * float(np.sum(np.exp(log_weights - peak)))
        assert total == pytest.approx(partition_function(hist, beta), rel=1e-12)


# ---------------------------------------------------------------------------
# sample_hamiltonian
# ---------------------------------------------------------------------------


def test_sampling_single_level_graph_is_constant():
    hist = build_histogram(LatticeGraph.grid(1, 1))
    rng = RngStream(SEED)
    assert all(sample_hamiltonian(hist, 1.0, rng) == 0 for _ in range(500))


def test_sampling_level_frequencies_at_beta_zero():
    # at beta = 0 the level law is the histogram itself: (2, 12, 2)/16
    hist = build_histogram(LatticeGraph.grid(2, 2))
    rng = RngStream(SEED, 1)
    n = 100_000
    draws = np.array([sample_hamiltonian(hist, 0.0, rng) for _ in range(n)])
    for level, probability in ((0, 2 / 16), (2, 12 / 16), (4, 2 / 16)):
        frequency = float(np.mean(draws == level))
        band = 3.0 * math.sqrt(probability * (1.0 - probability) / n)
        assert abs(frequency - probability) <= band
    assert set(np.unique(draws)) <= {0, 2, 4}


def test_sampling_mean_at_beta_one():
    hist = build_histogram(LatticeGraph.grid(2, 2))
    rng = RngStream(SEED, 2)
    n = 100_000
    draws = np.array([sample_hamiltonian(hist, 1.0, rng) for _ in range(n)])
    z = partition_function(hist, 1.0)
    levels = np.arange(hist.counts.size)
    mean_oracle = float(np.sum(levels * hist.counts * np.exp(levels.astype(float))) / z)
    var_oracle = float(
        np.sum(levels**2 * hist.counts * np.exp(levels.astype(float))) / z
    ) - mean_oracle**2
    assert abs(draws.mean() - mean_oracle) <= 3.0 * math.sqrt(var_oracle / n)


def test_sampling_respects_hamiltonian_range():
    hist = build_histogram(LatticeGraph.grid(3, 2))
    rng = RngStream(SEED, 3)
    for beta in (-1.0, 0.0, 1.0, 5.0):
        for _ in range(200):
            h = sample_hamiltonian(hist, beta, rng)
            assert 0 <= h <= hist.edge_count


def test_family_contract():
    hist = build_histogram(LatticeGraph.grid(2, 2))
    family = IsingGibbsFamily(hist)
    assert family.beta_inner < family.beta_outer
    rng, twin = RngStream(SEED, 4), RngStream(SEED, 4)
    draws = [family.sample_hamiltonian(0.3, rng) for _ in range(2000)]
    assert set(draws) == {0, 2, 4}
    # the family hands on the level the histogram sampler draws
    assert draws == [sample_hamiltonian(hist, 0.3, twin) for _ in range(2000)]


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_sampling_rejects_non_finite_beta(beta):
    hist = build_histogram(LatticeGraph.grid(3, 3))
    with pytest.raises(ValueError, match="beta must be finite"):
        sample_hamiltonian(hist, beta, RngStream(SEED, 5))


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_family_rejects_non_finite_beta(beta):
    family = IsingGibbsFamily(build_histogram(LatticeGraph.grid(3, 3)))
    with pytest.raises(ValueError, match="beta must be finite"):
        family.sample_hamiltonian(beta, RngStream(SEED, 5))


@pytest.mark.parametrize("width,height,stream", [(2, 2, 6), (3, 3, 7)])
def test_sampling_level_frequencies_off_grid(width, height, stream):
    # the exact level law counts[h] e^{beta h} / Z(beta) at a beta strictly
    # inside a cell of the sampler's table grid
    beta = 0.3713
    hist = build_histogram(LatticeGraph.grid(width, height))
    assert beta * hist._grid_scale != math.floor(beta * hist._grid_scale)
    rng = RngStream(SEED, stream)
    n = 100_000
    draws = np.array([sample_hamiltonian(hist, beta, rng) for _ in range(n)])
    levels = np.arange(hist.counts.size)
    law = hist.counts * np.exp(beta * levels) / partition_function(hist, beta)
    for level, probability in enumerate(law):
        frequency = float(np.mean(draws == level))
        band = 3.0 * math.sqrt(probability * (1.0 - probability) / n)
        assert abs(frequency - probability) <= band


@pytest.mark.parametrize("width,height", [(1, 1), (2, 2), (3, 3), (4, 4), (4, 6)])
def test_sampling_matches_direct_inversion_bit_for_bit(width, height):
    hist = build_histogram(LatticeGraph.grid(width, height))
    scale, limit = hist._grid_scale, ising._GRID_LIMIT
    # grid points, their float neighbours on both sides, and the ends of
    # the tabulated range
    betas = []
    for j in (0, 1, -1, 7, -7, 333, scale, -scale, limit - 1, limit, limit + 1, -limit, -limit - 1):
        beta = j / scale
        betas += [beta, math.nextafter(beta, -math.inf), math.nextafter(beta, math.inf)]
    gen = np.random.default_rng(100 * width + height)
    betas += gen.uniform(-3.0, 3.0, 200).tolist()
    # beta * #E far past exp's range: only the peak shift keeps weights finite
    betas += [50.0, -50.0, 1000.0, -1000.0]
    pairs = [(beta, u) for beta in betas for u in gen.random(100).tolist()]
    assert len(pairs) >= 20_000
    assert_matches_reference(hist, pairs)


@pytest.mark.parametrize("width,height", [(3, 3), (4, 4)])
def test_sampling_near_table_entries_takes_direct_inversion(width, height, monkeypatch):
    hist = build_histogram(LatticeGraph.grid(width, height))
    scale, limit = hist._grid_scale, ising._GRID_LIMIT
    pairs = []
    # cells inside the range and at both of its ends, and the closed top
    # point, which lies in the last cell
    cells = {0: (0.0, 0.37), 5: (0.0, 0.37), 1000: (0.0, 0.37), limit - 1: (0.0, 0.37, 1.0)}
    for j, offsets in cells.items():
        for beta in ((j + offset) / scale for offset in offsets):
            for edge in (j, j + 1):
                _, cumulative = reference_cdf(hist, edge / scale)
                for entry in (cumulative / cumulative[-1]).tolist():
                    for offset in (-1e-15, -2e-16, 0.0, 2e-16, 1e-15):
                        if 0.0 <= entry + offset < 1.0:
                            pairs.append((beta, entry + offset))
    # fill the tables first, then count the draws that invert directly
    for beta in {beta for beta, _ in pairs}:
        sample_hamiltonian(hist, beta, FixedUniforms([0.5]))
    direct = []
    real_cumulative_weights = ising._cumulative_weights

    def counting(hist, beta):
        direct.append(beta)
        return real_cumulative_weights(hist, beta)

    monkeypatch.setattr(ising, "_cumulative_weights", counting)
    assert_matches_reference(hist, pairs)
    assert direct == [beta for beta, _ in pairs]


def _guide_cells(hist):
    """Cells at both ends of the tabulated range [0, L], and seeded ones."""
    limit = ising._GRID_LIMIT
    gen = np.random.default_rng(hist.edge_count)
    return [0, 1, 2, limit - 2, limit - 1] + gen.integers(0, limit, 12).tolist()


@pytest.mark.parametrize("width,height", [(2, 2), (3, 3), (4, 4), (4, 6)])
def test_sampling_at_guide_bucket_edges_matches_direct_inversion(width, height):
    hist = build_histogram(LatticeGraph.grid(width, height))
    size, margin = ising._GUIDE_SIZE, ising._TABLE_MARGIN
    uniforms = []
    for bucket in range(size):
        edge = bucket / size
        uniforms += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        uniforms += [edge - margin, edge + margin]
    uniforms.append(math.nextafter(1.0, 0.0))
    uniforms = [u for u in uniforms if 0.0 <= u < 1.0]
    # the cell's left end, a float past it, its middle, its last float and
    # its right end (the next cell's left end, or the closed top point)
    betas = []
    for j in _guide_cells(hist):
        left, right = j / hist._grid_scale, (j + 1) / hist._grid_scale
        betas += [left, math.nextafter(left, math.inf), (j + 0.5) / hist._grid_scale]
        betas += [math.nextafter(right, -math.inf), right]
    assert_matches_reference(hist, [(beta, u) for beta in betas for u in uniforms])


@pytest.mark.parametrize("width,height", [(2, 2), (2, 3), (3, 3), (4, 4), (4, 6)])
def test_guide_levels_hold_across_each_bucket(width, height):
    # both bracket indices are nondecreasing in u, so a guide level is right
    # for the whole bucket exactly when the bracket decides that level at the
    # bucket's first and last uniforms.  At beta = 0 the tables of the small
    # grids hold entries on bucket edges (2x2: 32/256 and 224/256), or within
    # rounding of them, where only the margin keeps a bucket undecided
    hist = build_histogram(LatticeGraph.grid(width, height))
    size, margin, limit = ising._GUIDE_SIZE, ising._TABLE_MARGIN, ising._GRID_LIMIT
    decided = 0
    # the closed top point lies in the last cell and fills its guide
    sample_hamiltonian(hist, limit / hist._grid_scale, FixedUniforms([0.5]))
    assert hist._guides[limit - 1] is not None
    for j in _guide_cells(hist):
        sample_hamiltonian(hist, j / hist._grid_scale, FixedUniforms([0.5]))
        guide = hist._guides[j]
        lower, upper = hist._cdf_tables[j], hist._cdf_tables[j + 1]
        assert len(guide) == size
        for bucket, level in enumerate(guide):
            if level < 0:
                continue
            decided += 1
            for u in (bucket / size, math.nextafter((bucket + 1) / size, 0.0)):
                index = bisect_right(lower, u - margin)
                assert index == bisect_right(upper, u + margin), (j, bucket)
                assert hist._level_values[index] == level, (j, bucket)
    assert decided > 0


@pytest.mark.parametrize("width,height", [(4, 4), (4, 6)])
def test_guide_settles_most_draws(width, height, monkeypatch):
    hist = build_histogram(LatticeGraph.grid(width, height))
    gen = np.random.default_rng(width * height)
    pairs = list(zip(gen.random(40_000).tolist(), gen.random(40_000).tolist()))
    # fill the caches first: building a table calls _cumulative_weights too
    for beta, _ in pairs:
        sample_hamiltonian(hist, beta, FixedUniforms([0.5]))
    bisects, direct = [], []
    real_bisect, real_cumulative_weights = ising.bisect_right, ising._cumulative_weights

    def counting_bisect(table, value):
        bisects.append(value)
        return real_bisect(table, value)

    def counting_cumulative_weights(hist, beta):
        direct.append(beta)
        return real_cumulative_weights(hist, beta)

    monkeypatch.setattr(ising, "bisect_right", counting_bisect)
    monkeypatch.setattr(ising, "_cumulative_weights", counting_cumulative_weights)
    assert_matches_reference(hist, pairs)
    bracketed = len(bisects) // 2
    assert len(bisects) == 2 * bracketed
    guided = len(pairs) - bracketed
    assert len(direct) <= bracketed
    # about 6% of the buckets are undecided on 4x4 and 8% on 6x4
    assert guided >= 0.85 * len(pairs), (guided, bracketed, len(direct))


def test_sampler_caches_on_6x4_take_at_most_6_mib():
    # every table and guide of beta in [0, 1], which is the whole cache:
    # 4097 tables, 4096 guides
    hist = build_histogram(LatticeGraph.grid(6, 4))
    assert hist._grid_scale == ising._GRID_LIMIT
    betas = [j / hist._grid_scale for j in range(ising._GRID_LIMIT + 1)]
    assert betas[-1] == 1.0
    uniforms = FixedUniforms([0.5] * len(betas))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for beta in betas:
            sample_hamiltonian(hist, beta, uniforms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hist._cdf_tables) == ising._GRID_LIMIT + 1 and None not in hist._cdf_tables
    assert len(hist._guides) == ising._GRID_LIMIT and None not in hist._guides
    assert peak - start <= 6 * 2**20, (peak - start) / 2**20


def test_sampling_at_beta_one_on_6x4_takes_the_tables(monkeypatch):
    # beta = 1, where every descent starts, is the closed top point of the
    # 6x4 grid (38 edges, grid scale 4096), so it lies in the last cell:
    # once that cell is warm, every draw its bracket decides is settled
    # without the direct inversion
    hist = build_histogram(LatticeGraph.grid(6, 4))
    limit, margin = ising._GRID_LIMIT, ising._TABLE_MARGIN
    assert hist._grid_scale == limit
    sample_hamiltonian(hist, 1.0, FixedUniforms([0.5]))
    lower, upper = hist._cdf_tables[limit - 1], hist._cdf_tables[limit]
    uniforms = np.random.default_rng(38).random(20_000).tolist()
    decided = [
        u for u in uniforms
        if bisect_right(lower, u - margin) == bisect_right(upper, u + margin)
    ]
    # the cell is 1/4096 wide, so its bracket leaves few uniforms undecided
    assert len(decided) >= 0.99 * len(uniforms)
    direct = []
    real_cumulative_weights = ising._cumulative_weights

    def counting(hist, beta):
        direct.append(beta)
        return real_cumulative_weights(hist, beta)

    monkeypatch.setattr(ising, "_cumulative_weights", counting)
    assert_matches_reference(hist, [(1.0, u) for u in decided])
    assert direct == []


def test_sampling_threads_share_one_histogram():
    # threads fill the cold table cache concurrently; every draw must still
    # match the direct inversion
    hist = build_histogram(LatticeGraph.grid(4, 4))
    gen = np.random.default_rng(17)
    work = [list(zip(gen.random(3000).tolist(), gen.random(3000).tolist())) for _ in range(4)]
    results = [None] * len(work)

    def draw(slot):
        uniforms = FixedUniforms(u for _, u in work[slot])
        results[slot] = [sample_hamiltonian(hist, beta, uniforms) for beta, _ in work[slot]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(slot,)) for slot in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for pairs, got in zip(work, results):
        assert got == [reference_inversion(hist, beta, u) for beta, u in pairs]


_PROPERTY_HISTOGRAMS = [build_histogram(LatticeGraph.grid(w, h)) for w, h in ((1, 1), (2, 2), (2, 3), (3, 3))]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(
    hist=st.sampled_from(_PROPERTY_HISTOGRAMS),
    beta=st.one_of(
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(min_value=-(1 << 13), max_value=1 << 13).map(lambda j: j / 1024),
    ),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_sampling_matches_direct_inversion_property(hist, beta, u):
    assert_matches_reference(hist, [(beta, u)])


def test_two_phase_stream_pinned_on_3x3():
    # recorded with direct inversion on every draw: the table path must
    # reproduce each draw, so the whole report repeats exactly (within one
    # numpy version; the interval endpoints also depend on scipy's Gamma
    # quantiles).
    family = IsingGibbsFamily(build_histogram(LatticeGraph.grid(3, 3)))
    report = two_phase_scheme(family, 0.2, 0.1, RngStream(11, 0))
    assert report.r_hat1 == 7.3903477780003195
    assert report.r_hat2 == 7.677962472145316
    assert (report.ci.lower, report.ci.upper) == (1904.5491808674792, 2456.1905723643104)
    assert report.total_tpa_calls == 1298
