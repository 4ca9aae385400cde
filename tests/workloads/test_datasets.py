"""Dataset generator invariants, and the memo that builds each once."""

import dataclasses

import numpy as np
import pytest

from repro import ExecutionMode
from repro.workloads import benchmark_names, get_benchmark
from repro.workloads.bfs import BfsWorkload
from repro.workloads.bht import BarnesHutWorkload, build_quadtree
from repro.workloads.regex_engine import build_anchored_dfa
from repro.workloads.regx import RegexWorkload
from repro.workloads.datasets import memo
from repro.workloads.datasets import (
    amr_grid,
    cage15_like,
    citation_network,
    darpa_packets,
    flight_network,
    graph500_like,
    join_tables,
    movielens_like,
    random_points,
    random_strings,
    usa_road,
)


GRAPH_GENERATORS = [
    lambda: citation_network(n=300),
    lambda: usa_road(n=400),
    lambda: cage15_like(n=250),
    lambda: graph500_like(n=250),
    lambda: flight_network(n=250),
]


class TestGraphs:
    @pytest.mark.parametrize("gen", GRAPH_GENERATORS)
    def test_csr_well_formed(self, gen):
        graph = gen()
        graph.validate()
        assert graph.num_vertices > 0
        assert graph.num_edges > 0

    @pytest.mark.parametrize("gen", GRAPH_GENERATORS)
    def test_deterministic(self, gen):
        a, b = gen(), gen()
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_citation_is_heavy_tailed(self):
        graph = citation_network(n=800)
        degrees = graph.degrees()
        assert degrees.max() > 6 * degrees.mean()

    def test_usa_road_low_degree(self):
        graph = usa_road(n=900)
        assert graph.degrees().max() <= 4

    def test_graph500_balanced(self):
        graph = graph500_like(n=500)
        degrees = graph.degrees()
        assert degrees.std() < 0.5 * degrees.mean()

    def test_flight_few_hubs(self):
        graph = flight_network(n=400, hubs=8)
        degrees = graph.degrees()
        big = (degrees >= 32).sum()
        assert 0 < big <= 10  # only the hubs are large

    def test_symmetry_of_coloring_graphs(self):
        for graph in (graph500_like(n=200), cage15_like(n=200)):
            adjacency = {
                v: set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)
            }
            for v, neighbors in adjacency.items():
                for u in neighbors:
                    assert v in adjacency[u], f"edge {v}->{u} not symmetric"

    def test_weights_when_requested(self):
        graph = citation_network(n=200, weighted=True)
        assert graph.weights is not None
        assert graph.weights.min() >= 1

    def test_no_self_loops(self):
        for gen in GRAPH_GENERATORS:
            graph = gen()
            for v in range(graph.num_vertices):
                assert v not in graph.neighbors(v)


class TestNonGraphData:
    def test_amr_grid_shape(self):
        grid = amr_grid(side=12)
        assert grid.num_cells == 144
        assert grid.energy.shape == (144,)
        assert (grid.energy > 0).all()
        assert (grid.energy > grid.threshold).any()  # some hot cells

    def test_points_in_unit_square(self):
        pts = random_points(n=500)
        assert pts.count == 500
        assert pts.x.min() >= 0 and pts.x.max() <= 1
        assert pts.y.min() >= 0 and pts.y.max() <= 1
        assert (pts.mass > 0).all()

    def test_darpa_packets_structure(self):
        packets = darpa_packets(n=40)
        assert packets.count == 40
        assert packets.alphabet == 256
        assert all(p.min() >= 0 and p.max() < 256 for p in packets.packets)
        assert len(packets.patterns) >= 1

    def test_random_strings_small_alphabet(self):
        packets = random_strings(n=30, alphabet=8)
        for p in packets.packets:
            assert p.min() >= ord("a")
            assert p.max() < ord("a") + 8

    def test_ratings_csr_consistency(self):
        data = movielens_like(num_users=60, num_items=30)
        assert data.item_indptr[-1] == data.num_ratings
        assert data.user_indptr[-1] == data.num_ratings
        # Same multiset of ratings in both layouts.
        assert sorted(data.item_ratings.tolist()) == sorted(data.user_ratings.tolist())

    def test_ratings_power_law(self):
        data = movielens_like(num_users=200, num_items=100)
        pops = np.diff(data.item_indptr)
        assert pops.max() > 2.5 * pops.mean()
        heavier = movielens_like(
            num_users=200, num_items=100, popularity_exponent=1.0
        )
        heavy_pops = np.diff(heavier.item_indptr)
        assert heavy_pops.max() > pops.max()  # exponent controls the skew

    def test_join_uniform_vs_gaussian_skew(self):
        uniform = join_tables("uniform", r_size=800, s_size=100)
        gauss = join_tables("gaussian", r_size=800, s_size=100)
        u_counts = np.bincount(uniform.r_keys, minlength=uniform.num_keys)
        g_counts = np.bincount(gauss.r_keys, minlength=gauss.num_keys)
        assert g_counts.max() > 2 * u_counts.max()

    def test_join_unknown_distribution(self):
        with pytest.raises(ValueError):
            join_tables("zipf")


GENERATORS = [
    citation_network, usa_road, cage15_like, graph500_like, flight_network,
    amr_grid, random_points, movielens_like, join_tables, darpa_packets,
    random_strings,
]

#: Where each benchmark's workload keeps its dataset.
_DATASET_ATTRS = ("graph", "grid", "points", "packets", "ratings", "data")
_REFERENCE_METHODS = (
    "reference_distances", "reference_potentials", "reference_colors",
    "reference_similarity", "reference_counts", "reference",
)

#: The structure besides its reference that a workload derives from its
#: dataset, by ``app_name``: the attribute ``__init__`` keeps it as, and
#: the memoised method that builds it.
_DERIVED = {"bht": ("tree", "quadtree"), "regx": ("dfa", "anchored_dfa")}
_DERIVING_BENCHMARKS = ("bht", "regx_string", "regx_darpa")


def _arrays(value):
    """Every array inside a dataset or a reference answer."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def _assert_same_content(a, b):
    if isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_content(x, y)
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for field in dataclasses.fields(a):
            _assert_same_content(getattr(a, field.name), getattr(b, field.name))
    else:
        assert a == b


@pytest.fixture
def cold_memo():
    """An empty memo for the test, then an empty one for the next."""
    memo.clear()
    yield memo
    memo.clear()


class TestMemo:
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_builds_are_read_only_and_frozen(self, generator):
        data = generator()
        arrays = list(_arrays(data))
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        field = dataclasses.fields(data)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, field, None)

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_uncached_build_equals_the_memoised_one(self, generator):
        _assert_same_content(generator(), generator.__wrapped__())

    def test_spellings_of_one_call_share_an_entry(self, cold_memo):
        a = citation_network(900)
        assert citation_network(n=900) is a
        assert citation_network(900, 3, 7, False) is a
        assert citation_network(n=900, seed=7) is a
        assert citation_network(n=901) is not a
        assert citation_network(n=900, seed=8) is not a
        assert citation_network(n=900, weighted=True) is not a
        assert join_tables("uniform") is join_tables(distribution="uniform", seed=47)

    def test_a_failed_build_is_not_kept(self, cold_memo):
        with pytest.raises(ValueError):
            join_tables("zipf")
        assert not cold_memo._entries

    def test_least_recently_used_goes_first_under_the_cap(
        self, cold_memo, monkeypatch
    ):
        size = sum(a.nbytes for a in _arrays(usa_road.__wrapped__(n=400)))
        monkeypatch.setattr(cold_memo, "MAX_BYTES", 2 * size + size // 2)
        first, second = usa_road(n=400, seed=1), usa_road(n=400, seed=2)
        assert usa_road(n=400, seed=1) is first  # now the most recent
        usa_road(n=400, seed=3)  # no room for three: evicts seed=2
        assert cold_memo._total <= cold_memo.MAX_BYTES
        assert usa_road(n=400, seed=1) is first
        assert usa_road(n=400, seed=2) is not second

    def test_a_build_larger_than_the_cap_is_not_kept(self, cold_memo, monkeypatch):
        monkeypatch.setattr(cold_memo, "MAX_BYTES", 1024)
        graph = usa_road(n=400)
        assert not graph.indptr.flags.writeable
        assert usa_road(n=400) is not graph
        assert cold_memo._total == 0

    def test_references_live_and_leave_with_their_dataset(self, cold_memo):
        workload = get_benchmark("bfs_citation", ExecutionMode.FLAT, 0.1)
        answer = workload.reference_distances()
        assert not answer.flags.writeable
        again = get_benchmark("bfs_citation", ExecutionMode.FLAT, 0.1)
        assert again.reference_distances() is answer
        # Another source is another answer.
        other = BfsWorkload("bfs", ExecutionMode.FLAT, workload.graph, source=5)
        assert other.reference_distances() is not answer
        cold_memo.clear()
        assert workload.reference_distances() is not answer

    def test_derived_keys_are_type_exact(self, cold_memo):
        class Probe:
            def __init__(self, data, flag):
                self.data, self.flag = data, flag

            @memo.memoised_derived("data", "flag")
            def value(self):
                return repr(self.flag)

        data = join_tables("uniform")
        assert Probe(data, 1).value() == "1"
        assert Probe(data, True).value() == "True"
        assert Probe(data, 1.0).value() == "1.0"
        assert Probe(data, True).value() is Probe(data, True).value()

    @pytest.mark.parametrize("name", _DERIVING_BENCHMARKS)
    def test_modes_share_one_derived_value(self, name):
        flat = get_benchmark(name, ExecutionMode.FLAT, 0.1)
        dtbl = get_benchmark(name, ExecutionMode.DTBL, 0.1)
        attr, method = _DERIVED[flat.app_name]
        assert getattr(flat, attr) is getattr(dtbl, attr) is getattr(dtbl, method)()

    @pytest.mark.parametrize("name", _DERIVING_BENCHMARKS)
    def test_derived_values_are_read_only_and_frozen(self, name):
        workload = get_benchmark(name, ExecutionMode.FLAT, 0.1)
        structure = getattr(workload, _DERIVED[workload.app_name][0])
        arrays = list(_arrays(structure))
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(structure, dataclasses.fields(structure)[0].name, None)

    def test_derived_values_leave_with_their_dataset(self, cold_memo, monkeypatch):
        tree = get_benchmark("bht", ExecutionMode.FLAT, 0.1).tree
        cold_memo.clear()
        workload = get_benchmark("bht", ExecutionMode.FLAT, 0.1)
        assert workload.tree is not tree
        dfa = get_benchmark("regx_string", ExecutionMode.FLAT, 0.1).dfa
        # Room for nothing: the next build evicts every entry, with what
        # was derived from it.
        monkeypatch.setattr(cold_memo, "MAX_BYTES", 1)
        usa_road(n=400)
        assert not cold_memo._entries and cold_memo._total == 0
        assert workload.quadtree() is not workload.tree
        again = get_benchmark("regx_string", ExecutionMode.FLAT, 0.1)
        assert again.dfa is not dfa

    def test_a_structure_built_by_hand_is_not_memoised(self, cold_memo):
        points = random_points.__wrapped__(n=120)
        bht = BarnesHutWorkload("bht", ExecutionMode.FLAT, points)
        assert bht.quadtree() is not bht.tree
        _assert_same_content(bht.quadtree(), bht.tree)
        packets = random_strings.__wrapped__(n=40)
        regx = RegexWorkload("regx", ExecutionMode.FLAT, packets)
        assert regx.anchored_dfa() is not regx.dfa
        _assert_same_content(regx.anchored_dfa(), regx.dfa)
        assert not cold_memo._entries

    def test_a_dataset_built_by_hand_is_not_memoised(self, cold_memo):
        graph = citation_network.__wrapped__(n=100)
        workload = BfsWorkload("bfs", ExecutionMode.FLAT, graph)
        first = workload.reference_distances()
        assert workload.reference_distances() is not first
        np.testing.assert_array_equal(first, workload.reference_distances())
        assert not cold_memo._entries


def _uncached_benchmark(monkeypatch, name, scale):
    """``get_benchmark`` with every generator bypassing the memo."""
    from repro.workloads.datasets import graphs, mesh, points, ratings, relations, strings

    with monkeypatch.context() as patch:
        for module in (graphs, mesh, points, ratings, relations, strings):
            for attr, value in list(vars(module).items()):
                if value in GENERATORS:
                    patch.setattr(module, attr, value.__wrapped__)
        return get_benchmark(name, ExecutionMode.FLAT, scale)


@pytest.mark.parametrize("scale", [0.1, 0.5])
@pytest.mark.parametrize("name", benchmark_names())
def test_memoised_inputs_equal_uncached_ones(monkeypatch, name, scale):
    memoised = get_benchmark(name, ExecutionMode.FLAT, scale)
    fresh = _uncached_benchmark(monkeypatch, name, scale)
    (attr,) = [a for a in _DATASET_ATTRS if hasattr(memoised, a)]
    assert getattr(fresh, attr) is not getattr(memoised, attr)
    _assert_same_content(getattr(memoised, attr), getattr(fresh, attr))
    (method,) = [m for m in _REFERENCE_METHODS if hasattr(memoised, m)]
    uncached = getattr(type(fresh), method).__wrapped__(fresh)
    first = getattr(memoised, method)()
    assert getattr(memoised, method)() is first
    _assert_same_content(first, memo.freeze(uncached))
    if isinstance(memoised, BarnesHutWorkload):
        assert memoised.quadtree() is memoised.tree
        direct = build_quadtree(fresh.points)
        _assert_same_content(memoised.tree, memo.freeze(direct))
    if isinstance(memoised, RegexWorkload):
        assert memoised.anchored_dfa() is memoised.dfa
        direct = build_anchored_dfa(fresh.packets.patterns, fresh.packets.alphabet)
        _assert_same_content(memoised.dfa, memo.freeze(direct))
