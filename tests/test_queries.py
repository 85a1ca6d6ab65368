"""Query parsing, validation, and exact evaluation."""

import copy as copy_module
import dataclasses
import pickle

import numpy as np
import pytest

from privcurator import (
    BudgetLedger,
    Dataset,
    DomainBounds,
    MechanismConfig,
    PreconditionError,
    QueryError,
    QuerySpec,
    RandomSource,
    answer,
    evaluate,
)
from privcurator import queries


def _data(*values):
    return Dataset(np.array(values, dtype=float), DomainBounds(-100, 100))


def test_parse_round_trips():
    for text in ("median", "max", "max2", "count:0:5", "count:0.5:1", "hist:0,0.5,1"):
        q = QuerySpec.parse(text)
        assert q.to_string() == text
        assert QuerySpec.parse(q.to_string()) == q


def test_parse_rejects_malformed():
    for text in ("quantile", "count:1", "count:1:2:3", "count:a:b", "hist:1", "hist:x,y", ""):
        with pytest.raises(QueryError):
            QuerySpec.parse(text)


def test_spec_validation():
    with pytest.raises(QueryError):
        QuerySpec("mean")
    with pytest.raises(QueryError):
        QuerySpec.range_count(3, 1)
    with pytest.raises(QueryError):
        QuerySpec.range_count(0, float("inf"))
    with pytest.raises(QueryError):
        QuerySpec.histogram([1.0])
    with pytest.raises(QueryError):
        QuerySpec.histogram([0.0, 0.0, 1.0])
    with pytest.raises(QueryError):
        QuerySpec("median", lo=0.0)
    # a zero-width count range is legal (counts exact hits)
    assert QuerySpec.range_count(2, 2).lo == 2.0


def test_histogram_spec_errors_and_edge_types():
    for edges in ([], [1.0]):
        with pytest.raises(QueryError, match="at least 2 edges"):
            QuerySpec.histogram(edges)
    for edges in ([0.0, float("nan"), 1.0], [0.0, float("inf")], [-float("inf"), 0.0]):
        with pytest.raises(QueryError, match="must be finite"):
            QuerySpec.histogram(edges)
    for edges in ([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0]):
        with pytest.raises(QueryError, match="strictly increasing"):
            QuerySpec.histogram(edges)
    with pytest.raises(ValueError):
        QuerySpec.histogram(["a", "b"])
    # edges are stored as a tuple of Python floats, whatever the input type
    for given in (np.linspace(0.0, 1.0, 5), [0, 0.25, 0.5, 0.75, 1], (x / 4 for x in range(5))):
        q = QuerySpec.histogram(given)
        assert q.edges == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert all(type(e) is float for e in q.edges)
        assert q.to_string() == "hist:0,0.25,0.5,0.75,1"
    assert QuerySpec("histogram", edges=[0, 1]) == QuerySpec.histogram([0.0, 1.0])


def test_shape_helpers():
    assert QuerySpec.median().integer_valued is False
    assert QuerySpec.range_count(0, 1).integer_valued is True
    h = QuerySpec.histogram([0, 1, 2, 4])
    assert h.integer_valued and h.vector_valued
    assert h.n_bins == 3
    assert QuerySpec.maximum().n_bins == 1


def test_median_evaluation():
    assert evaluate(_data(5, 1, 3), QuerySpec.median()) == 3.0
    assert evaluate(_data(7), QuerySpec.median()) == 7.0
    with pytest.raises(PreconditionError):
        evaluate(_data(1, 2), QuerySpec.median())


def test_order_statistics():
    d = _data(4, 9, 2, 9, 7)
    assert evaluate(d, QuerySpec.maximum()) == 9.0
    assert evaluate(d, QuerySpec.second_maximum()) == 9.0  # ties count separately
    assert evaluate(_data(1, 5), QuerySpec.second_maximum()) == 1.0
    with pytest.raises(PreconditionError):
        evaluate(_data(1), QuerySpec.second_maximum())


def test_range_count_closed_interval():
    d = _data(0, 1, 2, 3, 4)
    assert evaluate(d, QuerySpec.range_count(1, 3)) == 3
    assert evaluate(d, QuerySpec.range_count(1.5, 1.6)) == 0
    assert evaluate(d, QuerySpec.range_count(4, 4)) == 1
    assert isinstance(evaluate(d, QuerySpec.range_count(0, 4)), int)


def test_histogram_last_bin_closed():
    d = _data(0, 0.5, 1, 1, 2)
    counts = evaluate(d, QuerySpec.histogram([0, 1, 2]))
    # [0,1) gets two values, [1,2] keeps the right edge
    assert counts.tolist() == [2, 3]
    assert counts.dtype == np.int64


def test_evaluation_ignores_input_order():
    rng = np.random.default_rng(0)
    qs = [QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
          QuerySpec.range_count(-0.5, 0.5), QuerySpec.histogram([-2, 0, 2])]
    for _ in range(25):
        values = rng.normal(size=7)
        d1 = Dataset(values, DomainBounds(-10, 10))
        d2 = Dataset(values[::-1].copy(), DomainBounds(-10, 10))
        for q in qs:
            assert np.all(evaluate(d1, q) == evaluate(d2, q))


def _scan(values, q):
    # the definitions, by a full pass over the values
    if q.kind == "range_count":
        return int(np.count_nonzero((values >= q.lo) & (values <= q.hi)))
    return np.histogram(values, bins=np.asarray(q.edges))[0]


def test_counts_match_the_definitional_scan():
    rng = np.random.default_rng(31)
    bounds = DomainBounds(-5, 5)
    edge_sets = ([0.0, 1.0], [-1.0, 0.0, 0.5, 1.0], [-5.0, -2.5, 0.0, 2.5, 5.0],
                 [1.25, 1.5, 3.0], [-4.9, 4.9], [6.0, 7.0], [-9.0, -6.0, 9.0])
    ranges = [(0.0, 0.0), (0.5, 0.5), (0.25, 0.25), (-1.0, 1.0), (-5.0, 5.0),
              (6.0, 8.0), (-8.0, -6.0), (-0.5, 0.5), (1.0, 3.0)]
    for size in (1, 2, 7, 50, 301):
        for _ in range(10):
            # half-integer steps: heavy ties, many values exactly on an edge
            raw = rng.integers(-8, 9, size) / 2.0
            if rng.random() < 0.3:
                raw[:] = raw[0]  # all tied
            d = Dataset(raw, bounds)
            for lo, hi in ranges:
                q = QuerySpec.range_count(lo, hi)
                got = evaluate(d, q)
                assert type(got) is int
                assert got == _scan(d.values, q), (raw, lo, hi)
            for edges in edge_sets:
                q = QuerySpec.histogram(edges)
                got = evaluate(d, q)
                assert got.dtype == np.int64
                assert got.tolist() == _scan(d.values, q).tolist(), (raw, edges)


def _uncached_label(q):
    return "hist:" + ",".join(queries._fmt(e) for e in q.edges)


def test_histogram_label_is_formatted_once_per_distinct_spec(monkeypatch):
    edges = np.linspace(-3.0, 7.0, 101) + 1 / 3
    q = QuerySpec.histogram(edges)
    expected = _uncached_label(q)
    calls = []
    fmt = queries._fmt
    monkeypatch.setattr(queries, "_fmt", lambda x: calls.append(x) or fmt(x))
    queries._histogram_label.cache_clear()
    d = _data(*np.linspace(-3.0, 7.0, 11))
    cfg = MechanismConfig("dp_global", 0.1)
    ledger = BudgetLedger(1.0)
    first = answer(d, q, cfg, RandomSource(0), ledger)
    answer(d, q, cfg, RandomSource(0), ledger)
    answer(d, QuerySpec.histogram(list(edges)), cfg, RandomSource(0), ledger)
    assert first.to_json_dict()["query"] == expected
    assert [e.query for e in ledger.entries] == [expected] * 3
    assert len(calls) == 101


def test_cached_histogram_label_equals_uncached_formatting():
    rng = np.random.default_rng(11)
    edge_sets = [[-0.0, 1.0], [0.0, 1.0], [-1.0, -0.0, 2.0], [-2.0, 0.0, 0.5, 3.0],
                 [1e15, 1e15 + 1.0, 2e16], [-1e300, 0.1, 1e300]]
    for _ in range(50):
        k = int(rng.integers(2, 40))
        raw = rng.choice([rng.normal(size=k) * 10.0 ** rng.integers(-8, 9),
                          rng.integers(-50, 50, k).astype(float)])
        edge_sets.append(np.unique(raw))
    for edges in edge_sets:
        if len(edges) < 2:
            continue
        q = QuerySpec.histogram(edges)
        for _ in range(2):  # a miss, then a hit
            assert q.to_string() == _uncached_label(q)
        assert QuerySpec.parse(q.to_string()) == q
    # -0.0 and 0.0 edges make equal specs, and equal specs share one label
    assert QuerySpec.histogram([-0.0, 1.0]) == QuerySpec.histogram([0.0, 1.0])
    assert QuerySpec.histogram([-0.0, 1.0]).to_string() == "hist:0,1"


def test_histogram_edge_array_is_read_only_and_private():
    given = np.array([0.0, 0.25, 0.5, 1.0])
    q = QuerySpec.histogram(given)
    arr = q._edge_array
    assert arr.dtype == np.float64 and not arr.flags.writeable
    assert arr.tolist() == list(q.edges)
    with pytest.raises(ValueError):
        arr[0] = 5.0
    # the caller's array is neither aliased nor frozen
    assert given.flags.writeable and not np.shares_memory(arr, given)
    given[0] = -1.0
    assert q._edge_array[0] == 0.0
    # the array is no field: equality, hashing and repr see the tuple only
    assert [f.name for f in dataclasses.fields(q)] == ["kind", "lo", "hi", "edges"]
    assert "_edge_array" not in repr(q)
    assert hash(q) == hash(QuerySpec.histogram(q.edges))


def test_histogram_spec_pickles_and_replaces():
    q = QuerySpec.histogram([-1.0, 0.0, 2.5, 4.0])
    d = _data(-1, 0, 1, 2.5, 3, 4)
    for copy in (pickle.loads(pickle.dumps(q)), dataclasses.replace(q)):
        assert copy == q and hash(copy) == hash(q)
        assert not copy._edge_array.flags.writeable
        assert copy.to_string() == q.to_string()
        assert evaluate(d, copy).tolist() == evaluate(d, q).tolist() == [1, 2, 3]
    moved = dataclasses.replace(q, edges=(0.0, 1.0))
    assert moved._edge_array.tolist() == [0.0, 1.0]
    assert evaluate(d, moved).tolist() == [2]


def test_spec_hash_is_the_field_tuple_hash_and_computed_once(monkeypatch):
    specs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
             QuerySpec.range_count(0.25, 0.75), QuerySpec.histogram(np.linspace(0.0, 1.0, 101)))
    for q in specs:
        fields = (q.kind, q.lo, q.hi, q.edges)
        assert hash(q) == hash(fields) == hash(q)
        # the kept hash is no field: equality and repr see the four fields only
        assert [f.name for f in dataclasses.fields(q)] == ["kind", "lo", "hi", "edges"]
        assert "_hash" not in repr(q)
        twin = QuerySpec(*fields)
        assert twin == q and hash(twin) == hash(q)
        for copy in (pickle.loads(pickle.dumps(q)), dataclasses.replace(q), copy_module.copy(q),
                     copy_module.deepcopy(q)):
            assert copy == q and hash(copy) == hash(q)
    # a histogram release hashes its 101 edges once: the memo and the label
    # cache both reuse the kept hash
    q = QuerySpec.histogram(np.linspace(0.0, 1.0, 101))
    d = _data(*np.linspace(0.0, 1.0, 11))
    hashed = []
    edges_type = type(q.edges)

    class CountingEdges(edges_type):
        def __hash__(self):
            hashed.append(1)
            return super().__hash__()

    object.__setattr__(q, "edges", CountingEdges(q.edges))
    queries._histogram_label.cache_clear()
    answer(d, q, MechanismConfig("gdp", 0.1, group_size=2), RandomSource(0), BudgetLedger(1.0))
    answer(d, q, MechanismConfig("gdp", 0.1, group_size=2), RandomSource(0), BudgetLedger(1.0))
    assert len(hashed) == 1
