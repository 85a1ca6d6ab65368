"""Query parsing, validation, and exact evaluation."""

import numpy as np
import pytest

from privcurator import Dataset, DomainBounds, PreconditionError, QueryError, QuerySpec, evaluate


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
