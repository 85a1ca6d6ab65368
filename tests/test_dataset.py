"""Dataset container, bounds handling, CSV ingestion, synthetic draws."""

import copy
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from privcurator import (
    BoundsError,
    CsvFormatError,
    Dataset,
    DomainBounds,
    PreconditionError,
    load_csv,
    synthesize,
)
from privcurator.dataset import SYNTH_DISTRIBUTIONS, UNBOUNDED, encode_bound, synthesize_block


def test_bounds_defaults_and_span():
    b = DomainBounds()
    assert not b.is_bounded
    assert b.span == math.inf
    b = DomainBounds(-2.0, 3.0)
    assert b.is_bounded
    assert b.span == 5.0


def test_bounds_validation():
    with pytest.raises(BoundsError):
        DomainBounds(2.0, 1.0)
    with pytest.raises(BoundsError):
        DomainBounds(math.nan, 1.0)
    with pytest.raises(BoundsError):
        DomainBounds(math.inf, math.inf)
    with pytest.raises(BoundsError):
        DomainBounds(-math.inf, -math.inf)
    # a degenerate single-point domain is legal
    assert DomainBounds(1.0, 1.0).span == 0.0


def test_bounds_from_strings_and_encoding():
    b = DomainBounds.from_strings("unbounded", "3.5")
    assert b.lower == -math.inf and b.upper == 3.5
    b = DomainBounds.from_strings("-1", "UNBOUNDED")
    assert b.lower == -1.0 and b.upper == math.inf
    assert encode_bound(math.inf) == UNBOUNDED
    assert encode_bound(-math.inf) == UNBOUNDED
    assert encode_bound(2.0) == 2.0
    with pytest.raises(BoundsError):
        DomainBounds.from_strings("abc", "1")
    assert DomainBounds(0, 1).to_json_dict() == {"lower": 0.0, "upper": 1.0}


def test_dataset_sorts_and_freezes():
    d = Dataset(np.array([3.0, 1.0, 2.0]), DomainBounds(0, 5))
    assert list(d.values) == [1.0, 2.0, 3.0]
    assert d.n == 3 and len(d) == 3
    with pytest.raises(ValueError):
        d.values[0] = 9.0


def test_dataset_copies_are_rebuilt_frozen_with_an_empty_memo():
    d = Dataset(np.array([3.0, 1.0, 2.0]), DomainBounds(0, 5), name="x")
    d._memo["key"] = 1.0
    for c in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert c.values.tolist() == [1.0, 2.0, 3.0]
        assert not c.values.flags.writeable
        assert (c.bounds, c.name) == (d.bounds, d.name)
        assert c._memo == {}


def test_dataset_rejects_bad_values():
    with pytest.raises(PreconditionError):
        Dataset(np.array([]), DomainBounds())
    with pytest.raises(PreconditionError):
        Dataset(np.array([[1.0, 2.0]]), DomainBounds())
    with pytest.raises(BoundsError):
        Dataset(np.array([1.0, math.nan]), DomainBounds())
    with pytest.raises(BoundsError):
        Dataset(np.array([1.0, math.inf]), DomainBounds())
    with pytest.raises(BoundsError):
        Dataset(np.array([1.0, 7.0]), DomainBounds(0, 5))
    with pytest.raises(BoundsError):
        Dataset(np.array([-0.5, 2.0]), DomainBounds(0, 5))


def test_dataset_refuses_a_non_finite_value_anywhere():
    # the check reads the sorted ends: NaN sorts last and -inf/+inf to the ends
    base = [0.25, 0.5, 0.75]
    for bad in (math.nan, math.inf, -math.inf):
        for at in range(4):
            values = np.array(base[:at] + [bad] + base[at:])
            with pytest.raises(BoundsError, match="finite reals"):
                Dataset(values, DomainBounds())
    with pytest.raises(BoundsError, match="finite reals"):
        Dataset(np.array([math.inf, 0.5, -math.inf]), DomainBounds())


def test_load_csv_plain_and_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("3\n1\n2\n")
    d = load_csv(plain, DomainBounds(0, 10))
    assert list(d.values) == [1.0, 2.0, 3.0]
    assert d.name == "plain.csv"

    headed = tmp_path / "headed.csv"
    headed.write_text("reading\n1.5\n\n2.5\n")  # blank line in the middle is skipped
    d = load_csv(headed, DomainBounds())
    assert list(d.values) == [1.5, 2.5]


def test_load_csv_reports_row_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n\noops\n3.0\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(bad, DomainBounds())

    oob = tmp_path / "oob.csv"
    oob.write_text("value\n1.0\n9.5\n")
    with pytest.raises(BoundsError, match="row 3"):
        load_csv(oob, DomainBounds(0, 5))


def test_load_csv_refuses_bytes_that_are_not_utf8(tmp_path):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"0.1\n\xff0.5\n")
    with pytest.raises(CsvFormatError, match="latin.csv: not valid UTF-8"):
        load_csv(bad, DomainBounds(0, 1))


def test_load_csv_empty_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(CsvFormatError):
        load_csv(empty, DomainBounds())
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("value\n")
    with pytest.raises(CsvFormatError):
        load_csv(header_only, DomainBounds())


def _line_loop_reference(path, bounds):
    """The per-line loader that load_csv replaced, kept as the reference."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise CsvFormatError(f"{path}: file contains no values")

    first_row, first_text = rows[0]
    try:
        float(first_text)
    except ValueError:
        rows = rows[1:]  # header line
        if not rows:
            raise CsvFormatError(f"{path}: file contains no values after the header")

    values = []
    for row, text in rows:
        try:
            value = float(text)
        except ValueError as exc:
            raise CsvFormatError(f"{path}: row {row}: cannot parse {text!r}") from exc
        if value < bounds.lower or value > bounds.upper:
            raise BoundsError(
                f"{path}: row {row}: value {value} outside bounds "
                f"[{bounds.lower}, {bounds.upper}]"
            )
        values.append(value)
    return Dataset(np.array(values), bounds, name=path.name)


_TRICKY_CSV = {
    "plain": "0.5\n0.25\n1\n",
    "header": "value\n0.5\n0.25\n",
    "crlf": "value\r\n0.5\r\n0.25\r\n",
    "lone_cr": "value\r0.5\r0.25\r",
    "blank_lines": "\n\nvalue\n\n0.5\n\n\n0.25\n\n",
    "whitespace_lines": "  \t\n value \n \t0.5  \n   \n0.25\t\n",
    "no_final_newline": "0.5\n0.25",
    "header_no_final_newline": "value\n0.5",
    "vt_inside": "0.5\x0b0.25\n0.75\n",
    "vt_trailing": "0.5\x0b\n0.25\n",
    "vt_in_header": "value\x0b0.5\n0.25\n",
    "ff_inside": "0.5\x0c0.25\n",
    "fs_inside": "0.5\x1c0.25\n",
    "fs_after_header": "value\x1c\n0.5\n",
    "nel_inside": "value\n0.5\x850.25\n",
    "line_separator": "0.5\u20280.25\n",
    "nbsp": "0.5\xa0\n0.25\n",
    "two_fields_one_row": "0.1 0.2\n",
    "two_fields_two_rows": "0.1 0.2\n0.3 0.4\n",
    "two_fields_after_header": "value\n0.1 0.2\n",
    "tab_fields": "0.1\t0.2\n",
    "comma_separated": "0.1,0.2\n0.3,0.4\n",
    "comma_row": "value\n0.5\n0.1,0.2\n",
    "comment_lines": "# values\n0.5\n# more\n0.25\n",
    "comment_first": "#0.5\n0.25\n",
    "bom": "\ufeff0.5\n0.25\n",
    "bom_header": "\ufeffvalue\n0.5\n",
    "bom_only": "\ufeff\n",
    "underscore": "1_0\n0.5\n",
    "underscore_later": "0.5\n1_0\n",
    "arabic_digit": "\u0663\n0.5\n",
    "arabic_digit_later": "0.5\n\u0663\n",
    "plus_point": "+.5\n-.5\n",
    "hex": "0x10\n0.5\n",
    "hex_later": "0.5\n0x1p-2\n",
    "trailing_junk": "0.5\n0.25abc\n",
    "nul": "0.5\n0.25\x00\n",
    "inf": "0.5\ninf\n",
    "minus_infinity": "-Infinity\n0.5\n",
    "nan": "0.5\nnan\n",
    "nan_then_out_of_bounds": "0.5\nnan\n7\n",
    "out_of_bounds": "value\n0.5\n-3\n",
    "underflow": "1e-400\n0.5\n",
    "denormal": "5e-324\n0.5\n",
    "overflow": "1e400\n",
    "empty": "",
    "only_newlines": "\n\n\n",
    "only_whitespace": " \n\t\n",
    "header_only": "value\n",
    "header_then_blank": "value\n\n  \n",
    "not_utf8_first": b"\xff0.5\n0.25\n",
    "not_utf8_later": b"0.5\n" * 5000 + b"\xff\n",
}


def _load_outcome(loader, path, bounds):
    try:
        d = loader(path, bounds)
    except Exception as exc:  # the error is the outcome under comparison
        return type(exc), str(exc)
    return d.values.tobytes(), d.bounds, d.name


def test_load_csv_matches_the_line_loop(tmp_path):
    bounds_grid = (DomainBounds(0, 1), DomainBounds(), DomainBounds(-1, 1e308))
    for name, text in _TRICKY_CSV.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        for bounds in bounds_grid:
            expected = _load_outcome(_line_loop_reference, path, bounds)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _load_outcome(load_csv, path, bounds)
            assert got == expected, (name, bounds)


def test_load_csv_memory_stays_near_the_array(tmp_path):
    # the size of the benchmark's CSV: a header and 200,001 uniform values
    raw = np.random.default_rng(5).random(200_001)
    path = tmp_path / "values.csv"
    path.write_text("value\n" + "\n".join(map(repr, raw.tolist())) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        d = load_csv(path, DomainBounds(0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(d.values, np.sort(raw))
    assert peak < 6 * d.values.nbytes, peak / d.values.nbytes


def test_synthesize_bounds_conventions():
    d = synthesize("uniform01", 9, 4)
    assert d.bounds == DomainBounds(0.0, 1.0)
    assert d.n == 9
    for dist in ("standard_normal", "exponential1"):
        d = synthesize(dist, 25, 4)
        assert d.bounds.lower == d.values.min()
        assert d.bounds.upper == d.values.max()


def test_synthesize_is_deterministic():
    for dist in SYNTH_DISTRIBUTIONS:
        a = synthesize(dist, 11, 7)
        b = synthesize(dist, 11, 7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, synthesize(dist, 11, 8).values)


def test_synthesize_int_seed_values_are_pinned():
    # an int seed starts numpy's default_rng stream; these medians must not move
    medians = {"uniform01": 0.625095466604667, "standard_normal": -0.2741378553622176,
               "exponential1": 0.7075292557919215}
    for dist, median in medians.items():
        assert synthesize(dist, 5, 7).values[2] == median


def test_synthesize_draws_on_from_a_generator():
    for dist in SYNTH_DISTRIBUTIONS:
        rng = np.random.default_rng(7)
        a = synthesize(dist, 11, rng)
        b = synthesize(dist, 11, rng)
        assert not np.array_equal(a.values, b.values)
        # the generator's seed fixes the whole sequence of datasets
        again = np.random.default_rng(7)
        assert np.array_equal(a.values, synthesize(dist, 11, again).values)
        assert np.array_equal(b.values, synthesize(dist, 11, again).values)


def test_synthesize_rejects_bad_args():
    with pytest.raises(PreconditionError):
        synthesize("pareto", 5, 0)
    with pytest.raises(PreconditionError):
        synthesize("uniform01", 0, 0)


def test_synthesize_block_equals_one_synthesize_per_row():
    for dist in SYNTH_DISTRIBUTIONS:
        for n in (1, 9, 99, 999):
            block_rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
            block, lower, upper = synthesize_block(dist, n, block_rng, 7)
            loop = [synthesize(dist, n, loop_rng) for _ in range(7)]
            assert block.shape == (7, n) and lower.shape == upper.shape == (7,)
            assert not block.flags.writeable
            for row, lo, hi, d in zip(block, lower, upper, loop, strict=True):
                assert np.array_equal(row, d.values)
                assert DomainBounds(lo, hi) == d.bounds
            # the generator goes on where the loop's does
            assert block_rng.random() == loop_rng.random()
        block, _, _ = synthesize_block(dist, 5, 7, 3)
        d = synthesize(dist, 5, 7)
        assert np.array_equal(block[0], d.values)
        assert d.name == f"{dist}(n=5,seed=7)" and synthesize(dist, 5, loop_rng).name == f"{dist}(n=5)"
        assert not d.values.flags.writeable and d._memo == {}


def test_synthesize_block_rejects_bad_args():
    for args in (("pareto", 5, 0, 1), ("uniform01", 0, 0, 1), ("uniform01", 5, 0, 0)):
        with pytest.raises(PreconditionError):
            synthesize_block(*args)
