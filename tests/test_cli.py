"""Command-line behavior, exercised in-process through cli.main."""

import csv
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import privcurator
from privcurator import load_session
from privcurator.cli import main


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.1\n0.4\n0.5\n0.8\n0.9\n", encoding="utf-8")
    return path


def _answer_args(data, session, **overrides):
    # unseeded, as the CLI runs by default; pass seed="..." to reproduce a draw
    opts = {
        "query": "median", "lower": "0", "upper": "1",
        "regime": "dp-global", "epsilon": "0.5",
    }
    opts.update(overrides)
    argv = ["answer", "--data", str(data), "--session", str(session)]
    for k, v in opts.items():
        argv.extend([f"--{k}", v])
    return argv


def test_answer_writes_session_and_json(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == "median"
    assert doc["regime"] == "dp_global"
    assert doc["noise"] == "laplace"
    assert doc["noise_scale"] == pytest.approx(2.0)  # span 1 over eps 0.5
    ledger = load_session(session)
    assert len(ledger.entries) == 1
    assert ledger.spent() == pytest.approx(0.5)


def test_answer_accumulates_until_budget_runs_out(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session)) == 0
    assert main(_answer_args(data_csv, session, epsilon="0.4")) == 0
    assert main(_answer_args(data_csv, session, epsilon="0.2")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the rejected call must not have altered the stored session
    assert len(load_session(session).entries) == 2
    assert load_session(session).spent() == pytest.approx(0.9)


def test_answer_refuses_a_spend_past_the_largest_float(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session, epsilon="1e308", budget="inf")) == 0
    assert main(_answer_args(data_csv, session, epsilon="1e308")) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert load_session(session).spent() == 1e308


def test_answer_refuses_a_non_finite_release_and_keeps_the_charge(tmp_path, capsys):
    # dp_smooth at gamma = 1.01 draws -inf at these seeds; the CLI must not
    # print "-Infinity", which is not JSON, and the spent epsilon stays recorded.
    # The refusal is the whole of stderr: no numpy overflow warning before it
    data = tmp_path / "five.csv"
    data.write_text("0.1\n0.3\n0.5\n0.7\n0.9\n", encoding="utf-8")
    session = tmp_path / "session.json"
    for i, seed in enumerate(("690", "979", "1616"), start=1):
        argv = _answer_args(data, session, regime="dp-smooth", gamma="1.01", seed=seed, budget="10")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "non-finite" in lines[0]
        assert load_session(session).spent() == pytest.approx(0.5 * i)


def _one_error_line(capsys, word):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and word in lines[0], lines


def test_negative_seed_is_refused_before_anything_is_written(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    out = tmp_path / "ci.csv"
    for argv in (_answer_args(data_csv, session, seed="-1"),
                 ["bench", "ci-table", "--seed", "-1", "--trials", "100000", "--out", str(out)]):
        assert main(argv) == 1
        _one_error_line(capsys, "seed")
    assert not session.exists()
    assert not out.exists()


def test_answer_is_reproducible_for_a_seed(data_csv, tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(_answer_args(data_csv, first, seed="7"))
    captured = capsys.readouterr()
    out1 = json.loads(captured.out)
    # the release is published, then one warning line says the seed is a leak
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:") and "seed" in lines[0], lines
    main(_answer_args(data_csv, second, seed="7"))
    out2 = json.loads(capsys.readouterr().out)
    assert out1 == out2


def test_unseeded_answers_draw_fresh_noise(data_csv, tmp_path, capsys):
    # without --seed each release draws from fresh OS entropy: two runs on one
    # input publish different values, and nothing is printed on stderr
    values = []
    for name in ("a.json", "b.json"):
        assert main(_answer_args(data_csv, tmp_path / name)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values.append(json.loads(captured.out)["value"])
    assert values[0] != values[1]
    assert "seed" not in (tmp_path / "a.json").read_text(encoding="utf-8")


def test_answer_smooth_regime_defaults_gamma(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    rc = main(_answer_args(data_csv, session, regime="dp-smooth", epsilon="1.0"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "dp_smooth"
    assert doc["gamma"] == 3.0
    assert "sensitivity_used" not in doc and "noise_scale" not in doc


def test_answer_discrete_count_value_is_integer(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    rc = main(_answer_args(data_csv, session, regime="idp", query="count:0.5:1",
                           noise="dlaplace", epsilon="1.0"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["value"], int)
    assert doc["noise"] == "discrete_laplace"


def test_a_refused_noise_parameter_leaves_the_session_unchanged(data_csv, tmp_path, capsys):
    # an infinite Laplace scale or a discrete alpha of 1.0 is refused before
    # the charge: no session file is written, and an existing one keeps its bytes
    refused = [dict(query="hist:0,0.5,1", regime="idp", epsilon="1e-320"),
               dict(query="hist:0,0.5,1", regime="dp-global", epsilon="1e-320"),
               dict(regime="gdp", group="2", epsilon="1e-320"),
               dict(query="count:0.5:1", regime="idp", noise="dlaplace", epsilon="1e-17")]
    kept = tmp_path / "kept.json"
    assert main(_answer_args(data_csv, kept)) == 0
    before = kept.read_bytes()
    capsys.readouterr()
    for i, overrides in enumerate(refused):
        fresh = tmp_path / f"fresh{i}.json"
        for session in (fresh, kept):
            assert main(_answer_args(data_csv, session, **overrides)) == 1, overrides
            err = capsys.readouterr().err
            assert err.startswith("error:") and ("scale" in err or "alpha" in err), err
        assert not fresh.exists(), overrides
    assert kept.read_bytes() == before


def test_a_charge_too_small_to_move_the_total_is_saved(data_csv, tmp_path, capsys):
    # 0.5 + 1e-300 rounds to 0.5, but the release is one more ledger entry
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session)) == 0
    assert main(_answer_args(data_csv, session, epsilon="1e-300")) == 0
    assert [e.epsilon for e in load_session(session).entries] == [0.5, 1e-300]


def test_answer_reports_config_errors(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session, regime="gdp")) == 1
    assert "error:" in capsys.readouterr().err
    assert not session.exists()


def test_answer_missing_data_file(tmp_path, capsys):
    rc = main(_answer_args(tmp_path / "absent.csv", tmp_path / "s.json"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_session_and_data_files_are_reported(data_csv, tmp_path, capsys):
    session = tmp_path / "s.json"
    session.write_text("[1, 2]", encoding="utf-8")
    assert main(_answer_args(data_csv, session)) == 1
    assert "error:" in capsys.readouterr().err
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"0.1\n\xff0.5\n")
    for argv in (_answer_args(latin, tmp_path / "new.json", budget="1"),
                 ["sensitivity", "--data", str(latin), "--query", "median", "--lower", "0", "--upper", "1"]):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
    assert session.read_text(encoding="utf-8") == "[1, 2]"
    assert not (tmp_path / "new.json").exists()


def test_bad_query_string(data_csv, tmp_path, capsys):
    rc = main(_answer_args(data_csv, tmp_path / "s.json", query="p95"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sensitivity_report(data_csv, capsys):
    rc = main(["sensitivity", "--data", str(data_csv), "--query", "median",
               "--lower", "0", "--upper", "1", "--beta", "0.5", "--group", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global"] == 1.0
    assert doc["local"] == pytest.approx(0.3)
    assert doc["beta"] == 0.5
    assert len(doc["group"]) == 2


def test_sensitivity_unbounded_encoding(data_csv, capsys):
    rc = main(["sensitivity", "--data", str(data_csv), "--query", "median"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global"] == "unbounded"
    assert doc["smooth"] == "unbounded"


def test_sensitivity_refuses_a_non_finite_beta(data_csv, capsys):
    # beta = inf used to print "smooth": NaN and "beta": Infinity, which is not JSON
    for beta in ("inf", "nan"):
        assert main(["sensitivity", "--data", str(data_csv), "--query", "median",
                     "--lower", "0", "--upper", "1", "--beta", beta]) == 1
        _one_error_line(capsys, "beta")


def test_bench_requires_a_table_or_verify(tmp_path, capsys):
    assert main(["bench"]) == 1
    assert "choose one" in capsys.readouterr().err
    assert main(["bench", "ci-table"]) == 1
    assert "--out" in capsys.readouterr().err


def test_bench_noise_profile_writes_csv(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    rc = main(["bench", "noise-profile", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"x", "laplace", "admissible_gamma2", "admissible_gamma3"}
    assert len(rows) > 2000


def test_bench_error_grid_writes_reproducible_csv(tmp_path, capsys):
    def run(seed, name):
        out = tmp_path / name
        assert main(["bench", "error-grid", "--trials", "3", "--seed", seed, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 54 rows to {out}\n"
        return out.read_text(encoding="utf-8")

    first = run("1", "a.csv")
    rows = list(csv.DictReader(first.splitlines()))
    assert len(rows) == 54  # 27 cells x 2 regimes
    assert {r["trials"] for r in rows} == {"3"}
    assert run("1", "b.csv") == first
    other = list(csv.DictReader(run("2", "c.csv").splitlines()))
    assert [r["mae"] for r in other] != [r["mae"] for r in rows]
    assert [(r["distribution"], r["n"], r["regime"]) for r in other] == \
        [(r["distribution"], r["n"], r["regime"]) for r in rows]


def test_bench_tables_refuse_zero_trials(tmp_path, capsys):
    # --trials 0 is a count of trials, not a request for the default
    for table, word in (("error-grid", "trials"), ("ci-table", "trials")):
        out = tmp_path / f"{table}.csv"
        assert main(["bench", table, "--trials", "0", "--out", str(out)]) == 1
        _one_error_line(capsys, word)
        assert not out.exists()


def test_bench_verify_battery(capsys):
    rc = main(["bench", "--verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 17
    assert "FAIL" not in out


def test_runtime_runs_without_scipy(data_csv, tmp_path):
    # scipy is a test dependency only; with it unimportable, a dp-smooth answer
    # (draws gamma = 3 admissible noise) and the noise profile (evaluates the
    # admissible density) must still run
    answer = _answer_args(data_csv, tmp_path / "session.json", regime="dp-smooth", gamma="3")
    profile = ["bench", "noise-profile", "--out", str(tmp_path / "profile.csv")]
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from privcurator.cli import main
        assert main({answer!r}) == 0
        assert main({profile!r}) == 0
    """)
    src = str(Path(privcurator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_bench_and_oracle_unloaded():
    # the package exports their names lazily; only `bench` itself needs them
    script = textwrap.dedent("""
        import sys
        import privcurator.cli
        loaded = sorted(m for m in ("privcurator.bench", "privcurator.oracle")
                        if m in sys.modules)
        assert not loaded, loaded
        import privcurator
        from privcurator import GridDomain, run_error_grid
        assert run_error_grid is sys.modules["privcurator.bench"].run_error_grid
        assert GridDomain is sys.modules["privcurator.oracle"].GridDomain
        namespace = {}
        exec("from privcurator import *", namespace)
        assert set(privcurator.__all__) <= set(namespace)
    """)
    src = str(Path(privcurator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
