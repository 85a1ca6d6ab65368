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
    opts = {
        "query": "median", "lower": "0", "upper": "1",
        "regime": "dp-global", "epsilon": "0.5", "seed": "7",
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


def test_answer_is_reproducible_for_a_seed(data_csv, tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(_answer_args(data_csv, first))
    out1 = json.loads(capsys.readouterr().out)
    main(_answer_args(data_csv, second))
    out2 = json.loads(capsys.readouterr().out)
    assert out1 == out2


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


def test_answer_reports_config_errors(data_csv, tmp_path, capsys):
    session = tmp_path / "session.json"
    assert main(_answer_args(data_csv, session, regime="gdp")) == 1
    assert "error:" in capsys.readouterr().err
    assert not session.exists()


def test_answer_missing_data_file(tmp_path, capsys):
    rc = main(_answer_args(tmp_path / "absent.csv", tmp_path / "s.json"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
