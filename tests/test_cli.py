import json

import mpmath as mp
import pytest

from fel import cli, lower, nt, search
from fel.lower import LowerParams
from fel.precision import Unconverged
from fel.upper import BoundResult, UpperParams


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lower_eval_reference(capsys, monkeypatch):
    calls = []
    l1_norm = lower.l1_norm
    monkeypatch.setattr(lower, "l1_norm", lambda *a: calls.append(a) or l1_norm(*a))
    code, out, _ = run(capsys, "lower-eval", "--A", "1")
    assert code == 0
    assert len(calls) == 1  # the report reuses the norm the reward divided by
    rep = json.loads(out)
    assert float(rep["value"]) >= 1.14600 - 1e-5
    assert float(rep["l1_norm"]) == pytest.approx(1.0, abs=1e-3)
    lo = rep["certified_lower_bound"]
    assert float(lo) <= float(rep["value"])


def test_lower_eval_quarter(capsys):
    code, out, _ = run(capsys, "lower-eval", "--A", "1/4")
    assert code == 0
    assert float(json.loads(out)["value"]) >= 1.31706 - 1e-5


def test_upper_eval_reference(capsys):
    code, out, _ = run(capsys, "upper-eval", "--A", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["certified"] is True
    assert float(rep["value"]) <= 1.06240


def test_upper_eval_zero_penalty(capsys):
    code, out, _ = run(capsys, "upper-eval", "--A", "0")
    assert code == 0
    assert float(json.loads(out)["value"]) == pytest.approx(2.0, abs=1e-9)


def test_params_file_round_trip(tmp_path, capsys):
    p = LowerParams(a="0.5", c="0.25", b=("-1.5", "0.125"))
    f = tmp_path / "p.json"
    f.write_text(p.dumps())
    code, out, _ = run(capsys, "lower-eval", "--A", "2", "--params", str(f))
    assert code == 0
    rep = json.loads(out)
    # decimal strings survive the round trip bit-identically
    assert rep["params"] == json.loads(p.dumps())
    assert LowerParams.from_json(rep["params"]) == p


def test_exit_code_domain_errors(capsys, tmp_path):
    assert run(capsys, "lower-eval", "--A", "bogus")[0] == 2
    assert run(capsys, "lower-eval", "--A", "1", "--digits", "10")[0] == 2
    assert run(capsys, "upper-eval", "--params", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": "1", "T": ["0.3", "0.2"]}))
    assert run(capsys, "upper-eval", "--params", str(bad))[0] == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"a": "1", "c": "0", "b": ["0"]}))
    assert run(capsys, "lower-eval", "--A", "1", "--params", str(zero))[0] == 2


def test_exit_code_unconverged(capsys, monkeypatch):
    def boom(*a, **k):
        raise Unconverged("forced")

    monkeypatch.setattr(cli.lower, "reward", boom)
    code, _, err = run(capsys, "lower-eval", "--A", "1")
    assert code == 3
    assert "unconverged" in err


def test_env_digits(capsys, monkeypatch):
    monkeypatch.setenv("FEL_DIGITS", "31")
    code, out, _ = run(capsys, "lower-eval", "--A", "1")
    assert code == 0
    assert json.loads(out)["digits"] == 31
    monkeypatch.setenv("FEL_DIGITS", "12")
    assert run(capsys, "lower-eval", "--A", "1")[0] == 2


def test_config_file_merge(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("FEL_DIGITS", raising=False)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"A": "1", "digits": 33}))
    code, out, _ = run(capsys, "lower-eval", "--config", str(cfgf))
    assert code == 0
    assert json.loads(out)["digits"] == 33
    # flags override the config file
    code, out, _ = run(capsys, "lower-eval", "--config", str(cfgf), "--digits", "35")
    assert json.loads(out)["digits"] == 35


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--orders", "2,5,10")
    assert code == 0
    rep = json.loads(out)
    by_penalty = {r["penalty"]: r for r in rep["rows"] if "order" not in r}
    by_order = {r["order"]: r for r in rep["rows"] if "order" in r}
    assert by_penalty["1"]["table_lower"] == "1.14600"
    assert by_penalty["1"]["table_upper"] == "1.14731"
    # the implied constants follow from the printed bounds
    assert float(by_penalty["1"]["implied_constant"]) == pytest.approx(1.14600 ** -2, rel=1e-9)
    assert float(by_penalty["1"]["method_limit"]) == pytest.approx(1.14731 ** -2, rel=1e-9)
    assert 0.7596 < float(by_penalty["1"]["method_limit"]) < float(by_penalty["1"]["implied_constant"]) < 0.7615
    assert float(by_order[2]["implied_constant"]) < 0.7615
    assert float(by_order[5]["implied_constant"]) < 0.5765
    assert "implied_constant" in by_order[10]


def test_bounds_csv(capsys, tmp_path):
    out_file = tmp_path / "bounds.csv"
    code, _, _ = run(capsys, "bounds", "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("penalty,")
    assert len(lines) == 6


def test_plot_data_upper(capsys, tmp_path):
    out_file = tmp_path / "g.csv"
    code, _, _ = run(capsys, "plot-data", "--figure", "upper", "--A", "1",
                     "--range", "0", "15", "--samples", "3000", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,re,abs"
    assert len(lines) == 3001
    peak = max(float(l.split(",")[2]) for l in lines[1:])
    assert peak == pytest.approx(1.1473077, abs=2e-4)


def test_plot_data_lower_family(capsys, tmp_path):
    out_file = tmp_path / "fam.csv"
    code, _, _ = run(capsys, "plot-data", "--figure", "lower-family",
                     "--samples", "41", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 42
    assert lines[0].count(",") == 5  # t plus five penalty columns


def test_plot_data_zero_samples(capsys):
    assert run(capsys, "plot-data", "--figure", "upper", "--A", "1",
               "--samples", "0")[0] == 2


def test_nt_qnr(capsys, tmp_path):
    out_file = tmp_path / "recs.csv"
    code, out, _ = run(capsys, "nt", "--kind", "qnr", "--max-p", "2000", "--out", str(out_file))
    assert code == 0
    summary = json.loads(out)
    assert summary["count"] == len(out_file.read_text().splitlines()) - 1
    assert float(summary["margin"]) > 0


def test_nt_qnr_summary_is_nt_summarize(capsys):
    code, out, _ = run(capsys, "nt", "--kind", "qnr", "--max-p", "2000")
    assert code == 0
    expected = nt.summarize(nt.scan("qnr", 11, 2000), "qnr").to_json()
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("argv, cfg, unread", [
    (("nt", "--kind", "qnr"), {"digits": 99, "format": "csv", "max-p": 100}, "digits, format"),
    (("lower-eval",), {"A": "1", "digit": 31}, "digit"),
])
def test_config_keys_a_command_does_not_read_are_rejected(capsys, tmp_path, argv, cfg, unread):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(cfgf))
    assert code == 2
    assert out == ""
    assert unread in err


@pytest.mark.parametrize("t_last, reason", [
    ("100", "witness polish lost the maximum"),
    ("230", "not finite"),
])
def test_upper_eval_huge_knots_unconverged(capsys, tmp_path, t_last, reason):
    # e^(pi T) near or past the float range: no certificate, exit 3
    f = tmp_path / "up.json"
    f.write_text(json.dumps({"A": "1", "T": ["0.2", t_last]}))
    code, out, err = run(capsys, "upper-eval", "--params", str(f))
    assert code == 3
    assert out == ""
    assert reason in err


def test_bound_result_rejects_non_finite_radius():
    with pytest.raises(ValueError):
        BoundResult(mp.mpf("1.2"), mp.nan, True)


@pytest.mark.parametrize("argv", [
    ("nt", "--kind", "qnr", "--max-p", "100", "--digits", "50"),
    ("lower-eval", "--A", "1", "--format", "csv"),
    ("plot-data", "--figure", "upper", "--A", "1", "--samples", "2", "--format", "json"),
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    # only bounds has a --format, and nt and plot-data take no --digits
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_nt_prime_qr_default_floor(capsys):
    # 163 is the last prime up to 1e6 whose least prime residue (41) gives a
    # ratio above the comparator; the default floor starts past it
    code, out, _ = run(capsys, "nt", "--kind", "prime-qr", "--max-p", "100000")
    assert code == 0
    assert float(json.loads(out)["margin"]) > 0
    with mp.workdps(30):
        assert nt.least_prime_qr(163) / mp.log(163) ** 2 > nt.COMPARATORS["prime-qr"]


def test_nt_prime_sum(capsys):
    code, out, _ = run(capsys, "nt", "--kind", "prime-sum", "--m", "100000")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["normalized_truncated"]) < 10


def test_search_cli_small(capsys, tmp_path):
    out_file = tmp_path / "incumbent.json"
    code, _, _ = run(capsys, "search", "--problem", "upper", "--A", "1/2",
                     "--N", "2", "--seed", "7", "--restarts", "2",
                     "--budget", "2000", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["certified"] is True
    up = UpperParams.from_json(rep["params"])
    assert float(rep["value"]) < 2.0  # beats the empty weight
    assert run(capsys, "search", "--problem", "upper", "--A", "bogus")[0] == 2


def test_search_upper_uncertified_exit_code(capsys, monkeypatch):
    def uncertified(penalty, cfg, ctx, transcript_path=None):
        up = UpperParams(penalty=penalty, knots=("0.5",))
        return up, BoundResult(mp.mpf("1.2"), mp.mpf("1e-8"), False)

    monkeypatch.setattr(search, "optimize_upper", uncertified)
    code, out, _ = run(capsys, "search", "--problem", "upper", "--A", "1")
    assert code == 3
    assert json.loads(out)["certified"] is False
