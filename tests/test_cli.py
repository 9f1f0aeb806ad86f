import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fel import cli, lower, nt, tables
from fel.lower import LowerParams
from fel.precision import ErrBounded, Unconverged
from fel.upper import UpperParams, residual_np


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the whole report, key order and meta included, of ``lower-eval --A 1`` and
# ``upper-eval --A 3`` at the default 40 digits
LOWER_EVAL_REPORT = """\
{
  "penalty": "1",
  "value": "1.146006683318576657133289",
  "err": "3.81297e-32",
  "certified_lower_bound": "1.146006683318576657133289",
  "l1_norm": "0.999995488249247",
  "l1_err": "3.30716e-32",
  "params": {
    "a": "0.246",
    "c": "0.626",
    "b": [
      "0.0027383",
      "0.0",
      "-4.1716",
      "0.6464",
      "-3.4098",
      "-1.0923",
      "1.4628",
      "-2.5377",
      "-0.94904",
      "2.5121",
      "-2.1423",
      "0.3164"
    ]
  },
  "digits": 40
}
"""

# (value, err, l1_norm, l1_err) of ``lower-eval --A k --digits 40`` for the
# shipped penalties other than 1, which LOWER_EVAL_REPORT pins in full
LOWER_EVAL_PINS = {
    "1/4": ("1.317060743510269539053461", "5.3279e-34", "0.999999161328282", "2.04529e-34"),
    "1/3": ("1.27722538911180013402306", "3.13644e-34", "1.00000671334217", "4.55667e-35"),
    "1/2": ("1.221120473792043987718743", "1.17799e-33", "0.999990417366094", "7.64674e-34"),
    "3": ("1.060820551470143623623494", "2.60587e-34", "0.999986592522738", "4.56459e-35"),
}

UPPER_EVAL_REPORT = """\
{
  "penalty": "3",
  "value": "1.062392981791822085227474",
  "err": "1.0017046e-8",
  "certified_upper_bound": "1.062392991808867948819124",
  "certified": true,
  "meta": {
    "grid_step": 1.9535643932908133e-05,
    "cells": 10194,
    "t_max": 40.10902127153235,
    "slack": 1e-08,
    "witness_t": "0.0",
    "polish_evals": 2
  },
  "params": {
    "A": "3",
    "T": [
      "0.0561589",
      "0.1037093",
      "0.1133532",
      "0.1234334",
      "0.1257599",
      "0.1362797",
      "0.1375030"
    ]
  },
  "digits": 40
}
"""


def test_lower_eval_reference(capsys, monkeypatch):
    monkeypatch.delenv("FEL_DIGITS", raising=False)
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
    assert out == LOWER_EVAL_REPORT


@pytest.mark.parametrize("k", LOWER_EVAL_PINS)
def test_lower_eval_pinned(capsys, k):
    code, out, _ = run(capsys, "lower-eval", "--A", k, "--digits", "40")
    assert code == 0
    rep = json.loads(out)
    assert (rep["value"], rep["err"], rep["l1_norm"], rep["l1_err"]) == LOWER_EVAL_PINS[k]


def test_lower_eval_tiny_first_coefficient(capsys, tmp_path):
    # the norm has no tail, so nothing hangs on the first coefficient's size
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"a": "1", "c": "0.5", "b": ["1e-30", "1"]}))
    code, out, _ = run(capsys, "lower-eval", "--A", "1", "--params", str(f))
    assert code == 0
    assert json.loads(out)["l1_norm"] == "0.25"


def test_outward_bound_rounds_away_from_the_value():
    # 2/3 -+ 1e-30 to 25 digits: round-nearest would print ...667 both ways
    with mp.workdps(40):
        for sign in (1, -1):
            b = ErrBounded(sign * mp.mpf(2) / 3, mp.mpf("1e-30"))
            lo, hi = cli.outward_bound(b, up=False), cli.outward_bound(b, up=True)
            assert {lo, hi} == {"%s0.666666666666666666666666%d" % ("-" * (sign < 0), d) for d in (6, 7)}
            assert mp.mpf(lo) < b.value - b.err < b.value + b.err < mp.mpf(hi)
        assert cli.outward_bound(ErrBounded(mp.mpf(1), mp.mpf(0)), up=False) == "1"


def test_lower_eval_quarter(capsys):
    code, out, _ = run(capsys, "lower-eval", "--A", "1/4")
    assert code == 0
    assert float(json.loads(out)["value"]) >= 1.31706 - 1e-5


def test_upper_eval_reference(capsys, monkeypatch):
    monkeypatch.delenv("FEL_DIGITS", raising=False)
    code, out, _ = run(capsys, "upper-eval", "--A", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["certified"] is True
    assert float(rep["value"]) <= 1.06240
    assert out == UPPER_EVAL_REPORT


def test_upper_eval_zero_penalty(capsys):
    code, out, _ = run(capsys, "upper-eval", "--A", "0")
    assert code == 0
    assert float(json.loads(out)["value"]) == pytest.approx(2.0, abs=1e-9)


def test_params_file_round_trip(tmp_path, capsys):
    p = LowerParams(a="0.5", c="0.25", b=("-1.5", "0.125"))
    f = tmp_path / "p.json"
    f.write_text(json.dumps(p.to_json()))
    code, out, _ = run(capsys, "lower-eval", "--A", "2", "--params", str(f))
    assert code == 0
    rep = json.loads(out)
    # decimal strings survive the round trip bit-identically
    assert rep["params"] == p.to_json()
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


@pytest.mark.parametrize("figure", [("upper", "--A", "1"), ("lower-family",)])
def test_plot_data_default_samples(capsys, figure):
    code, out, _ = run(capsys, "plot-data", "--figure", *figure)
    assert code == 0
    assert len(out.splitlines()) == 2001  # the header and the default 2000 samples
    with pytest.raises(SystemExit):
        cli.main(["plot-data", "--help"])
    assert "(default: 2000)" in capsys.readouterr().out


def test_nt_qnr(capsys, tmp_path):
    out_file = tmp_path / "recs.csv"
    code, out, _ = run(capsys, "nt", "--kind", "qnr", "--max-p", "2000", "--out", str(out_file))
    assert code == 0
    summary = json.loads(out)
    assert summary["count"] == len(out_file.read_text().splitlines()) - 1
    assert float(summary["margin"]) > 0


@pytest.mark.parametrize("argv, key, value, denom", [
    (("--kind", "qnr", "--max-p", "1000"), 23, 5, lambda: mp.log(23) ** 2),
    (("--kind", "prime-qr", "--max-p", "1000"), 293, 17, lambda: mp.log(293) ** 2),
    (("--kind", "ap", "--max-q", "50"), "1 mod 4", 5, lambda: (2 * mp.log(4)) ** 2),
], ids=["qnr", "prime-qr", "ap"])
def test_nt_margin_digits(capsys, argv, key, value, denom):
    # all 20 printed digits of the margin agree with a 300-bit reference:
    # the comparator's double minus the largest ratio, value / denom
    code, out, _ = run(capsys, "nt", *argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["argmax"] == key
    with mp.workprec(300):
        ref = mp.mpf(summary["comparator"]) - value / denom()
        assert summary["margin"] == mp.nstr(ref, 20)


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


def test_upper_eval_huge_knots_certify(capsys, tmp_path):
    # e^(pi T) near 1e136: the polish check allows the float grid's own error,
    # so the huge sup certifies
    f = tmp_path / "up.json"
    f.write_text(json.dumps({"A": "1", "T": ["0.2", "100"]}))
    code, out, err = run(capsys, "upper-eval", "--params", str(f))
    assert code == 0, err
    with mp.workdps(40):
        value = mp.mpf(json.loads(out)["value"])
        assert mp.isfinite(value) and value >= _spot_abs_residual(1, ["0.2", "100"], mp.mpf(0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_last, argv", [
    ("226", ("upper-eval",)),
    ("230", ("upper-eval",)),
    ("250", ("upper-eval",)),
    ("230", ("plot-data", "--figure", "upper", "--A", "1", "--samples", "5")),
], ids=["226", "230", "250", "plot-data"])
def test_upper_eval_knots_past_float_range(capsys, tmp_path, t_last, argv):
    # e^(pi T) past the float range: refused before any float grid is built,
    # so numpy warns of no overflow
    f = tmp_path / "up.json"
    f.write_text(json.dumps({"A": "1", "T": ["0.2", t_last]}))
    code, out, err = run(capsys, *argv, "--params", str(f))
    assert code == 2
    assert out == ""
    assert "take the float grid out of range" in err


@pytest.mark.parametrize("argv", [
    ("upper-eval",),
    ("plot-data", "--figure", "upper", "--samples", "5"),
], ids=["upper-eval", "plot-data"])
def test_a_must_agree_with_params(capsys, tmp_path, argv):
    f = tmp_path / "up.json"
    f.write_text(json.dumps({"A": "1", "T": ["0.2", "0.5"]}))
    code, out, err = run(capsys, *argv, "--A", "3", "--params", str(f))
    assert code == 2
    assert out == ""
    assert "disagrees" in err
    code, agreeing, _ = run(capsys, *argv, "--A", "1", "--params", str(f))
    assert code == 0
    code, alone, _ = run(capsys, *argv, "--params", str(f))
    assert code == 0
    assert alone == agreeing


def _spot_abs_residual(A, knots, t):
    """|residual(t)| straight from the transform formula, apart from fel.upper."""
    z, d = mp.pi - 2j * mp.pi * t, 1 - 2j * t
    val = 2 / d
    ks = [mp.mpf(0)] + [mp.mpf(k) for k in knots]
    for n in range(len(knots)):
        cn = A if n % 2 == 0 else -1
        val -= 2 * cn * (mp.exp(z * ks[n + 1]) - mp.exp(z * ks[n])) / d
    return abs(val)


@settings(max_examples=20, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10, max_denominator=16),
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=4),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=400.0), st.floats(min_value=1e3, max_value=1e300)),
)
def test_upper_eval_hostile_knots(tmp_path_factory, A, gaps, jump):
    # random knot sets, huge last knots included: a certificate that a spot
    # value does not beat, or a domain error or Unconverged and no report
    knots = [repr(float(k)) for k in np.cumsum(gaps)]
    if jump is not None:
        knots.append(repr(float(knots[-1]) + jump))
    f = tmp_path_factory.mktemp("hostile") / "up.json"
    f.write_text(json.dumps({"A": str(A), "T": knots}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["upper-eval", "--params", str(f), "--digits", "30"])
    if code != 0:
        assert code in (2, 3), err.getvalue()
        assert out.getvalue() == ""
        return
    rep = json.loads(out.getvalue())
    with mp.workdps(40):
        value, radius = mp.mpf(rep["value"]), mp.mpf(rep["err"])
        assert mp.isfinite(value) and mp.isfinite(radius)
        ts = np.linspace(0.0, rep["meta"]["t_max"], 20_001)
        t_peak = ts[int(np.argmax(np.abs(residual_np(A, knots, ts))))]
        for t in (mp.mpf(0), mp.mpf(rep["meta"]["witness_t"]), mp.mpf(t_peak)):
            assert _spot_abs_residual(A, knots, t) <= value + radius, t


@pytest.fixture(scope="module")
def upper_certificates():
    """value + err of ``upper-eval --A k`` for each shipped penalty."""
    out = {}
    for k in tables.PENALTIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["upper-eval", "--A", k]) == 0
        rep = json.loads(buf.getvalue())
        with mp.workdps(40):
            out[k] = mp.mpf(rep["value"]) + mp.mpf(rep["err"])
    return out


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(tables.PENALTIES),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)), min_size=1, max_size=4),
)
def test_lower_eval_hostile_params(tmp_path_factory, upper_certificates, k, a, c, b):
    # random lower parameter sets: a certified lower bound that stays under
    # the shipped upper certificate, or a domain error or Unconverged and no report
    f = tmp_path_factory.mktemp("hostile") / "low.json"
    f.write_text(json.dumps({"a": repr(a), "c": repr(c), "b": [repr(x) for x in b]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["lower-eval", "--A", k, "--params", str(f), "--digits", "30"])
    if code != 0:
        assert code in (2, 3), err.getvalue()
        assert out.getvalue() == ""
        return
    rep = json.loads(out.getvalue())
    with mp.workdps(40):
        value, radius = mp.mpf(rep["value"]), mp.mpf(rep["err"])
        assert mp.isfinite(value) and mp.isfinite(radius)
        assert value - radius <= upper_certificates[k]


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


@pytest.mark.parametrize("argv, sha256, rows", [
    (("--kind", "qnr", "--max-p", "100000"),
     "452062419df350a2f87cfc20a30d2c4abf8e26226ddd48c15b71572b7458df68", 9588),
    (("--kind", "ap", "--min-q", "2", "--max-q", "200"),
     "b1445fcb65fad7c1c2f8950b5d69e267a5d4086d33c8dde2a925c8f9b30467bf", 12231),
    # the benchmark's ranges
    (("--kind", "qnr", "--min-p", "11", "--max-p", "1000000"),
     "8f6b1e8f8a5c50e90b3aa9a765207cee335a02efd65c0ebcf2a4b2432ae3a83f", 78494),
    (("--kind", "ap", "--min-q", "4", "--max-q", "500"),
     "b51765732aea6e03ac29edcb65416bda917f76bba57f6f6b2cbfae6ba3f01ed7", 76112),
])
def test_nt_csv_pinned(capsys, tmp_path, argv, sha256, rows):
    # the whole CSV, every ratio digit included, as the per-record scans
    # (Miller-Rabin per prime, mp.workdps per ratio, a sort per ap block) wrote
    # it before the block kernel and the libmp ratios replaced them; the
    # benchmark's ranges as mpmath's to_str printed them before the digit
    # kernel replaced it
    out_file = tmp_path / "recs.csv"
    code, out, _ = run(capsys, "nt", *argv, "--out", str(out_file))
    assert code == 0
    data = out_file.read_bytes()
    assert data.count(b"\n") == rows + 1
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("argv", [
    ("--kind", "ap", "--min-q", "1000000000", "--max-q", "1000000000"),
    ("--kind", "qnr", "--min-p", str(10**18), "--max-p", str(10**18 + 100)),
    ("--kind", "prime-qr", "--min-p", str(10**20), "--max-p", str(10**20 + 100)),
])
def test_nt_key_range_beyond_sieve_budget(capsys, monkeypatch, tmp_path, argv):
    # refused before any sieving: the ap pool past the 1e9-th prime, and base
    # sieves to 1e9 and 1e10
    sieved = []
    real = nt.primes_upto
    monkeypatch.setattr(nt, "primes_upto", lambda n: sieved.append(n) or real(n))
    out_file = tmp_path / "recs.csv"
    code, out, err = run(capsys, "nt", *argv, "--out", str(out_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "sieve budget" in err
    assert sieved == [] and not out_file.exists()


def test_nt_narrow_range_near_1e12(capsys):
    # a base sieve to 1e6 stays well inside the budget
    code, out, _ = run(capsys, "nt", "--kind", "qnr", "--min-p", str(10**12),
                       "--max-p", str(10**12 + 10**5))
    assert code == 0
    summary = json.loads(out)
    assert (summary["count"], summary["argmax"]) == (3614, 1000000068311)
    assert summary["max_ratio"] == "0.087756830814544301536"


def test_nt_ap_moduli_below_four(capsys, tmp_path):
    out_file = tmp_path / "recs.csv"
    code, out, _ = run(capsys, "nt", "--kind", "ap", "--min-q", "1", "--max-q", "3",
                       "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["count"] == 4
    rows = [line.split(",")[:2] for line in out_file.read_text().splitlines()[1:]]
    assert rows == [["0 mod 1", "2"], ["1 mod 2", "3"], ["1 mod 3", "7"], ["2 mod 3", "2"]]


def test_nt_prime_qr_default_floor(capsys):
    # 163 is the last prime up to 1e6 whose least prime residue (41) gives a
    # ratio above the comparator; the default floor starts past it
    code, out, _ = run(capsys, "nt", "--kind", "prime-qr", "--max-p", "100000")
    assert code == 0
    assert float(json.loads(out)["margin"]) > 0
    with mp.workdps(30):
        assert nt.least_prime_qr(163) / mp.log(163) ** 2 > nt.COMPARATORS["prime-qr"]


@pytest.mark.parametrize("argv", [
    ("search", "--problem", "lower", "--A", "1", "--N", "1", "--budget", "50", "--restarts", "0"),
    ("search", "--problem", "lower", "--A", "1", "--N", "0", "--budget", "50", "--restarts", "1"),
    ("search", "--problem", "lower", "--A", "1", "--N", "1", "--budget", "0", "--restarts", "1"),
    ("search", "--problem", "upper", "--A", "1", "--N", "1", "--budget", "0", "--restarts", "1"),
    ("nt", "--kind", "prime-sum", "--m", "0"),
])
def test_explicit_zero_is_refused(capsys, argv):
    # an explicit 0 reaches the command, it is not replaced by the default
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, count", [
    (("--kind", "qnr", "--min-p", "0", "--max-p", "10"), 3),
    (("--kind", "prime-qr", "--min-p", "999983", "--max-p", "0"), 0),
    (("--kind", "ap", "--min-q", "0", "--max-q", "3"), 4),
])
def test_nt_explicit_zero_bounds(capsys, argv, count):
    code, out, _ = run(capsys, "nt", *argv)
    assert code == 0
    assert json.loads(out)["count"] == count


def test_nt_prime_sum(capsys):
    code, out, _ = run(capsys, "nt", "--kind", "prime-sum", "--m", "100000")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["normalized_truncated"]) < 10


# the whole ``nt --kind prime-sum`` report, recorded before the odd-only
# sieve; 1e7 spans two sieve blocks of 8e6, so a change of block layout or
# summation order moves the last bits
PRIME_SUM_PINS = {
    100_000: {
        "m": 100000,
        "truncated_sum": 22.339923228834053,
        "truncated_integral": 22.34040164486223,
        "truncated_residual": -0.0004784160281765537,
        "normalized_truncated": -1.2778641203500948e-06,
        "tail_sum": 0.0,
        "tail_integral": 0.0,
        "tail_residual": 0.0,
        "normalized_tail": 0.0,
        "psi_m": 100051.5640256579,
        "psi_window": 41915.184878136955,
    },
    10_000_000: {
        "m": 10000000,
        "truncated_sum": 144.10398630834214,
        "truncated_integral": 144.10409696024806,
        "truncated_residual": -0.00011065190591352803,
        "normalized_truncated": -1.350262841931641e-07,
        "tail_sum": 0.0,
        "tail_integral": 0.0,
        "tail_residual": 0.0,
        "normalized_tail": 0.0,
        "psi_m": 9998539.403345957,
        "psi_window": 821537.6236114843,
    },
}


@pytest.mark.parametrize("m", sorted(PRIME_SUM_PINS))
def test_nt_prime_sum_pinned(capsys, m):
    code, out, _ = run(capsys, "nt", "--kind", "prime-sum", "--m", str(m))
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == list(PRIME_SUM_PINS[m])
    assert rep == PRIME_SUM_PINS[m]  # floats compared with ==


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


def test_search_upper_overflowing_penalty(capsys):
    # every knot vector overflows the float sup estimate at this penalty, so
    # the search keeps the empty weight and certifies its sup 2, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "search", "--problem", "upper", "--A", "1e308",
                             "--budget", "200")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["certified"] is True and rep["params"]["T"] == []
    assert abs(float(rep["value"]) - 2) < 1e-6


def test_commands_load_numpy_and_scipy_only_when_they_use_them():
    # numpy is imported by the float kernels (the upper grid, the searches,
    # the sieves) and scipy.optimize by the upper search's Nelder-Mead alone;
    # this process has both already (conftest imports fel.search), so ask a
    # fresh one
    code = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fel import cli\n"
        "for argv, status in ((['lower-eval', '--A', '1'], 0), (['bounds', '--orders', '2,5,10'], 0),\n"
        "                     (['plot-data', '--figure', 'lower-family', '--samples', '5'], 0),\n"
        "                     (['lower-eval', '--A', '7/5'], 2)):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == status, argv\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))[:5]\n"
        "for argv in (['upper-eval', '--A', '1'], ['nt', '--kind', 'qnr', '--max-p', '2000']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import fel.search\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["nt", "--kind", "qnr", "--max-p", "1000"], ["upper-eval", "--A", "1"]])
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the first write, as when ``| head`` exits early
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "fel.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == cli.EXIT_PIPE
    assert err == b""


def test_reproduce_bounds_script_runs():
    # the headline-table script: one row per shipped penalty, and its own
    # lower <= upper and unit-L1 asserts hold (else it exits non-zero)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "reproduce_bounds.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, script, "--digits", "30"],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    firsts = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    assert [w for w in firsts if w in tables.PENALTIES] == list(tables.PENALTIES)


def test_all_lists_each_public_name():
    # every exported name exists, and every public function and class a
    # module defines is exported
    for name in ("precision", "lower", "upper", "closed_form", "nt", "search", "tables"):
        mod = importlib.import_module("fel." + name)
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], name
        defined = {n for n, v in vars(mod).items()
                   if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
                   and v.__module__ == mod.__name__}
        assert sorted(defined - set(mod.__all__)) == [], name
