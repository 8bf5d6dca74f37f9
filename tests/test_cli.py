import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linniklab.cli import _build_parser, main

SCHEDULE_DESK_GOLDEN = (
    '{"x": 100000.0, "q0_sq": 4.50728223331559e-19, "d": 100.0, "delta": 1.0, '
    '"theta0": 0.02895765365907, "eps": 0.01, "h": 13254.745276196, '
    '"mode": "desk"}'
)

TRIPLES_X30_GOLDEN = """\
# p1\tp2\tp3\tx\ty\tresidual
5\t2\t3\t1\t1\t0
5\t3\t2\t0\t1\t0
7\t2\t5\t0\t2\t0
7\t5\t2\t0\t1\t0
13\t2\t11\t1\t3\t0
13\t11\t2\t0\t1\t0
19\t2\t17\t0\t4\t0
19\t17\t2\t0\t1\t0
"""

LINNIK_X100_GOLDEN = """\
# p\tx\ty
2\t0\t1
3\t1\t1
5\t0\t2
11\t1\t3
17\t0\t4
19\t3\t3
37\t0\t6
41\t2\t6
53\t4\t6
59\t3\t7
73\t6\t6
83\t1\t9
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_schedule_desk_golden(capsys):
    rc, out, err = run(capsys, "schedule", "--x", "1e5", "--mode", "desk",
                       "--d", "100", "--eps", "0.01")
    assert rc == 0 and err == ""
    assert out.strip() == SCHEDULE_DESK_GOLDEN


def test_schedule_paper_mode(capsys):
    rc, out, _ = run(capsys, "schedule", "--x", "1e6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "paper"
    assert set(doc) == {"x", "q0_sq", "d", "delta", "theta0", "eps", "h", "mode"}
    assert doc["eps"] > 1.0


def test_schedule_eps_report(capsys):
    rc, out, _ = run(capsys, "schedule", "--eps-report")
    assert rc == 0
    doc = json.loads(out)
    assert doc["eps_exceeds_one"] is True
    assert doc["concave_in_t"] is True
    assert doc["x_hi"] == 1e300
    assert doc["eps_min_lower_bound"] > 1.0


def test_cfrac_golden(capsys):
    rc, out, _ = run(capsys, "cfrac", "--name", "sqrt2", "--count", "5")
    assert rc == 0
    assert out.splitlines() == [
        "# index\ta\tq",
        "0\t1\t1", "1\t3\t2", "2\t7\t5", "3\t17\t12", "4\t41\t29",
    ]


def test_cfrac_pattern_and_verify(capsys):
    rc, out, _ = run(capsys, "cfrac", "--name", "e", "--count", "6", "--pattern")
    assert rc == 0
    assert out.splitlines()[1:] == [
        "0\t2\t1", "1\t3\t1", "2\t8\t3", "3\t11\t4", "4\t19\t7", "5\t87\t32",
    ]
    rc, out, _ = run(capsys, "cfrac", "--name", "sqrt2", "--count", "3",
                     "--verify")
    lines = out.splitlines()
    assert lines[0] == "# index\ta\tq\tq2_err"
    # every certified convergent keeps q²·|x − a/q| below 1
    for row in lines[1:]:
        assert float(row.split("\t")[3]) < 1.0


def test_cfrac_rational_and_errors(capsys):
    rc, out, _ = run(capsys, "cfrac", "--value", "355/113", "--count", "10")
    assert rc == 0
    assert out.splitlines()[1:] == ["0\t3\t1", "1\t22\t7", "2\t355\t113"]
    rc, _, err = run(capsys, "cfrac", "--value", "0.5±0.6")
    assert rc == 2 and "first partial quotient" in err


def test_cfrac_verify_rounds_q2_err_once(capsys):
    # √2 to 420 decimals: from index 404 on, |x − a/q| is below the normal
    # float range, and from 423 on below the smallest float
    v = str(math.isqrt(2 * 10 ** 840))
    x = Fraction(int(v), 10 ** 420)
    lo, hi = x - Fraction(1, 10 ** 420), x + Fraction(1, 10 ** 420)
    rc, out, _ = run(capsys, "cfrac", "--value", f"{v[0]}.{v[1:]}±1e-420",
                     "--count", "600", "--verify")
    rows = [r.split("\t") for r in out.splitlines()[1:]]
    assert rc == 0 and len(rows) == 549
    for idx, a, q, err in rows:
        a, q = int(a), int(q)
        exact = max(abs(lo - Fraction(a, q)), abs(hi - Fraction(a, q))) * q * q
        assert err == f"{float(exact):.15g}", idx
    assert rows[404][3] == "0.353553390593274"
    assert rows[548][3] == "0.588592755192145"


def test_kernel_tsv_golden(capsys):
    rc, out, _ = run(capsys, "kernel", "--eps", "1", "--k", "2", "--grid", "5")
    assert rc == 0
    assert out.splitlines() == [
        "# y\ttheta\tantideriv",
        "-1.25\t0\t0",
        "-0.625\t1\t0.25",
        "0\t1\t0.875",
        "0.625\t1\t1.5",
        "1.25\t0\t1.75",
    ]


def test_kernel_antiderivative_charged_against_work_budget(capsys):
    # the README call's only charge is θ's piece table, k⁴·bit_length(k) = 4⁴·3
    argv = ("kernel", "--eps", "0.1", "--k", "4", "--grid", "21")
    rc, want, _ = run(capsys, *argv)
    assert rc == 0
    lines = want.splitlines()
    assert len(lines) == 22
    assert lines[4] == "-0.0875\t0.500000000000002\t0.00145833333333334"
    assert lines[18] == "0.0875\t0.499999999999999\t0.173541666666667"
    rc, out, _ = run(capsys, *argv, "--work-budget", "768")
    assert rc == 0 and out == want
    rc, out, err = run(capsys, *argv, "--work-budget", "767")
    assert rc == 3 and out == "" and "--work-budget" in err
    # --fourier forms no antiderivative and is not charged
    rc, out, _ = run(capsys, "kernel", "--eps", "0.1", "--k", "4", "--grid", "2001",
                     "--fourier", "--work-budget", "1")
    assert rc == 0 and len(out.splitlines()) == 2002


def test_kernel_over_budget_exits_before_the_grid(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "kernel", "--eps", "0.1", "--k", "200", "--grid", "100000")
    assert time.perf_counter() - start < 1.0
    assert rc == 3 and out == "" and "Traceback" not in err


_GAMMA_X100 = ("--x", "100", "--l1", "1.4", "--l2", "-1", "--l3", "-1.7",
               "--eta", "0", "--eps", "2", "--lambda0", "0.1", "--k", "40")


@pytest.mark.parametrize("argv", [
    ("kernel", "--eps", "0.1", "--k", "40", "--grid", "3", "--ymax", "0.09"),
    ("gamma", "--mode", "smoothed", *_GAMMA_X100),
    ("gamma", "--mode", "split", *_GAMMA_X100, "--d", "5"),
], ids=["kernel", "smoothed", "split"])
def test_band_theta_table_charged_against_work_budget(capsys, argv):
    # θ's piece table at k = 40 is charged k⁴·bit_length(k) = 40⁴·6 before it
    # is built, on top of (not summed with) any other charge
    rc, out, _ = run(capsys, *argv, "--work-budget", str(40**4 * 6))
    assert rc == 0 and out
    rc, out, err = run(capsys, *argv, "--work-budget", str(40**4 * 6 - 1))
    assert rc == 3 and out == "" and "budget" in err and "Traceback" not in err


def test_kernel_fourier_golden(capsys):
    rc, out, _ = run(capsys, "kernel", "--eps", "1", "--k", "2", "--grid", "3",
                     "--fourier")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# x\ttheta_hat\tbound"
    assert lines[1] == "0\t1.75\t1.75"
    for row in lines[1:]:
        x, th, bd = (float(v) for v in row.split("\t"))
        assert abs(th) <= bd * (1 + 1e-12)


def test_expsum_json(capsys, table4):
    from linniklab.expsums import i_j, s_ld

    rc, out, _ = run(capsys, "expsum", "--x", "1000", "--alpha", "0.1",
                     "--lo", "500", "--hi", "1000")
    assert rc == 0
    doc = json.loads(out)
    s = s_ld(table4, 1, 1, (500.0, 1000.0), 0.1)
    i = i_j((500.0, 1000.0), 0.1)
    assert doc["s_re"] == pytest.approx(s.real, rel=1e-14)
    assert doc["s_abs"] == pytest.approx(abs(s), rel=1e-14)
    assert doc["i_abs"] == pytest.approx(abs(i), rel=1e-14, abs=1e-20)
    assert doc["gap_over_x"] == pytest.approx(abs(s - i) / 1000.0, rel=1e-14)
    assert doc["alpha_exceeds_delta"] is None


def test_eterm_golden(capsys):
    rc, out, _ = run(capsys, "eterm", "--x", "10", "--q", "1", "--a", "1")
    assert rc == 0
    assert out.strip() == '{"x": 10.0, "q": 1, "a": 1, "e_term": -4.65289246928253}'


def test_bvsum(capsys):
    rc, out, _ = run(capsys, "bvsum", "--x", "10", "--q-max", "1")
    assert rc == 0
    assert json.loads(out)["bv_sum"] == 4.65289246928253
    rc, out, _ = run(capsys, "bvsum", "--x", "10", "--q-max", "0")
    assert rc == 0
    assert json.loads(out)["bv_sum"] == 0.0


def test_minorarc_json(capsys):
    rc, out, _ = run(capsys, "minorarc", "--x", "1000", "--a", "1", "--q", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha"] == 0.2          # defaults to a/q
    assert doc["ratio"] == pytest.approx(doc["s_abs"] / doc["bound"], rel=1e-14)


def test_gamma_sharp_golden(capsys):
    rc, out, _ = run(capsys, "gamma", "--mode", "sharp", "--x", "30",
                     "--l1", "1", "--l2", "-1", "--l3", "-1", "--eta", "0",
                     "--eps", "0.5", "--lambda0", "0.05")
    assert rc == 0
    assert out.strip() == ('{"mode": "sharp", "x": 30.0, "eps": 0.5, '
                           '"gamma": 124.588567452503, "triple_count": 8}')


def test_gamma_split_json(capsys):
    rc, out, _ = run(capsys, "gamma", "--mode", "split", "--x", "1000",
                     "--l1", "1.4", "--l2", "-1", "--l3", "-1.7",
                     "--eta", "0", "--eps", "2", "--lambda0", "0.1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["d"] == pytest.approx(1000.0**0.4, rel=1e-12)  # default cut
    assert 4.0 * (doc["g1"] + doc["g2"] + doc["g3"]) == pytest.approx(
        doc["gamma0"], rel=1e-9)
    assert doc["gamma"] >= doc["gamma0"] >= 0.0
    assert "timing" not in doc


def test_gamma_lattice_identical_for_any_thread_count(capsys, monkeypatch):
    # a decimal split that the lattice computes and a named-constant split
    # that stays on the pair scan (22 chunks of live pairs): the same
    # bytes on 1, 4 and 8 threads, and exit 3 once the lattice's FFT counts
    # cannot be rounded
    from linniklab import gamma
    took = []
    for engine in (gamma._Lattice, gamma._Engine):
        monkeypatch.setattr(engine, "scan", lambda self, *a, scan=engine.scan, **k:
                            took.append(type(self)) or scan(self, *a, **k))
    argv = ("gamma", "--mode", "split", "--x", "3e4", "--l1", "1.4", "--l2", "-1",
            "--l3", "-1.7", "--eta=-0.3791", "--eps", "2", "--lambda0", "0.1", "--d", "100")
    named = ("gamma", "--mode", "split", "--x", "1e4", "--l1", "sqrt2", "--l2", "-1",
             "--l3=-sqrt3", "--eta=0.3", "--eps", "2", "--lambda0", "0.1", "--k", "4",
             "--d", "30")
    for args, engine in ((argv, gamma._Lattice), (named, gamma._Engine)):
        outs = set()
        took.clear()
        for threads in ("1", "4", "8"):
            rc, out, err = run(capsys, *args, "--threads", threads)
            assert rc == 0 and err == ""
            outs.add(out)
        assert len(outs) == 1 and took == [engine] * 3
    monkeypatch.setattr(gamma, "_FFT_C", 1e20)
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == "" and "rounding" in err


def test_gamma_volume_json(capsys):
    from linniklab.gamma import Instance, b_j_volume
    from linniklab.smoothing import kernel_new

    rc, out, _ = run(capsys, "gamma", "--mode", "volume", "--x", "100",
                     "--l1", "1", "--l2", "-1", "--l3", "-1", "--eta", "0",
                     "--eps", "20", "--lambda0", "0.5", "--k", "4")
    assert rc == 0
    doc = json.loads(out)
    inst = Instance(1.0, -1.0, -1.0, eta=0.0, eps=20.0, x=100.0, lambda0=0.5)
    want = b_j_volume(inst, kernel_new(20.0, 4), (50.0, 100.0))
    assert doc["b_j"] == pytest.approx(want, rel=1e-14)
    assert (doc["j_lo"], doc["j_hi"]) == (50.0, 100.0)


def test_gamma_volume_work_budget(capsys):
    # a corner inside θ's support costs about k³ in exact rationals: k = 11
    # and k = 400 run, k = 100000 is refused before any power is formed
    argv = ("gamma", "--mode", "volume", "--x", "100", "--l1", "1", "--l2", "-1",
            "--l3", "-1", "--eta", "0.45", "--eps", "0.5", "--lambda0", "0.5",
            "--j-lo", "50", "--j-hi", "100")
    for k in ("11", "400"):
        rc, out, _ = run(capsys, *argv, "--k", k)
        assert rc == 0 and json.loads(out)["b_j"] > 0.0
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv, "--k", "100000")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3 and out == "" and "work budget" in err and "Traceback" not in err
    rc, out, err = run(capsys, *argv, "--k", "400", "--work-budget", "1000")
    assert rc == 3 and out == ""


def test_triples_golden_and_determinism(capsys):
    argv = ["triples", "--l1", "1", "--l2", "-1", "--l3", "-1", "--eta", "0",
            "--eps", "0.5", "--x", "30", "--lambda0", "0.05"]
    with pytest.warns(UserWarning):
        rc, out1, _ = run(capsys, *argv)
    assert rc == 0 and out1 == TRIPLES_X30_GOLDEN
    with pytest.warns(UserWarning):
        rc, out2, _ = run(capsys, *argv, "--threads", "2")
    assert out2 == out1


def test_triples_exact_zero_residual_prints_zero(capsys):
    # 1.4·p1 − p2 − 1.7·p3 + 0.3 = (14·p1 − 10·p2 − 17·p3 + 3)/10: the exact
    # re-check prints 0 on exactly the rows where the numerator vanishes
    with pytest.warns(UserWarning):
        rc, out, _ = run(capsys, "triples", "--l1", "1.4", "--l2", "-1", "--l3", "-1.7",
                         "--eta", "0.3", "--eps", "0.5", "--x", "3000", "--lambda0", "0.1",
                         "--require-linnik=", "--max-results", "100000")
    assert rc == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert ["601", "313", "311", "-1", "-1", "0"] in rows
    zero = [(14 * int(p1) - 10 * int(p2) - 17 * int(p3) + 3 == 0, res == "0")
            for p1, p2, p3, _, _, res in rows]
    assert all(a == b for a, b in zero)
    assert sum(a for a, _ in zero) == 821


def test_triples_named_coefficients_no_warning(capsys, recwarn):
    rc, out, _ = run(capsys, "triples", "--l1", "sqrt2", "--l2", "-1",
                     "--l3=-sqrt3", "--eta", "0", "--eps", "0.01",
                     "--x", "10000", "--lambda0", "0.5")
    assert rc == 0
    assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]
    lines = out.splitlines()
    assert lines[0] == "# p1\tp2\tp3\tx\ty\tresidual"
    assert len(lines) > 1
    p1, p2, p3, wx, wy, res = lines[1].split("\t")
    assert int(wx) ** 2 + int(wy) ** 2 + 1 == int(p3)
    assert abs(float(res)) < 0.01
    # the scan√2/√3 residual actually uses the certified named constants
    want = math.sqrt(2) * int(p1) - int(p2) - math.sqrt(3) * int(p3)
    assert abs(float(res) - want) < 1e-9


def test_linnik_golden(capsys):
    rc, out, _ = run(capsys, "linnik", "--x", "100")
    assert rc == 0 and out == LINNIK_X100_GOLDEN


def test_linnik_empirical(capsys):
    rc, out, _ = run(capsys, "linnik", "--x", "1000", "--empirical")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"x": 1000.0, "sum": 428,
                   "main_term": 387.105521657467, "ratio": 1.10564168180148}


def test_hooley_golden(capsys):
    rc, out, _ = run(capsys, "hooley", "--x", "100", "--stat", "sigma",
                     "--d", "5", "--lambda0", "0.1")
    assert rc == 0
    assert json.loads(out)["value"] == 13
    rc, out, _ = run(capsys, "hooley", "--x", "100", "--stat", "fomega",
                     "--omega", "10")
    assert rc == 0
    assert json.loads(out)["value"] == 25


def test_singular_json(capsys):
    rc, out, _ = run(capsys, "singular", "--pmax", "1000")
    assert rc == 0
    doc = json.loads(out)
    assert doc["linnik_constant"] == pytest.approx(4.0 * doc["f_zero"], rel=1e-14)
    assert doc["bracket_lo"] <= doc["n_s"] <= doc["bracket_hi"]
    rc, out, _ = run(capsys, "singular", "--pmax", "1000", "--dmax", "100",
                     "--checkpoints", "10,50,100")
    doc = json.loads(out)
    assert doc["chi_phi"][0] == [10, 0.75]
    assert len(doc["chi_phi"]) == 3


@pytest.mark.parametrize("s, calls", [("0", 1), ("0.5", 2)])
def test_singular_evaluates_n0_once(capsys, monkeypatch, s, calls):
    # N(0) is shared by f_zero and linnik_constant, and is N(s) itself at s = 0
    from linniklab import arith, dirichlet
    from linniklab.cli import _r15

    seen = []
    real = dirichlet.n_s

    def counted(*a):
        seen.append(a[0])
        return real(*a)

    monkeypatch.setattr(dirichlet, "n_s", counted)
    rc, out, _ = run(capsys, "singular", "--pmax", "1e4", "--s", s)
    assert rc == 0 and len(seen) == calls, seen
    doc = json.loads(out)
    table = arith.sieve_primes(10**4)
    assert doc["f_zero"] == _r15(dirichlet.f_zero(10**4, table))
    assert doc["linnik_constant"] == _r15(dirichlet.linnik_constant(10**4, table))


def test_exit_code_domain_errors(capsys):
    rc, _, err = run(capsys, "gamma", "--mode", "split", "--x", "1000",
                     "--l1", "1", "--l2", "-1", "--l3", "-1", "--eta", "0",
                     "--eps", "1", "--d", "900")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "minorarc", "--x", "1000", "--a", "0", "--q", "5",
                     "--alpha", "0.01")
    assert rc == 2 and "major-arc" in err


def test_gamma_nan_eps_exits_2(capsys):
    rc, out, err = run(capsys, "gamma", "--mode", "sharp", "--x", "1000",
                       "--l1", "1.4", "--l2", "-1", "--l3", "-1.7", "--eta", "0",
                       "--eps", "nan", "--lambda0", "0.1")
    assert rc == 2 and out == "" and "finite" in err


def test_hooley_non_finite_x_exits_2(capsys):
    for x in ("nan", "inf"):
        rc, out, err = run(capsys, "hooley", "--x", x, "--stat", "sigma",
                           "--d", "5")
        assert rc == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("argv, needle", [
    (("gamma", "--config", "{missing}", "--mode", "sharp", "--x", "1000"),
     "cannot read config"),
    (("singular", "--pmax", "1e4", "--dmax", "abc"), "--dmax"),
    (("kernel", "--eps", "nan"), "finite"),
    (("kernel", "--eps", "0.1", "--ymax", "nan"), "--ymax"),
    # a modulus past the table of X is refused up front
    (("bvsum", "--x", "7", "--q-max", "12"), "modulus bound Q=12 must lie in [0, 7]"),
    (("eterm", "--x", "100", "--q", "1000", "--a", "1"),
     "modulus q=1000 must lie in [1, 100]"),
    (("triples", "--x", "100", "--l1", "1", "--l2", "-1", "--l3", "-1", "--eps", "1",
      "--threads", "-3"), "--threads"),
    (("gamma", "--mode", "sharp", "--x", "100", "--l1", "1", "--l2", "-1", "--l3", "-1",
      "--eps", "1", "--threads", "0"), "--threads"),
], ids=["missing-config", "dmax-not-a-number", "eps-nan", "ymax-nan",
        "bvsum-modulus-over-limit", "eterm-modulus-over-limit", "triples-threads-negative",
        "gamma-threads-zero"])
def test_bad_input_exits_2(capsys, tmp_path, argv, needle):
    argv = [a.format(missing=tmp_path / "missing.cfg") for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and needle in err


def test_exit_code_resource_errors(capsys, monkeypatch):
    argv = ["gamma", "--mode", "sharp", "--x", "10000", "--l1", "1",
            "--l2", "-1", "--l3", "-1", "--eta", "0", "--eps", "1"]
    rc, _, err = run(capsys, *argv, "--work-budget", "100")
    assert rc == 3 and "budget" in err
    monkeypatch.setenv("LINNIKLAB_WORK_BUDGET", "100")
    rc, _, err = run(capsys, *argv)
    assert rc == 3
    # explicit flag outranks the environment
    rc, out, _ = run(capsys, *argv, "--work-budget", "100000000")
    assert rc == 0 and json.loads(out)["triple_count"] >= 0


def test_work_budget_env_ignored_without_the_flag(capsys, monkeypatch):
    want = run(capsys, "schedule", "--x", "1e12")
    monkeypatch.setenv("LINNIKLAB_WORK_BUDGET", "nan")
    assert want[0] == 0 and run(capsys, "schedule", "--x", "1e12") == want
    # the scan flags are not accepted where nothing would read them
    for flag in ("--threads", "--work-budget"):
        rc, out, _ = run(capsys, "schedule", "--x", "1e12", flag, "2")
        assert rc == 2 and out == ""


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("x = 1e5\nd = 100\neps = 0.01\nmode = desk\n")
    rc, out, _ = run(capsys, "schedule", "--config", str(cfg))
    assert rc == 0 and out.strip() == SCHEDULE_DESK_GOLDEN
    # explicit flag outranks the config value
    rc, out, _ = run(capsys, "schedule", "--config", str(cfg), "--eps", "0.5")
    assert json.loads(out)["eps"] == 0.5


def test_config_defaults_last_one_call(capsys, tmp_path):
    # the parser tree is built once per process; a config's values are the
    # defaults of its own call only, also when that call fails
    assert _build_parser() is _build_parser()
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("count = 3\nverify = true\n")
    rc, out, _ = run(capsys, "cfrac", "--config", str(cfg), "--name", "sqrt2")
    assert rc == 0 and len(out.splitlines()) == 4 and "q2_err" in out
    rc, out, _ = run(capsys, "cfrac", "--name", "sqrt2")
    assert rc == 0 and out.splitlines()[0] == "# index\ta\tq"
    assert len(out.splitlines()) == 11
    cfg.write_text("pattern = true\ncount = abc\n")
    rc, out, _ = run(capsys, "cfrac", "--config", str(cfg), "--name", "e")
    assert rc == 2 and out == ""
    rc, out, _ = run(capsys, "cfrac", "--name", "e", "--count", "4")
    assert rc == 0 and out.splitlines()[1:] == ["0\t2\t1", "1\t3\t1", "2\t8\t3", "3\t11\t4"]


@pytest.mark.parametrize("joined", [
    ("cfrac", "--name=-sqrt2", "--count", "5", "--verify"),
    ("cfrac", "--value=-355/113", "--count", "10", "--verify"),
    ("cfrac", "--value=-1.4142135±1e-7", "--count", "6"),
    ("triples", "--x", "1e3", "--l1", "sqrt2", "--l2", "-1", "--l3=-sqrt3",
     "--eps", "0.05", "--lambda0", "0.1"),
    ("gamma", "--mode", "sharp", "--x", "1e3", "--l1=-e", "--l2", "1",
     "--l3", "phi", "--eta=-1e-1", "--eps", "1"),
], ids=["name", "value", "value-err", "l3", "l1-eta"])
def test_signed_values_as_separate_arguments(capsys, joined):
    # `--flag -sqrt2` is read as `--flag=-sqrt2`
    split = [s for a in joined for s in (a.split("=", 1) if "=-" in a else (a,))]
    want = run(capsys, *joined)
    assert want[0] == 0 and (want[1].startswith("{") or len(want[1].splitlines()) > 1)
    assert run(capsys, *split) == want


@pytest.mark.parametrize("argv", [
    ("minorarc", "--x", "1e4", "--a", "1", "--q", "7"),
    ("expsum", "--x", "1e4", "--alpha", "0.3"),
    ("singular", "--pmax", "1e4", "--dmax", "1e3", "--checkpoints", "10,1000"),
    ("eterm", "--x", "1e4", "--q", "4", "--a", "1"),
    ("eterm", "--x", "1e4", "--q", "9973", "--a", "1"),
    ("bvsum", "--x", "1e4", "--q-max", "30"),
    ("linnik", "--x", "1e4", "--empirical"),
])
def test_commands_without_factorisation_build_no_spf(capsys, monkeypatch, argv):
    # none of these reads r(p − 1) per prime, so none builds the per-slot
    # column of the row reader (`linnik --empirical` sums its rows instead)
    from linniklab import arith

    def refuse(*a):
        raise AssertionError("per-prime rows built")

    monkeypatch.setattr(arith, "linnik_rows", refuse)
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and out.startswith("{"), err


def test_linnik_witnesses_peak_memory(capsys, table7):
    # the witness table over [0, X] peaked at 101.5 MiB; the row reader holds
    # a bool array over the odd slots while it sweeps, then one uint16 column
    # over them (10 MB at 1e7), and its per-prime results (29 MiB in all).
    # table7 keeps the 1e7 column, so nothing is sieved
    from linniklab.arith import PrimeTable

    tracemalloc.start()
    try:
        rc = main(["linnik", "--x", "1e7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, _ = capsys.readouterr()
    assert rc == 0 and out.count("\n") == 110_026          # 110,025 Linnik primes
    assert peak < 48 * 2**20, peak / 2**20
    for name in ("spf", "witnesses"):
        assert not hasattr(PrimeTable, name) and not hasattr(table7, name)


@pytest.mark.parametrize("argv", [
    ("linnik", "--x", "1e4", "--empirical"),
    ("singular", "--pmax", "1e4", "--dmax", "1e3", "--checkpoints", "10,1000"),
    ("minorarc", "--x", "1e4", "--a", "1", "--q", "7"),
    ("expsum", "--x", "1e4", "--alpha", "0.3"),
])
def test_commands_over_prime_sums_build_no_log_column(capsys, monkeypatch, argv):
    from linniklab import arith

    def refuse(self):
        raise AssertionError("log column built")

    monkeypatch.setattr(arith.PrimeTable, "log_weights", property(refuse))
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and out.startswith("{"), err


def _modules_after_cli_import(pkg: str) -> str:
    """The modules of pkg that `import linniklab.cli` loads, from a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, linniklab.cli, linniklab; "
            "print(sorted(m for m in sys.modules "
            f"if m == {pkg!r} or m.startswith({pkg + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy.integrate alone costs most of a CLI call's start-up; the library
    # must not import scipy at all
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_mpmath():
    # every certified value is a Fraction or an int; numpy is the only
    # runtime dependency
    assert _modules_after_cli_import("mpmath") == "[]"


def test_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "linniklab", "eterm", "--x", "10", "--q", "1",
         "--a", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == \
        '{"x": 10.0, "q": 1, "a": 1, "e_term": -4.65289246928253}'
    bad = subprocess.run(
        [sys.executable, "-m", "linniklab", "kernel", "--nope"],
        capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 2


# every subcommand at X ≤ 1e5, its limit rising and falling; eterm exits 2,
# its q above its own table's limit though a longer column is kept
_TOUR = [
    "linnik --x 3000",
    "hooley --x 1e5 --stat sigma --d 30",
    "eterm --x 100 --q 1000 --a 1",
    "singular --pmax 1e5 --dmax 1e4 --checkpoints 100,10000",
    "bvsum --x 3e4 --q-max 30",
    "minorarc --x 1e5 --a 1 --q 7",
    "expsum --x 5e4 --alpha 0.2",
    "schedule --eps-report",
    "cfrac --name sqrt2 --count 8 --verify",
    "kernel --eps 0.1 --k 4 --grid 201 --fourier",
    "gamma --mode sharp --x 3000 --l1 1.4 --l2 -1 --l3 -1.7 --eta=0.3 --eps 2",
    "triples --x 1000 --l1 sqrt2 --l2 -1 --l3=-sqrt3 --eps 0.01 --lambda0 0.5",
]


def test_tour_in_one_process_matches_cold_runs(capsys, monkeypatch):
    from linniklab import arith

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cold(argv: str):
        proc = subprocess.run([sys.executable, "-m", "linniklab", *argv.split()],
                              capture_output=True, text=True, timeout=120, env=env)
        return proc.returncode, proc.stdout

    with ThreadPoolExecutor(4) as pool:
        want = dict(zip(_TOUR, pool.map(cold, _TOUR)))
    assert {rc for rc, _ in want.values()} == {0, 2}
    # no kept column at the start, so the forward pass sieves as it rises
    monkeypatch.setattr(arith, "_kept", (1, np.zeros(0, dtype=np.int64)))
    for argv in _TOUR + _TOUR[::-1]:
        rc, out, _ = run(capsys, *argv.split())
        assert (rc, out) == want[argv], argv


def _readme_tour() -> list[list[str]]:
    """The argvs of every `linniklab` line of README's command-line tour,
    backslash continuations joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line tour", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["linniklab"]]


def test_readme_tour_runs(capsys):
    # a line cut at its continuation would miss a required flag and exit 2
    tour = _readme_tour()
    assert {argv[0] for argv in tour} == set(_build_parser()[1])
    for argv in tour:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and out, (argv, err)


_INSTANCE = ("--l1", "1", "--l2", "-1", "--l3", "-1", "--eps", "0.5")
# every subcommand: a valid argv, and the numeric flags it takes
_ADVERSARIAL_BASE = {
    "schedule": (("--x", "1e5", "--mode", "desk", "--d", "100", "--eps", "0.01"),
                 ("--x", "--d", "--eps", "--h", "--delta", "--x-lo", "--x-hi")),
    "cfrac": (("--name", "sqrt2"), ("--count",)),
    "kernel": (("--eps", "0.1", "--fourier"), ("--eps", "--k", "--grid", "--ymax", "--xmax")),
    "expsum": (("--x", "1000", "--alpha", "0.1"),
               ("--x", "--alpha", "--lambda0", "--l", "--d", "--lo", "--hi", "--delta")),
    "eterm": (("--x", "100", "--q", "4", "--a", "1"), ("--x", "--q", "--a")),
    "bvsum": (("--x", "100", "--q-max", "3"), ("--x", "--q-max")),
    "minorarc": (("--x", "1000", "--a", "1", "--q", "5"), ("--x", "--a", "--q", "--alpha")),
    "gamma": (("--mode", "volume", "--x", "100", *_INSTANCE),
              ("--x", "--l1", "--l2", "--l3", "--eta", "--eps", "--lambda0", "--d", "--k",
               "--j-lo", "--j-hi")),
    "triples": (("--x", "30", *_INSTANCE),
                ("--x", "--l1", "--l2", "--l3", "--eta", "--eps", "--lambda0",
                 "--require-linnik", "--max-results")),
    "hooley": (("--x", "100", "--stat", "fomega", "--omega", "10"),
               ("--x", "--d", "--lambda0", "--omega")),
    "singular": (("--pmax", "100", "--dmax", "50"), ("--pmax", "--s", "--dmax", "--checkpoints")),
    "linnik": (("--x", "100"), ("--x",)),
}
_ADVERSARIAL = [
    pytest.param((cmd, *base, flag, bad), {}, 2, id=f"{cmd}{flag}={bad}")
    for cmd, (base, flags) in _ADVERSARIAL_BASE.items()
    for flag in (*flags, "--threads", "--work-budget")
    for bad in ("nan", "inf", "abc")
] + [
    pytest.param(("bvsum", "--x", "100", "--q-max", "3"),
                 {"LINNIKLAB_WORK_BUDGET": "nan"}, 2, id="bvsum-env=nan"),
    pytest.param(("gamma", *_INSTANCE, "--x", "100"),
                 {"LINNIKLAB_WORK_BUDGET": "nan"}, 2, id="gamma-env=nan"),
    pytest.param(("triples", *_INSTANCE, "--x", "30", "--work-budget", "0"), {}, 2,
                 id="triples--work-budget=0"),
    pytest.param(("gamma", *_INSTANCE, "--x", "100", "--l1", "1e400"), {}, 2,
                 id="gamma--l1=1e400"),
    # exact rationals whose floats overflow or round to 0, refused by the instance
    pytest.param(("gamma", *_INSTANCE, "--x", "100", "--eta=1e400"), {}, 2,
                 id="gamma--eta=1e400"),
    pytest.param(("gamma", *_INSTANCE, "--x", "100", "--l3=-1e-400"), {}, 2,
                 id="gamma--l3=-1e-400"),
    # read only by the triple finder's theorem-mode warning
    pytest.param(("gamma", *_INSTANCE, "--x", "100", "--ratio-irrational"), {}, 2,
                 id="gamma--ratio-irrational"),
    # λ₁p₁ and λ₂p₂ overflow: the pair scan cannot bound its rounding
    pytest.param(("gamma", "--mode", "sharp", "--x", "100", "--l1", "1e308",
                  "--l2=-1e308", "--l3=-1", "--eps", "100", "--lambda0", "0.1"), {}, 2,
                 id="gamma--l1=1e308"),
    pytest.param(("triples", "--x", "100", "--l1", "1e308", "--l2=-1e308", "--l3=-1",
                  "--eps", "100", "--lambda0", "0.1", "--ratio-irrational",
                  "--require-linnik="), {}, 2,
                 id="triples--l1=1e308"),
    pytest.param(("singular", "--pmax", "100", "--s=-inf"), {}, 2, id="singular--s=-inf"),
    pytest.param(("schedule", "--x", "1e5", "--mode", "bogus"), {}, 2,
                 id="schedule--mode=bogus"),
    pytest.param(("kernel", "--nope"), {}, 2, id="kernel--nope"),
    # a signed value joins the flag before it; flags stay flags
    pytest.param(("cfrac", "--name", "-sqrt2", "--nope"), {}, 2, id="cfrac--name=-sqrt2--nope"),
    pytest.param(("cfrac", "--name", "-bogus"), {}, 2, id="cfrac--name=-bogus"),
    pytest.param(("cfrac", "--name", "--count", "3"), {}, 2, id="cfrac--name--count"),
    pytest.param(("cfrac", "--name", "-h"), {}, 2, id="cfrac--name-h"),
    pytest.param(("triples", *_INSTANCE, "--x", "30", "--l3", "-nope"), {}, 2,
                 id="triples--l3=-nope"),
    pytest.param(("cfrac", "--verify", "-sqrt2", "--name", "e"), {}, 2,
                 id="cfrac--verify-sqrt2"),
    # finite but extreme: overflow or underflow inside the computation
    pytest.param(("kernel", "--eps", "1e400"), {}, 2, id="kernel--eps=1e400"),
    pytest.param(("kernel", "--eps", "1e308", "--fourier"), {}, 2, id="kernel--eps=1e308"),
    pytest.param(("kernel", "--eps", "5e-324", "--fourier"), {}, 2, id="kernel--eps=5e-324"),
    pytest.param(("kernel", "--eps", "0.1", "--ymax", "1e308"), {}, 2, id="kernel--ymax=1e308"),
    pytest.param(("kernel", "--eps", "0.1", "--k", "200", "--grid", "100000"), {}, 3,
                 id="kernel--k=200--grid=1e5"),
    pytest.param(("kernel", "--eps", "0.1", "--k", "200", "--grid", "2", "--ymax", "0.09"),
                 {}, 3, id="kernel--k=200--grid=2"),
    pytest.param(("kernel", "--eps", "0.1", "--grid", "100000000000"), {}, 3,
                 id="kernel--grid=1e11"),
    pytest.param(("kernel", "--eps", "0.1", "--fourier", "--grid", "100000000000"), {}, 3,
                 id="kernel--fourier--grid=1e11"),
    pytest.param(("expsum", "--x", "1e4", "--alpha", "0.1",
                  "--d", "100000000000000000000000"), {}, 2, id="expsum--d=1e23"),
    pytest.param(("eterm", "--x", "1e4", "--q", "100000000000000000000000", "--a", "1"),
                 {}, 2, id="eterm--q=1e23"),
    pytest.param(("hooley", "--x", "100", "--stat", "fomega", "--omega", "1e300"), {}, 2,
                 id="hooley--omega=1e300"),
    # |S − I|/X needs X > 0; λ₀ only sets the default lo
    pytest.param(("expsum", "--x", "0", "--alpha", "0.1", "--lo", "1", "--hi", "100"),
                 {}, 2, id="expsum--x=0"),
    pytest.param(("expsum", "--x", "-5", "--alpha", "0.1", "--lo", "1", "--hi", "100"),
                 {}, 2, id="expsum--x=-5"),
    pytest.param(("singular", "--pmax", "100", "--dmax", "1e300"), {}, 3,
                 id="singular--dmax=1e300"),
    # convergents past the float range or past int→str's digit limit
    pytest.param(("cfrac", "--name", "sqrt2", "--pattern", "--count", "1000", "--verify"),
                 {}, 2, id="cfrac--pattern--count=1000--verify"),
    pytest.param(("cfrac", "--name", "sqrt2", "--pattern", "--count", "12000"), {}, 3,
                 id="cfrac--pattern--count=12000"),
    pytest.param(("cfrac", "--name", "sqrt2", "--pattern", "--count", "1000000000"), {}, 3,
                 id="cfrac--pattern--count=1e9"),
    # decimal exponents that would build 10^(10⁷) or more
    pytest.param(("gamma", "--mode", "sharp", "--x", "100", "--l1", "1e-10000000",
                  "--l2", "-1", "--l3", "-1", "--eps", "1"), {}, 2, id="gamma--l1=1e-10000000"),
    pytest.param(("gamma", "--mode", "sharp", *_INSTANCE, "--x", "100", "--eta", "1e10000000"),
                 {}, 2, id="gamma--eta=1e10000000"),
    pytest.param(("cfrac", "--value", "1e-1000000000"), {}, 2, id="cfrac--value=1e-1000000000"),
]


@pytest.mark.parametrize("argv, env, want", _ADVERSARIAL)
def test_adversarial_input_exits_cleanly(capsys, monkeypatch, argv, env, want):
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    rc, out, err = run(capsys, *argv)
    assert rc == want and out == "" and "Traceback" not in err


# valid argvs that together take every mode of each subcommand
_MODES = {
    "schedule": (("--x", "1e12"),
                 ("--x", "1e5", "--mode", "desk", "--d", "100", "--eps", "0.01",
                  "--h", "5", "--delta", "0.5"),
                 ("--eps-report", "--x-lo", "1e3", "--x-hi", "1e10")),
    "cfrac": (("--name", "sqrt2", "--pattern", "--count", "5"),
              ("--value", "1.5", "--verify")),
    "kernel": (("--eps", "0.1", "--k", "2", "--grid", "5", "--ymax", "0.2"),
               ("--eps", "0.1", "--grid", "5", "--fourier", "--xmax", "10")),
    "expsum": (("--x", "1000", "--alpha", "0.1", "--delta", "0.01"),
               ("--x", "1000", "--alpha", "0.1", "--lo", "10", "--hi", "500",
                "--l", "1", "--d", "4")),
    "eterm": (("--x", "100", "--q", "4", "--a", "1"),),
    "bvsum": (("--x", "100", "--q-max", "3"),),
    "minorarc": (("--x", "1000", "--a", "1", "--q", "5"),
                 ("--x", "1000", "--a", "1", "--q", "5", "--alpha", "0.2")),
    "gamma": tuple(("--mode", mode, "--x", "100", *_INSTANCE, *extra) for mode, extra in (
        ("sharp", ("--threads", "2")), ("smoothed", ("--k", "2")),
        ("split", ("--d", "3")), ("volume", ("--j-lo", "60", "--j-hi", "90")))),
    "triples": (("--x", "30", *_INSTANCE, "--ratio-irrational",
                 "--require-linnik", "1,3", "--max-results", "5"),),
    "hooley": (("--x", "100", "--d", "5", "--lambda0", "0.5"),
               ("--x", "100", "--stat", "fomega", "--omega", "10")),
    "singular": (("--pmax", "100", "--s", "1", "--dmax", "50", "--checkpoints", "10,50"),),
    "linnik": (("--x", "100"), ("--x", "100", "--empirical")),
}


@pytest.mark.parametrize("cmd", sorted(_MODES))
def test_every_declared_flag_is_read(capsys, monkeypatch, cmd):
    reads = set()

    class Spy(argparse.Namespace):
        # logs the attributes read once parsing has finished
        def __getattribute__(self, name):
            if object.__getattribute__(self, "__dict__").get("_parsed"):
                reads.add(name)
            return object.__getattribute__(self, name)

    parse = argparse.ArgumentParser.parse_args

    def spy_parse(self, args=None, namespace=None):
        ns = parse(self, args, Spy())
        ns._parsed = True
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy_parse)
    for argv in _MODES[cmd]:
        rc, _, err = run(capsys, cmd, *argv)
        assert rc == 0, (argv, err)
    declared = {a.dest for a in _build_parser()[1][cmd]._actions if a.dest != "help"}
    assert declared - reads == set()


def test_non_finite_report_exits_3(capsys, monkeypatch):
    from linniklab import expsums

    monkeypatch.setattr(expsums, "e_term", lambda *a: math.nan)
    rc, out, err = run(capsys, "eterm", "--x", "100", "--q", "4", "--a", "1")
    assert rc == 3 and out == "" and "non-finite" in err


@pytest.mark.parametrize("cmd, line", [
    ("kernel", "work_budget = abc"), ("kernel", "eps = nan"), ("kernel", "k = 1.5"),
    ("kernel", "fourier = yes"), ("schedule", "mode = bogus"),
])
def test_config_values_checked_like_flags(capsys, tmp_path, cmd, line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"x = 1e5\neps = 0.1\nunknown_key = 1\n{line}\n")
    rc, out, err = run(capsys, cmd, "--config", str(cfg))
    assert rc == 2 and out == "" and "Traceback" not in err


def test_config_booleans_and_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("eps = 1\nk = 2\ngrid = 3\nfourier = true\nwork-budget = 1\n")
    monkeypatch.setenv("LINNIKLAB_WORK_BUDGET", "100")
    rc, out, _ = run(capsys, "kernel", "--config", str(cfg))
    assert rc == 0 and out.splitlines()[0] == "# x\ttheta_hat\tbound"
    cfg.write_text("x = 10000\nl1 = 1\nl2 = -1\nl3 = -1\neps = 1\n"
                   "work_budget = 1e9\nratio-irrational = false\n")
    argv = ["gamma", "--config", str(cfg)]
    rc, _, err = run(capsys, *argv)     # the environment outranks the config
    assert rc == 3 and "budget" in err
    rc, out, _ = run(capsys, *argv, "--work-budget", "1e9")
    assert rc == 0 and json.loads(out)["triple_count"] >= 0
