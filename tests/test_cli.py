import hashlib
import io
import json
import math
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pretense import cli, core
from pretense.asymptotics import xi_from_sums
from pretense.cli import ExperimentConfig, main, parse_checkpoints, parse_spec_arg
from pretense.constructions import spec_from_descriptor
from pretense.dirichlet import DETERMINANT_ORDER_CAP, convolve_table

from conftest import cli_env
from oracles import reference_csv


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pretense.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def test_sums_documented_example():
    r = run_cli("sums", "--spec", "one", "--N", "100", "--checkpoints", "10,100")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "n_or_x,re,im,abs",
        "10,10,0,10",
        "100,100,0,100",
    ]


def test_exit_code_usage_error():
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("eval", "--N", "10").returncode == 2  # missing --spec


def test_exit_code_computation_error():
    r = run_cli("eval", "--spec", "char:4:7", "--N", "10")
    assert r.returncode == 1
    assert "error:" in r.stderr
    r = run_cli("distance", "--kind", "beta", "--spec", "one", "--spec2", "one",
                "--beta", "2.0", "--N", "100")
    assert r.returncode == 1


def test_eval_writes_table(tmp_path):
    out = tmp_path / "mu.csv"
    r = run_cli("eval", "--spec", "moebius", "--N", "30", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_or_x,re,im,abs"
    assert lines[1] == "1,1,0,1"
    assert lines[30] == "30,-1,0,1"


def test_sieve_summary():
    r = run_cli("sieve", "--N", "1000")
    assert json.loads(r.stdout) == {"count": 168, "largest": 997, "limit": 1000}


def test_quotient_and_inverse_json():
    r = run_cli("quotient", "--spec", "one", "--spec2", "delta",
                "--primes", "2,3", "--k", "4")
    obj = json.loads(r.stdout)
    assert obj[0]["prime"] == 2
    # one * h = delta means h is moebius: coeffs 1, -1, 0, 0, 0
    assert obj[0]["coeffs"][:3] == [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]

    r = run_cli("inverse", "--spec", "one", "--primes", "2", "--k", "3")
    obj = json.loads(r.stdout)
    assert obj[0]["coeffs"][:2] == [[1.0, 0.0], [-1.0, 0.0]]


def test_distance_report_json():
    r = run_cli("distance", "--spec", "one", "--spec2", "liouville",
                "--N", "10000", "--kind", "beta", "--beta", "0.5")
    obj = json.loads(r.stdout)
    assert obj["kind"] == "beta"
    assert obj["params"]["beta"] == 0.5


def test_construct_descriptor_pipeline(tmp_path):
    desc = tmp_path / "spec.json"
    r = run_cli("construct", "sparse-dyadic", "--spec", "char:4:1",
                "--intervals", "3,4", "--out", str(desc))
    assert r.returncode == 0
    obj = json.loads(desc.read_text())
    assert obj["construction"] == "sparse-dyadic"
    r = run_cli("sums", "--spec", str(desc), "--N", "1000",
                "--checkpoints", "10,1000")
    assert r.returncode == 0


def test_growth_fit_reads_sums_csv(tmp_path):
    csvp = tmp_path / "s.csv"
    run_cli("sums", "--spec", "one", "--N", "100000",
            "--checkpoints", "1e3:1e5", "--out", str(csvp))
    r = run_cli("growth-fit", str(csvp))
    fit = json.loads(r.stdout)
    assert fit["exponent"] == pytest.approx(1.0, abs=1e-3)


def test_lseries_value():
    r = run_cli("lseries", "--spec", "one", "--s", "2", "--N", "100000")
    obj = json.loads(r.stdout)
    assert obj["value"][0] == pytest.approx(1.6449340668482264, abs=1e-5)
    assert obj["tail_bound"] is not None


def test_hseries_delta_quotient():
    r = run_cli("hseries", "--spec", "one", "--spec2", "delta", "--sigma", "1.0")
    obj = json.loads(r.stdout)
    assert obj["kind"] == "H-sigma"
    assert obj["partials"][-1] == pytest.approx(1.5 + 4.0 / 3.0)


def test_degree_subcommand():
    r = run_cli("degree", "--constituents", "one,one", "--p", "3", "--k", "5")
    obj = json.loads(r.stdout)
    assert obj["degree"] == 2
    assert obj["coeffs"]["alpha"] == [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]
    assert max(obj["residuals"]) <= 1e-12


def test_xi_point_lookup():
    r = run_cli("xi", "--spec", "one", "--N", "10000", "--alpha", "1",
                "--x", "123.5", "--mode", "exact")
    obj = json.loads(r.stdout)
    assert obj["value"][0] == pytest.approx(123 / 123.5)


def test_xi_profile_csv(tmp_path):
    out = tmp_path / "xi.csv"
    r = run_cli("xi", "--spec", "twist:1.25", "--N", "1000", "--alpha", "0.5",
                "--checkpoints", "1,10,100,777,1000", "--out", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == (
        b"n_or_x,re,im,abs\n"
        b"1,1,0,1\n"
        b"10,-0.907079891580022,1.9703595190539283,2.169126682339059\n"
        b"100,0.9760681294077322,-6.16519171972881,6.24197868742422\n"
        b"777,7.2667844533241475,15.85248880412553,17.438679926416416\n"
        b"1000,2.2660105025145882,19.646733628957556,19.776980201353243\n"
    )


def test_verify_table_and_artifact(tmp_path):
    r = run_cli("verify", "remark1", "--seed", "5", "--out", str(tmp_path))
    assert r.returncode == 0
    assert "PASS  remark1:h-powers-of-two" in r.stdout
    obj = json.loads((tmp_path / "remark1.json").read_text())
    assert obj["all_passed"] is True and obj["seed"] == 5


def test_verify_unknown_bundle_is_usage_error():
    assert run_cli("verify", "thm9").returncode == 2


def test_bundle_json_accepts_numpy_bool_rows():
    # rows built from numpy-scalar comparisons carry np.bool_, which
    # json.dumps rejects unless the serializer coerces it
    from pretense.verify import CheckResult, bundle_json

    row = CheckResult(bundle="b", name="n", passed=np.bool_(True), detail="d")
    obj = json.loads(bundle_json("b", 1, [row]))
    assert obj["results"][0]["passed"] is True


def test_verify_thread_count_does_not_change_output(tmp_path):
    a = run_cli("verify", "remark1", "--seed", "11", "--threads", "1",
                "--out", str(tmp_path / "a"))
    b = run_cli("verify", "remark1", "--seed", "11", "--threads", "4",
                "--out", str(tmp_path / "b"))
    assert a.stdout == b.stdout
    assert (tmp_path / "a" / "remark1.json").read_bytes() == \
           (tmp_path / "b" / "remark1.json").read_bytes()


# ---------------------------------------------------------------------------
# spec/checkpoint argument parsing (in process)

def test_parse_spec_arg_shorthands():
    assert parse_spec_arg("one").name == "one"
    chi = parse_spec_arg("char:4:1")
    assert chi.value(3, 1) == -1.0
    k = parse_spec_arg("kron:-4")
    assert k.value(3, 1) == -1.0
    r = parse_spec_arg("random:42")
    assert r.params["seed"] == 42


def test_parse_spec_arg_inline_json():
    spec = parse_spec_arg(json.dumps({"construction": "character", "q": 4, "index": 1}))
    assert spec.value(5, 1) == 1.0


def test_parse_spec_arg_rejects_garbage():
    from pretense.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        parse_spec_arg("zeta-of-everything")


_CM = core.COMPLETELY_MULTIPLICATIVE


@pytest.mark.parametrize("text, desc", [
    ("one", {"construction": "one"}),
    ("delta", {"construction": "delta"}),
    ("moebius", {"construction": "moebius"}),
    ("liouville", {"construction": "liouville"}),
    ("char:7:3", {"construction": "character", "q": 7, "index": 3}),
    ("kron:-4", {"construction": "kronecker", "D": -4}),
    ("twist:1.5", {"construction": "archimedean-twist", "t": 1.5}),
    ("random:42", {"construction": "random", "seed": 42, "limit": 10**4, "kind": _CM}),
    ("random:5:1e3", {"construction": "random", "seed": 5, "limit": 1000, "kind": _CM}),
    ("random:5:300:gm", {"construction": "random", "seed": 5, "limit": 300,
                         "kind": core.GENERAL_MULTIPLICATIVE}),
])
def test_parse_spec_arg_shorthand_is_its_descriptor(text, desc):
    assert parse_spec_arg(text).params == parse_spec_arg(json.dumps(desc)).params


_CHI4 = {"construction": "character", "q": 4, "index": 1}


# one case or more for each construct choice
@pytest.mark.parametrize("argv, desc", [
    ("one", {"construction": "one"}),
    ("delta", {"construction": "delta"}),
    ("moebius", {"construction": "moebius"}),
    ("liouville", {"construction": "liouville"}),
    ("character --q 7 --index 1", {"construction": "character", "q": 7, "index": 1}),
    ("character --q 5", {"construction": "character", "q": 5, "index": 0}),
    ("kronecker --D 5", {"construction": "kronecker", "D": 5}),
    ("archimedean-twist --t 1.5", {"construction": "archimedean-twist", "t": 1.5}),
    ("archimedean-twist", {"construction": "archimedean-twist", "t": 0.0}),
    ("sparse-dyadic --spec char:4:1 --intervals 3,4",
     {"construction": "sparse-dyadic", "base": _CHI4, "exponents": [3, 4]}),
    ("optimality-twist --spec char:4:1 --beta 0.7 --cutoff 1e3",
     {"construction": "optimality-twist", "base": _CHI4, "beta": 0.7,
      "diagnostics_cutoff": 1000}),
    ("squarefree-restrict --spec twist:0.5",
     {"construction": "squarefree-restrict",
      "base": {"construction": "archimedean-twist", "t": 0.5}}),
    ("random --seed 3 --N 200",
     {"construction": "random", "seed": 3, "limit": 200, "kind": _CM}),
    ("random --seed 3", {"construction": "random", "seed": 3, "limit": 10**4, "kind": _CM}),
    ("degree-d --constituents char:4:1,one",
     {"construction": "degree-d", "constituents": [_CHI4, {"construction": "one"}]}),
])
def test_construct_is_its_descriptor(capsys, argv, desc):
    assert main(["construct", *argv.split()]) == 0
    want = core.json_text(spec_from_descriptor(desc).params) + "\n"
    assert capsys.readouterr().out == want


def test_constituents_take_inline_json(capsys):
    inline = json.dumps(_CHI4) + ",one"
    for argv in (["degree", "--p", "3", "--k", "2"], ["construct", "degree-d"]):
        assert main(argv + ["--constituents", "char:4:1,one"]) == 0
        want = capsys.readouterr().out
        assert main(argv + ["--constituents", inline]) == 0
        assert capsys.readouterr().out == want


def test_parse_checkpoints_forms():
    import numpy as np

    assert list(parse_checkpoints("10,20,30", 100)) == [10.0, 20.0, 30.0]
    g = parse_checkpoints("10:1000", 10**6)
    assert g[0] == 10 and g[-1] <= 1000
    d = parse_checkpoints(None, 50)
    assert d[0] >= 1 and d[-1] <= 50


# ---------------------------------------------------------------------------
# config files

config_key = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_.0123456789"),
    min_size=1, max_size=12,
).filter(lambda s: not s.startswith("."))
config_value = st.text(
    alphabet=st.characters(blacklist_characters="\n\r\x00%=[]#;",
                           blacklist_categories=("Cs",)),
    min_size=0, max_size=30,
).map(str.strip)


@given(st.dictionaries(config_key, config_value, max_size=8))
@settings(max_examples=50, deadline=None)
def test_config_roundtrip_lossless(args):
    cfg = ExperimentConfig({"args": args} if args else {})
    assert ExperimentConfig.loads(cfg.dumps()) == cfg


def test_config_supplies_defaults(tmp_path):
    cfg = ExperimentConfig({
        "args": {"N": "100", "checkpoints": "10,100"},
        "spec": {"construction": "character", "q": "4", "index": "1"},
    })
    path = tmp_path / "exp.cfg"
    cfg.dump(path)
    r = run_cli("sums", "--config", str(path))
    assert r.returncode == 0
    rows = r.stdout.splitlines()[1:]
    assert rows[0].startswith("10,") and rows[1].startswith("100,")


def test_config_explicit_flag_wins(tmp_path):
    cfg = ExperimentConfig({"args": {"N": "100", "checkpoints": "10,100"},
                            "spec": {"construction": "one"}})
    path = tmp_path / "exp.cfg"
    cfg.dump(path)
    r = run_cli("sums", "--config", str(path), "--checkpoints", "25,100")
    assert r.stdout.splitlines()[1] == "25,25,0,25"


def test_config_nested_descriptor(tmp_path):
    cfg = ExperimentConfig({
        "args": {"N": "1000", "checkpoints": "1000"},
        "spec": {
            "construction": "squarefree-restrict",
            "base.construction": "character",
            "base.q": "4",
            "base.index": "1",
        },
    })
    path = tmp_path / "exp.cfg"
    cfg.dump(path)
    r = run_cli("sums", "--config", str(path))
    assert r.returncode == 0


def test_main_in_process_exit_codes(capsys):
    assert main(["sieve", "--N", "50"]) == 0
    capsys.readouterr()
    assert main(["eval", "--spec", "char:4:9", "--N", "10"]) == 1


@pytest.mark.parametrize("cps", ["nan,5", "5,nan", "inf", "5,inf", "-inf,5"])
def test_non_finite_checkpoints_give_one_error_line(capsys, cps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sums", "--spec", "liouville", "--N", "100", f"--checkpoints={cps}"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: checkpoints must be finite"]


def _nested_descriptor(depth: int) -> str:
    # squarefree-restrict applied `depth` times to the constant one
    return ('{"construction":"squarefree-restrict","base":' * depth
            + '{"construction":"one"}' + "}" * depth)


@pytest.mark.parametrize("desc, err", [
    ('{"construction":"character"}', "'character' descriptor needs field 'q'"),
    ('{"construction":"character","q":"x","index":1}',
     "'character' descriptor field 'q' is invalid: 'x'"),
    ('{"construction":"squarefree-restrict","base":{"construction":"kronecker"}}',
     "'kronecker' descriptor needs field 'D'"),
    ('{"construction":"degree-d","constituents":5}',
     "'degree-d' descriptor field 'constituents' is invalid: 5"),
    ('{"construction":"tabulated","values":[[2,1]]}',
     "'tabulated' descriptor field 'values' is invalid: [[2, 1]]"),
    ('{"construction":"tabulated","bounded_by_one":true,'
     '"values":[[2,1,0.5,0],[4,1,9,0]]}',
     "'tabulated' row (p=4, k=1) is never read: need a prime p and k >= 1"),
    # deeper than the recursion limit of spec_from_descriptor, then of json.loads
    pytest.param(_nested_descriptor(600), "descriptor nested too deeply", id="nested-600"),
    pytest.param(_nested_descriptor(3000), "descriptor nested too deeply", id="nested-3000"),
])
def test_bad_descriptor_fields_give_one_error_line(capsys, desc, err):
    assert main(["sums", "--spec", desc, "--N", "100"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {err}"]


@pytest.mark.parametrize("spec", [
    # a dotted key 3000 deep, past the recursion limit of json.dumps
    {".".join(["base"] * 3000) + ".construction": "one"},
    # a value 5000 deep, past the recursion limit of json.loads
    {"construction": "one", "base": "[" * 5000 + "]" * 5000},
], ids=["deep-key", "deep-value"])
def test_deep_config_descriptor_gives_one_error_line(capsys, tmp_path, spec):
    path = tmp_path / "deep.cfg"
    ExperimentConfig({"spec": spec}).dump(path)
    assert main(["sums", "--config", str(path), "--N", "100"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: descriptor nested too deeply"]


@pytest.mark.parametrize("cps", ["a,b", "1:2:3", "10,"])
def test_unparsable_checkpoints_give_one_error_line(capsys, cps):
    assert main(["sums", "--spec", "one", "--N", "100", f"--checkpoints={cps}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot parse checkpoints")


def test_thread_count_errors_give_one_error_line(capsys, monkeypatch):
    # --threads and PRETENSE_THREADS select nothing, but each is checked
    monkeypatch.delenv("PRETENSE_THREADS", raising=False)
    for argv in (["verify", "remark1", "--threads", "0"],
                 ["sums", "--spec", "one", "--N", "100", "--threads", "-1"],
                 ["distance", "--spec", "one", "--spec2", "one", "--N", "100",
                  "--threads", "-2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: thread count must be >= 1, got {argv[-1]}"]
    for env, line in (("abc", "must be an integer >= 1, got 'abc'"),
                      ("0", "must be >= 1, got 0"),
                      ("1.5", "must be an integer >= 1, got '1.5'")):
        monkeypatch.setenv("PRETENSE_THREADS", env)
        assert main(["verify", "thm2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: PRETENSE_THREADS {line}"]


@pytest.mark.parametrize("argv, err", [
    (["sums", "--spec", '{"construction":"sparse-dyadic","base":{"construction":"one"},'
      '"exponents":[40]}', "--N", "100"], "interval exponents must be in [0, 5]"),
    (["construct", "sparse-dyadic", "--spec", "char:4:1", "--intervals", "2,x"],
     "cannot parse --intervals '2,x'"),
    (["quotient", "--spec", "one", "--spec2", "delta", "--primes", "2,y"],
     "cannot parse --primes '2,y'"),
    (["sums", "--spec", '{"construction":"random","seed":-1,"limit":100,'
      '"kind":"completely-multiplicative"}', "--N", "100"], "seed must be >= 0"),
    (["sums", "--spec", '{"construction":"random-pair","seed":-3,"limit":100,'
      '"ndiff":2}', "--N", "100"], "seed must be >= 0"),
    (["quotient", "--spec", "one", "--spec2", "delta", "--primes", "2,3215031751"],
     "3215031751 is not prime"),
    (["construct", "random", "--N", "0"], "limit must be >= 2"),
    (["construct", "optimality-twist", "--spec", "char:4:1", "--cutoff", "0"],
     "sieve limit must be >= 2"),
    (["inverse", "--spec", "one", "--primes", "4", "--k", "2"], "4 is not prime"),
    (["inverse", "--spec", "one", "--primes", "2", "--k", "-3"],
     "--k must be >= 0, got -3"),
])
def test_bad_construction_inputs_give_one_error_line(capsys, argv, err):
    t0 = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - t0 < 5.0  # rejected up front, not after the work
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {err}")


@pytest.mark.parametrize("argv", [
    ["quotient", "--spec", "moebius", "--spec2", "one"],
    ["inverse", "--spec", "moebius", "--primes", "2"],
    ["distance", "--kind", "strong", "--beta", "1", "--spec", "moebius",
     "--spec2", "one", "--N", "100"],
    ["hseries", "--spec", "moebius", "--spec2", "one", "--sigma", "2"],
    ["hseries", "--spec", "moebius", "--sigma", "2"],
    ["degree", "--constituents", "one,one"],
], ids=["quotient", "inverse", "distance-strong", "hseries-quotient",
        "hseries-squares", "degree"])
def test_every_exponent_stops_at_the_cap(capsys, argv):
    cap = DETERMINANT_ORDER_CAP
    assert cap == 64
    t0 = time.monotonic()
    assert main(argv + ["--k", str(cap + 1)]) == 1
    assert time.monotonic() - t0 < 1.0  # rejected up front, not after the work
    assert capsys.readouterr().err.splitlines() == [
        f"error: exponent --k {cap + 1} exceeds the documented cap {cap}"]
    assert main(argv + ["--k", str(cap)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", ["2.5", "100.7", "1e2.5", "nan", "inf", "x"])
def test_non_whole_limit_is_a_usage_error(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["sums", "--spec", "moebius", "--N", n])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"argument --N: not a whole number: {n!r}")
    assert sum("error:" in line for line in err) == 1
    assert main(["sieve", "--N", "1e3"]) == 0
    assert json.loads(capsys.readouterr().out)["limit"] == 1000


@pytest.mark.parametrize("argv, err", [
    (["hseries", "--spec", "one", "--sigma", "nan"], "--sigma must be finite"),
    (["hseries", "--spec", "one", "--sigma", "2", "--Y", "inf"], "--Y must be finite"),
    (["lseries", "--spec", "one", "--s", "nan", "--N", "100"], "--s must be finite"),
    (["lseries", "--spec", "one", "--s", "2+infj", "--N", "100"], "--s must be finite"),
    (["xi", "--spec", "one", "--N", "100", "--alpha", "nan", "--x", "50"],
     "--alpha must be finite"),
    (["xi", "--spec", "one", "--N", "100", "--alpha", "0.5", "--x", "inf"],
     "--x must be finite"),
    (["distance", "--kind", "strong", "--beta", "inf", "--spec", "one",
      "--spec2", "one", "--N", "100"], "--beta must be finite"),
    (["distance", "--kind", "beta", "--beta=-inf", "--spec", "one",
      "--spec2", "one", "--N", "100"], "--beta must be finite"),
    (["construct", "archimedean-twist", "--t", "inf"], "--t must be finite"),
    (["lseries", "--spec", "one", "--N", "1000", "--s", "-200"],
     "truncated Dirichlet series at s=(-200+0j) is not finite"),
    (["lseries", "--spec", "moebius", "--spec2", "liouville", "--N", "1000",
      "--s", "2+1e308j"], "truncated Dirichlet series at s=(2+1e+308j) is not finite"),
    (["hseries", "--spec", "moebius", "--N", "1000", "--sigma", "-800"],
     "h-L2 partials are not finite"),
])
def test_non_finite_numbers_give_one_error_line(capsys, argv, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {err}"), lines
    assert out.out == ""


@pytest.mark.parametrize("p, k, err", [
    ("0", "1", "0 is not prime"),
    ("1", "1", "1 is not prime"),
    ("-3", "1", "-3 is not prime"),
    ("4", "1", "4 is not prime"),
    ("9", "1", "9 is not prime"),
    ("3825123056546413051", "1", "3825123056546413051 is not prime"),
    ("7", "-1", "--k must be >= 0, got -1"),
])
def test_degree_bad_prime_or_depth_gives_one_error_line(capsys, p, k, err):
    argv = ["degree", "--constituents", "char:4:1,kron:5", f"--p={p}", f"--k={k}"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == [f"error: {err}"]
    assert out.out == ""


@pytest.mark.parametrize("body, err", [
    (b"n_or_x,re,im,abs\n10,abc,0,1\n", "malformed CSV: could not convert string 'abc'"),
    (b"n_or_x,re,im,abs\n10,\xff\xfe,0,1\n", "bad.csv is not a text CSV"),
    (b"\x89PNG\r\n\x1a\n\x00\x00", "bad.csv is not a text CSV"),
    (b"n_or_x,re,im,abs\n10,1,0\n", "CSV rows have 3 cells, want 4"),
    (b"10,1,0,1\n", "missing n_or_x,re,im,abs header"),
    (b"", "missing n_or_x,re,im,abs header"),
    (b"n_or_x,re,im,abs\n0,1,0,1\n-1,2,0,2\n3,3,0,3\n4,4,0,4\n",
     "growth fit needs finite checkpoints > 0"),
    (b"n_or_x,re,im,abs\n1,nan,0,1\n2,inf,0,2\n3,3,0,3\n4,4,0,4\n",
     "growth fit needs finite sums"),
])
def test_growth_fit_bad_input_gives_one_error_line(tmp_path, capsys, body, err):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    assert main(["growth-fit", str(path)]) == 1
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and err in lines[0], lines
    assert out.out == ""


def test_overflowing_modulus_gives_one_error_line_and_no_file(tmp_path, capsys):
    spec = ('{"construction":"tabulated","kind":"completely-multiplicative",'
            '"values":[[2,1,1.5e308,1.5e308]]}')
    out = tmp_path / "t.csv"
    assert main(["eval", "--spec", spec, "--N", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: absolute value too large"]
    assert not out.exists()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_strong_distance_with_overflowing_weights_warns_nothing(capsys):
    # p^{jβ} overflows for p^128 beyond 2^1024; those terms are 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distance", "--kind", "strong", "--beta", "2", "--spec", "moebius",
                     "--spec2", "one", "--N", "1000", "--k", "64"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert _sha(out.out.encode()) == (
        "2fb916334ec3ff9e26dc2a9a4abe28893facdc221102c751573e0a4608674b39")


def test_local_series_with_overflowing_weights_is_finite(capsys):
    # p^{kσ} overflows a float for 1000^192; such a term is |h|·p^{−kσ}
    assert main(["hseries", "--spec", "moebius", "--sigma", "3", "--Y", "1000",
                 "--k", "64"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    params = json.loads(out.out)["params"]
    assert params["converged"] and math.isfinite(params["value"])


@pytest.mark.parametrize("block", [1, 3, core.BLOCK])
def test_sieve_out_file_does_not_depend_on_block(tmp_path, capsys, monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK", block)
    out = tmp_path / "primes.txt"
    assert main(["sieve", "--N", "1e5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == '{"count": 9592, "largest": 99991, "limit": 100000}\n'
    assert _sha(out.read_bytes()) == (
        "c3619ea2991c7ecfafb0d556367ea1876f42dfcd0bedbf6e338972b8f2edfa9d")


def test_failed_sieve_out_leaves_no_file(tmp_path, capsys, monkeypatch):
    def lines(primes):
        yield "p\n"
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_prime_lines", lines)
    out = tmp_path / "primes.txt"
    assert main(["sieve", "--N", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: disk full"]
    assert not out.exists()


# sha256 of the stdout of each small JSON command: the report format is part
# of the interface, so these bytes must not move
_JSON_STDOUT_SHA256 = {
    "quotient": ("quotient --spec one --spec2 delta --primes 2,3 --k 4",
                 "4eab933e727243ff91466f3b90ad814ad3a49e13809b3a1bd830fb0276f077a6"),
    "quotient2": ("quotient --spec char:4:1 --spec2 liouville --k 8",
                  "e887626f1663869accc3bd8fcd54149a53d59653f89d59a53e07274749750ee1"),
    "quotient3": ("quotient --spec twist:1.5 --spec2 moebius --primes 2,3,5,7 --k 6",
                  "def35de7b7aaa5427b29abbe46f0ccbcd63440c82684a037f8447314829ee3da"),
    "inverse": ("inverse --spec one --primes 2 --k 3",
                "fb01907ccbad877c3d16ad3acc9ae9b2046045fb0bc0e7cdd127ec691579f1d9"),
    "inverse2": ("inverse --spec char:7:1 --primes 2,3,5 --k 6",
                 "c8cc0d2f6e28a279399e08b93363c346647c6f251c264944e3c52b7828db90c9"),
    "inverse3": ("inverse --spec twist:0.5 --k 5",
                 "d030afb5e8bbc1f91175e5cfa1da4bf738db824026ad3927c026d5ae636bbc2d"),
    "dist-classic": ("distance --spec one --spec2 liouville --N 1e5",
                     "a26f7b5d4a004f2749bfeec0c71387f61a86ea1910cf17e9528666ccf3e54888"),
    "dist-beta": ("distance --kind beta --beta 0.5 --spec char:4:1 --spec2 moebius --N 1e5",
                  "53ec72e12864ac12f3e3680c52c2258740d5f0f9d980e0af9823bf89dd0cf80f"),
    "dist-strong": ("distance --kind strong --beta 1.5 --k 3 --spec one --spec2 liouville --N 1e5",
                    "c6c1667f8f3e0acc0fe59077c89b7baec39780f268aca330c9314dade3859660"),
    "hseries-N": ("hseries --spec one --spec2 liouville --sigma 1.0 --N 1e5",
                  "006678d640a210ad346561dd892b5b773b3bd04ef2ff749047ba750a5084e442"),
    "hseries-N-L1": ("hseries --spec char:4:1 --sigma 0.8 --N 1e5 --power L1",
                     "785804ce77036c0fc00e8cc352067e421ad595f91fe129678a167a05cff53e76"),
    "hseries-Y": ("hseries --spec one --spec2 delta --sigma 1.0 --Y 10000",
                  "4644303368d580ebdf11791f4159e18275df76f55b0cd5404807491848041979"),
    "hseries-Y-div": ("hseries --spec one --spec2 liouville --sigma 0.3 --Y 50 --k 10",
                      "531942ab08e97bda4a0f1815b5a354472e9f4821e17f88ae6dd85d21c16d20ce"),
    "hseries-sigma": ("hseries --spec one --spec2 delta --sigma 1.0",
                      "9fef82ee1b1ffccdd97f1cd7b5ab0c8476e0a522d14ffdd2283e782bde5e9ad9"),
    "hseries-sigma-div": ("hseries --spec moebius --spec2 one --sigma 0.5 --k 12",
                          "9a6a26242b1bb2c705ed9be5f4b19fee2c6c597772e57e99bcdfff9e7dbf16d2"),
    "degree": ("degree --constituents one,one --p 3 --k 5",
               "449a5adf40eaa1928abb851be826a65ab1e5cae29a772ddc70adc410e14375cf"),
    "degree2": ("degree --constituents char:4:1,twist:1.5,liouville --p 5 --k 7",
                "7a72095ab096e258beedd7d7d14b53de572dc4d34bf9a095e1c524f750da5f77"),
    "construct-char": ("construct character --q 7 --index 1",
                       "62499a3783a543a68cf4c62a67c58c44fb006f7f34b801753404972cc91a470d"),
    "construct-random": ("construct random --seed 3 --N 200",
                         "e6d9a111bd82cb15b5ff34a8a5baeae84050582d6462e2313fffd8abfff18eb2"),
    "construct-twist": ("construct optimality-twist --spec char:4:1 --beta 0.5 --cutoff 1000",
                        "dd8951b1f2eec119734b830a792b9eb391090cbf49686d99d10a7333bc7ba169"),
    "construct-degree": ("construct degree-d --constituents char:4:1,one",
                         "2a0733518f9a947727c0949691c779f56acc19e6021c750a90a8fb1226bcc478"),
    "construct-sparse": ("construct sparse-dyadic --spec char:4:1 --intervals 3,4",
                         "d54c88c98da51196807284c3529508006eafc0650a4a25a049de26f24e74e4ae"),
    "xi-x": ("xi --spec char:4:1 --N 1e5 --alpha 0.5 --x 777.5",
             "d61caa510a42157271bded72bc7e8205e76b2f34223c4a855c5a2f4c401e5ba6"),
    "xi-x-nearest": ("xi --spec twist:1.25 --N 1e5 --alpha 0.5 --x 1234.5 --mode nearest",
                     "0041adb69651ec0edac5eab4d74582320be1427a77798fc4996dd80afee0f888"),
    "xi-x-spec2": ("xi --spec char:4:1 --spec2 moebius --N 1e5 --alpha 0.5 --x 5000",
                   "f2fd580f9d047a668803f9eecccc59679f7bfee4d5838412295631bbda1a129e"),
    "lseries": ("lseries --spec one --s 2 --N 1e5",
                "6e5d2841058f68b8831d928c3963e85bd59cfb96faf4e6d6ca637d4f1d3ab037"),
    "lseries-c": ("lseries --spec char:4:1 --s 2+1j --N 1e5",
                  "945b1a153868fba2a9486c1e0684352bc04b9964790ba9f624fa099e923ff20a"),
    "lseries-spec2": ("lseries --spec char:4:1 --spec2 moebius --s 2 --N 1e5",
                      "e0f8b02d12563869d449628333b9c054f46041a4af118b3297dcf67795696790"),
    "lseries-spec2-c": ("lseries --spec one --spec2 liouville --s 3+2j --N 1e5",
                        "8bef6f2450f180893946d992f7412f2fde7101c819062f8dbf1a7cd9b6c58f7b"),
    "sieve": ("sieve --N 1e5",
              "22b835eee61b3fbfd5dba6dd795a30a5355061fc4a9a56dcddd131a74f1fa5f4"),
    "growth-fit": ("growth-fit",
                   "27eb614170242d7b626c5ecde5fb699a83b1068690f2e54b7da51dae6053a05a"),
}


@pytest.mark.parametrize("name", list(_JSON_STDOUT_SHA256))
def test_json_command_stdout_bytes_are_pinned(tmp_path, capsys, name):
    argv, want = _JSON_STDOUT_SHA256[name]
    argv = argv.split()
    if argv[0] == "growth-fit":
        csv = tmp_path / "sums.csv"
        assert main(["sums", "--spec", "char:4:1", "--N", "1e5", "--out", str(csv)]) == 0
        argv.append(str(csv))
    assert main(argv) == 0, capsys.readouterr().err
    assert _sha(capsys.readouterr().out.encode()) == want


@pytest.mark.parametrize("spec", ["moebius", "char:7:1"])
def test_cli_csv_bytes_match_reference_formatter(tmp_path, capsys, spec):
    """eval, sums, convolve and the xi profile write the bytes of the
    row-at-a-time formatter, over more than two BLOCKs of rows."""
    n = 2 * core.BLOCK + 5
    grid = ",".join(map(str, range(1, n + 1)))
    f = parse_spec_arg(spec)
    sv = core.build_sieve(n)
    table = core.evaluate(f, sv)
    series = core.partial_sums(table, np.arange(1.0, n + 1))
    xi = xi_from_sums(series, 0.5)
    conv = convolve_table(table, core.evaluate(parse_spec_arg("liouville"), sv))
    rows = range(1, n + 1)
    cases = {
        "eval": (["eval", "--spec", spec, "--N", str(n)],
                 reference_csv(rows, table.values[1:])),
        "sums": (["sums", "--spec", spec, "--N", str(n), "--checkpoints", grid],
                 reference_csv(series.checkpoints, series.sums)),
        "convolve": (["convolve", "--spec", spec, "--spec2", "liouville", "--N", str(n)],
                     reference_csv(rows, conv.values[1:])),
        "xi": (["xi", "--spec", spec, "--N", str(n), "--alpha", "0.5",
                "--checkpoints", grid],
               reference_csv(xi.checkpoints, xi.samples)),
    }
    for name, (argv, want) in cases.items():
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
        assert _sha(out.read_bytes()) == _sha(want.encode()), name
    assert main(cases["eval"][0]) == 0
    assert _sha(capsys.readouterr().out.encode()) == _sha(cases["eval"][1].encode())


# ---------------------------------------------------------------------------
# fuzzing argv and descriptors: every input exits 0, 1 or 2, a failure says
# so in one error line, and nothing escapes as a traceback

_SMALL_INTS = st.integers(min_value=-3, max_value=40)
_NUMBER_TEXT = st.one_of(
    st.integers(min_value=-5, max_value=1000).map(str),
    st.floats(min_value=-2.0, max_value=1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e3", "2.5", "x", "", "1+2j", "0",
                     "-200", "-800", "2+1e308j"]),
)


def _descriptors():
    field = st.one_of(_SMALL_INTS, st.floats(allow_nan=True, allow_infinity=True),
                      st.text(max_size=4), st.none(), st.booleans(),
                      st.lists(_SMALL_INTS, max_size=3))
    leaf = st.fixed_dictionaries(
        {"construction": st.sampled_from([
            "one", "delta", "moebius", "liouville", "character", "kronecker",
            "archimedean-twist", "random", "random-pair", "tabulated", "mystery"])},
        optional={
            "q": _SMALL_INTS, "index": _SMALL_INTS, "D": _SMALL_INTS,
            "t": field, "seed": _SMALL_INTS, "limit": st.integers(-2, 1000),
            "kind": st.sampled_from(["completely-multiplicative",
                                     "general-multiplicative", "tabulated", "x"]),
            "ndiff": _SMALL_INTS, "role": st.sampled_from(["f", "g", "h"]),
            "max_exponent": _SMALL_INTS,
            "values": st.lists(st.lists(field, max_size=4), max_size=3),
        },
    )

    def wrap(inner):
        return st.one_of(
            st.fixed_dictionaries({"construction": st.just("squarefree-restrict")},
                                  optional={"base": inner}),
            st.fixed_dictionaries({"construction": st.just("sparse-dyadic")},
                                  optional={"base": inner,
                                            "exponents": st.lists(_SMALL_INTS, max_size=3)}),
            st.fixed_dictionaries({"construction": st.just("optimality-twist"),
                                   "diagnostics_cutoff": st.integers(-2, 1000)},
                                  optional={"base": inner, "beta": field}),
            st.fixed_dictionaries({"construction": st.just("degree-d")},
                                  optional={"constituents": st.lists(inner, max_size=3)}),
        )

    return st.recursive(leaf, wrap, max_leaves=4)


_SPEC_TEXT = st.one_of(
    st.sampled_from(["one", "delta", "moebius", "liouville", "char:4:1", "char:7:3",
                     "char:4:9", "kron:-3", "kron:5", "kron:6", "twist:0.5", "twist:x",
                     "random:3:100:gm", "random:3:100:zz", "char:5"]),
    _descriptors().map(json.dumps),
    st.text(max_size=12).filter(lambda s: not s.strip().startswith("@")
                                and not s.strip().endswith(".json")),
)

_FLAG_VALUES = {
    "--N": st.integers(min_value=-5, max_value=1000).map(str) | _NUMBER_TEXT,
    "--spec": _SPEC_TEXT, "--spec2": _SPEC_TEXT, "--constituents": _SPEC_TEXT,
    "--beta": _NUMBER_TEXT, "--sigma": _NUMBER_TEXT, "--Y": _NUMBER_TEXT,
    "--alpha": _NUMBER_TEXT, "--x": _NUMBER_TEXT, "--t": _NUMBER_TEXT,
    "--s": _NUMBER_TEXT,
    "--k": _SMALL_INTS.map(str) | _NUMBER_TEXT,
    "--q": _SMALL_INTS.map(str), "--index": _SMALL_INTS.map(str),
    "--D": _SMALL_INTS.map(str), "--seed": _SMALL_INTS.map(str),
    "--threads": st.sampled_from(["-1", "0", "1", "2", "x"]),
    "--p": st.sampled_from(["2", "3", "4", "-7", "97", "3825123056546413051", "y"]),
    "--primes": st.sampled_from(["2,3", "2,y", "4", "", "3215031751", "2,3,5"]),
    "--checkpoints": st.sampled_from(["10,100", "1:1e3", "5,5", "nan", "100,10",
                                      "1e3:1e6", "x", "1:2", "0,1"]),
    "--intervals": st.sampled_from(["2,3", "2,x", "9", ""]),
    "--kind": st.sampled_from(["classic", "beta", "strong", "x"]),
    "--mode": st.sampled_from(["exact", "nearest", "x"]),
    "--power": st.sampled_from(["L1", "L2", "L3"]),
}

_COMMANDS = {
    "sieve": ["--N"],
    "eval": ["--spec", "--N"],
    "sums": ["--spec", "--N", "--checkpoints", "--threads"],
    "convolve": ["--spec", "--spec2", "--N"],
    "quotient": ["--spec", "--spec2", "--primes", "--k"],
    "inverse": ["--spec", "--primes", "--k"],
    "distance": ["--kind", "--spec", "--spec2", "--beta", "--k", "--N",
                 "--checkpoints", "--threads"],
    "hseries": ["--power", "--spec", "--spec2", "--sigma", "--Y", "--N", "--k"],
    "degree": ["--constituents", "--p", "--k"],
    "construct": ["--q", "--index", "--t", "--D", "--intervals",
                  "--constituents", "--spec", "--beta", "--seed", "--N"],
    "xi": ["--x", "--spec", "--spec2", "--N", "--alpha", "--checkpoints", "--mode"],
    "lseries": ["--s", "--spec", "--spec2", "--N"],
}

_CONSTRUCT_NAMES = ["one", "moebius", "character", "kronecker", "archimedean-twist",
                    "sparse-dyadic", "optimality-twist", "squarefree-restrict",
                    "random", "degree-d", "mystery"]


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_COMMANDS) + ["growth-fit", "verify", "nope"]))
    argv = [cmd]
    if cmd == "construct":  # the twist's diagnostics would default to 1e7 primes
        argv += [draw(st.sampled_from(_CONSTRUCT_NAMES)),
                 f"--cutoff={draw(st.integers(min_value=1, max_value=1000))}"]
    elif cmd == "growth-fit":
        argv.append("no-such-dir/sums.csv")
    elif cmd == "verify":
        argv.append(draw(st.sampled_from(["thm0", "nope", ""])))
    flags = _COMMANDS.get(cmd, [])
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)) if flags else []:
        argv.append(f"{flag}={draw(_FLAG_VALUES[flag])}")
    # the dense commands run at N <= 1e3: lseries would default to 1e5
    if "--N" in flags and not any(a.startswith("--N=") for a in argv):
        argv.append(f"--N={draw(st.integers(min_value=2, max_value=1000))}")
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--N", "-q"])))
    return argv


# the subcommands that print JSON; xi does too, given --x
_JSON_COMMANDS = ("sieve", "quotient", "inverse", "distance", "hseries", "degree",
                  "construct", "growth-fit", "lseries")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@given(_argvs())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text + out.getvalue(), argv
    if code != 0:
        assert sum("error:" in line for line in text.splitlines()) == 1, (argv, text)
    elif argv[0] in _JSON_COMMANDS or any(a.startswith("--x=") for a in argv):
        # every JSON report is strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_reject_constant)
