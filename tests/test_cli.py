import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qprob import becsim, cli
from qprob.linalg import MAX_EIGEN_DIM


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_diagonal_state(self, capsys):
        code, out, _ = run(["measure", "--state", "diag:0.3,0.7"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["probabilities"] == [0.3, 0.7]
        assert report["result"]["checks"]["sums_to_one"]

    def test_bad_state_spec(self, capsys):
        code, _, err = run(["measure", "--state", "bogus:1,2"], capsys)
        assert code == 2
        assert "state spec" in err

    def test_invalid_density(self, capsys):
        code, _, err = run(["measure", "--state", "diag:0.3,0.3"], capsys)
        assert code == 2
        assert "trace" in err

    def test_pure_state_with_a_subnormal_squared_norm(self, capsys):
        code, out, err = run(["measure", "--state", "pure:1e-160,1e-160"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-15)


class TestProspect:
    def test_bell_like_interference(self, capsys):
        code, out, _ = run(
            ["prospect", "--preset", "bell-like", "--weights", "0.7071,0.7071"], capsys
        )
        assert code == 0
        report = json.loads(out)
        q = report["result"]["raw"]["q"]
        assert q[0] == pytest.approx(0.25, abs=1e-6)
        assert q[1] == pytest.approx(-0.25, abs=1e-6)
        assert all(report["result"]["checks"].values())

    def test_max_entangled_zero_interference(self, capsys):
        code, out, _ = run(
            ["prospect", "--preset", "max-entangled", "--m", "2", "--weights", "0.7071,0.7071"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["raw"]["q"] == [0.0, 0.0]

    def test_product_preset_zero_normalized_interference(self, capsys):
        code, out, _ = run(["prospect", "--preset", "product", "--m", "3", "--seed", "9"], capsys)
        assert code == 0
        report = json.loads(out)
        assert max(abs(v) for v in report["result"]["normalized"]["q"]) < 1e-12

    def test_strict_mode_rejects_unnormalized(self, capsys):
        code, _, err = run(
            ["prospect", "--preset", "bell-like", "--weights", "0.7071,0.7071", "--strict"],
            capsys,
        )
        assert code == 2
        assert err == "error: squared weights sum to 0.9999808199999999, not 1 within 1e-10\n"

    def test_state_file_round_trip(self, capsys, tmp_path):
        matrix = np.zeros((4, 4))
        matrix[0, 0] = 1.0
        state_path = tmp_path / "state.json"
        state_path.write_text(
            json.dumps({"matrix_re": matrix.tolist(), "dim_a": 2, "dim_b": 2})
        )
        code, out, _ = run(
            ["prospect", "--preset", "file", "--state-file", str(state_path), "--weights", "1,0"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["raw"]["p"] == [1.0, 0.0]

    def test_complex_weights_parse(self, capsys):
        code, out, _ = run(
            ["prospect", "--preset", "bell-like", "--weights", "0.5+0.5j,0.5-0.5j"], capsys
        )
        assert code == 0

    @pytest.mark.parametrize("scale", ["1e-160", "1e-200", "1e200"])
    def test_weights_outside_the_normal_range_normalize(self, capsys, scale):
        # their squared norm is subnormal, underflows or overflows
        code, out, err = run(["prospect", "--weights", f"{scale},{scale}"], capsys)
        assert code == 0 and err == ""
        code, reference, _ = run(["prospect", "--weights", "1,1"], capsys)
        got, expected = json.loads(out)["result"]["raw"], json.loads(reference)["result"]["raw"]
        for family in ("p", "f", "q"):
            assert np.max(np.abs(np.subtract(got[family], expected[family]))) <= 1e-15

    @pytest.mark.parametrize(
        "weights, message",
        [
            pytest.param("1e-160,1e-160", "squared weights sum to 2e-320, not 1 within 1e-10", id="1e-160,1e-160-2e-320"),
            pytest.param("1e200,1e200", "squared weights sum to inf, not 1 within 1e-10", id="1e200,1e200-inf"),
            pytest.param("1e200,inf", "vector has non-finite entries", id="1e200,inf-inf"),
        ],
    )
    def test_strict_sum_outside_the_normal_range(self, capsys, weights, message):
        code, _, err = run(["prospect", "--weights", weights, "--strict"], capsys)
        assert code == 2
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prospect", "--weights", "0,0"], "cannot normalize the zero amplitude vector"),
        (["prospect", "--weights", "1,1,1"], "weight length 3 does not match second factor 2"),
        (["quarter-law", "--row", "0,1,1,1,0.5"], "shape alpha must be positive and finite, got 0.0"),
        (["quarter-law", "--row", "1,1,1,1,1.5"], "lambda_plus must lie in [0, 1], got 1.5"),
    ],
)
def test_library_value_errors_exit_2_with_their_message(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


class TestQuarterLaw:
    def test_symmetric_grid(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            ["quarter-law", "--symmetric", "0.5,1,2,5", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,mu,nu,lambdaPlus,qPlus,qMinus,residual"
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5]) == 0.25
            assert float(fields[6]) == -0.25
            assert float(fields[7]) == 0.0

    def test_explicit_row(self, capsys):
        code, out, _ = run(
            ["quarter-law", "--symmetric", "", "--row", "2,1,4,5,0.4"], capsys
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[5]) == pytest.approx(0.26667, abs=5e-6)
        assert float(fields[7]) == pytest.approx(0.0, abs=1e-12)

    def test_shapes_near_the_float_limit_keep_the_quarter_law(self, capsys):
        code, out, _ = run(
            ["quarter-law", "--symmetric", "1e308", "--row", "1e308,1e308,1,1,0.5"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[5:] for row in rows] == [["0.25", "-0.25", "0"]] * 2

    def test_subnormal_shapes_keep_the_quarter_law(self, capsys):
        code, out, _ = run(["quarter-law", "--symmetric", "5e-324"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[5:] == ["0.25", "-0.25", "0"]

    def test_nonpositive_shape_fails_validation(self, capsys):
        code, _, err = run(["quarter-law", "--row", "0,1,1,1,0.5"], capsys)
        assert code == 2
        assert "positive" in err


class TestBecSim:
    def test_zero_noise_csv(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run(
            [
                "bec-sim", "--b", "0.25", "--sigma", "0", "--tmax", "1",
                "--paths", "10", "--stride", "100", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,p1,p2,f1,f2,q1,q2,stderr1"
        assert len(lines) == 1 + 1000 // 100 + 1
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            assert fields[5] == 0.0 and fields[6] == 0.0

    def test_report_regime_labels(self, capsys, tmp_path):
        for b, regime in (("0.25", "Rabi"), ("0.5", "Josephson")):
            out_path = tmp_path / f"run{b}.csv"
            report_path = tmp_path / f"run{b}.json"
            code, _, _ = run(
                [
                    "bec-sim", "--b", b, "--sigma", "0.05", "--tmax", "1", "--paths", "10",
                    "--stride", "200", "--out", str(out_path), "--report", str(report_path),
                ],
                capsys,
            )
            assert code == 0
            report = json.loads(report_path.read_text())
            assert report["result"]["regime"] == regime
            assert report["result"]["critical_amplitude"] == pytest.approx(0.28206, abs=5e-4)

    def test_report_round_trip_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        report_path = tmp_path / "run.json"
        argv = [
            "bec-sim", "--b", "0.3", "--sigma", "0.1", "--tmax", "0.5", "--paths", "20",
            "--seed", "7", "--stride", "50", "--out", str(out_path), "--report", str(report_path),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        first_csv = out_path.read_bytes()
        first_report = report_path.read_bytes()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == first_csv
        assert report_path.read_bytes() == first_report

    def test_csv_floats_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, _, _ = run(
            [
                "bec-sim", "--b", "0.25", "--sigma", "0.1", "--tmax", "0.5",
                "--paths", "10", "--stride", "100", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
        for row in rows:
            for field in row:
                value = float(field)  # parseable
                assert f"{value:.17g}" == field  # and round-trip exact

    def test_plot_emission(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, _, _ = run(
            [
                "bec-sim", "--b", "0.5", "--sigma", "0.1", "--tmax", "0.5", "--paths", "10",
                "--stride", "50", "--out", str(out_path), "--plot",
            ],
            capsys,
        )
        assert code == 0
        svg = (tmp_path / "run.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg and "Josephson" in svg

    def test_plot_requires_out(self, capsys):
        code, _, err = run(["bec-sim", "--tmax", "0.5", "--paths", "4", "--plot"], capsys)
        assert code == 2
        assert "--out" in err

    def test_plot_rejects_stride_leaving_one_row(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the ensemble ran before the stride was checked")

        monkeypatch.setattr(becsim, "ensemble_interference", unreachable)
        out_path = tmp_path / "o.csv"
        code, _, err = run(
            ["bec-sim", "--tmax", "0.5", "--paths", "4", "--stride", "1000", "--out", str(out_path), "--plot"],
            capsys,
        )
        assert code == 2
        assert "--stride" in err
        assert not out_path.exists()

    def test_invalid_params_fail_validation(self, capsys):
        code, _, err = run(["bec-sim", "--b", "-1", "--tmax", "1", "--paths", "4"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--b", "nan"), ("--sigma", "inf"), ("--x0", "nan")])
    def test_non_finite_params_fail_validation(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "run.csv"
        code, out, err = run(
            ["bec-sim", flag, value, "--tmax", "1", "--paths", "4", "--out", str(out_path)], capsys
        )
        assert code == 2
        assert "must be finite" in err
        assert not out_path.exists()
        assert out == ""

    def test_report_refuses_non_finite_values(self, tmp_path):
        report_path = tmp_path / "run.json"
        with pytest.raises(FloatingPointError, match="non-finite"):
            cli._write_json_report(str(report_path), {"result": {"max_abs_q1": math.nan}})
        assert not report_path.exists()

    @pytest.mark.parametrize("sigma", ["0", "0.1"])
    def test_start_next_to_pole_completes(self, capsys, tmp_path, sigma):
        # start just below |s| = 1, pushed upward: no pole, so the run completes
        out_path = tmp_path / "run.csv"
        code, _, err = run(
            [
                "bec-sim", "--b", "1", "--sigma", sigma, "--s0", "0.9999999999",
                "--x0", str(-math.pi / 2), "--tmax", "1", "--paths", "4",
                "--stride", "50", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0, err
        table = np.array([[float(v) for v in line.split(",")]
                          for line in out_path.read_text().splitlines()[1:]])
        assert np.all(np.isfinite(table))
        assert np.all((table[:, 1] >= 0.0) & (table[:, 1] <= 1.0))

    def test_non_finite_state_exits_numerical(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, _, err = run(
            ["bec-sim", "--b", "1e300", "--dt", "1", "--tmax", "10", "--paths", "4",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 3
        assert err.startswith("numerical failure: ") and "non-finite" in err
        assert not out_path.exists()

    def test_report_names_the_kernel(self, capsys, tmp_path):
        report_path = tmp_path / "run.json"
        code, _, _ = run(
            ["bec-sim", "--tmax", "0.01", "--paths", "4", "--out", str(tmp_path / "run.csv"),
             "--report", str(report_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(report_path.read_text())["meta"]["kernel"] == becsim.KERNEL

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b": 0.5, "tmax": 0.5, "paths": 8, "sigma": 0.0, "stride": 100}))
        out_path = tmp_path / "run.csv"
        report_path = tmp_path / "run.json"
        code, _, _ = run(
            [
                "bec-sim", "--config", str(config), "--b", "0.25",
                "--out", str(out_path), "--report", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["b"] == 0.25  # flag wins
        assert report["config"]["paths"] == 8  # config wins over default

    @pytest.mark.parametrize("grid", [["--dt", "1", "--tmax", str(becsim.MAX_STEPS + 1)], ["--tmax", "1e9"]])
    def test_step_count_over_the_cap_fails_validation(self, capsys, grid):
        # the cap is checked before anything is allocated
        code, _, err = run(["bec-sim", *grid, "--paths", "2"], capsys)
        assert code == 2
        assert f"at most {becsim.MAX_STEPS}" in err

    def test_path_count_over_the_cap_fails_before_allocating(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the path cap must stop the run before the ensemble")

        monkeypatch.setattr(becsim, "ensemble_interference", unreachable)
        tracemalloc.start()
        try:
            code, _, err = run(["bec-sim", "--paths", str(10**15), "--tmax", "0.01"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"at most {becsim.MAX_PATHS}" in err
        assert peak < 1 << 20

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["bec-sim", "--config", str(config)], capsys)
        assert code == 2
        assert "unknown config keys" in err


#: Any float at all, with the awkward ones drawn often.
_ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, -0.0, 5e-324])
)


def _mostly(usual, rest=_ANY_FLOAT):
    """Draws from ``usual`` four times in five, else from ``rest``."""
    return st.one_of(usual, usual, usual, usual, rest)


@settings(max_examples=50, deadline=None)
@given(
    b=_mostly(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e300))),
    sigma=_mostly(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e300))),
    s0=_mostly(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    x0=_mostly(st.floats(-1e300, 1e300)),
    paths=st.integers(2, 8),
    tmax=_mostly(st.floats(0.002, 0.05), st.floats(0.0, 0.05)),
)
def test_bec_sim_fuzz_exits_cleanly(b, sigma, s0, x0, paths, tmax):
    # every input is rejected (2), fails numerically (3) or gives finite output (0)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "run.csv"
        report_path = Path(tmp) / "run.json"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([
                "bec-sim", f"--b={b!r}", f"--sigma={sigma!r}", f"--s0={s0!r}", f"--x0={x0!r}",
                f"--paths={paths}", f"--tmax={tmax!r}", "--stride=10",
                f"--out={csv_path}", f"--report={report_path}",
            ])
        event(f"exit {code}")
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert csv_path.exists() and report_path.exists()
        for path in (csv_path, report_path):
            if path.exists():
                assert "nan" not in path.read_text().lower()


#: Strings that mean something to some option, and short ones that mean
#: nothing.  None of them holds a slash, so a string used as a path names a
#: file in the example's own working directory.
_STRINGS = st.one_of(
    st.sampled_from([
        "", ".", "maxmix", "random", "diag:0.5,0.5", "diag:nan,1", "pure:1,1j", "pure:1e-320",
        "file:missing", "file:.", "nan", "inf", "-1", "0.5,1", "1,0", "1e-300,0", "1,1,1,1,0.5",
        "2,1,4,5,0.4", "1e300,1,1,1,0.5", "nan,1,1,1,0.5", "1,1,1,1,inf", "out.csv",
    ]),
    st.text(st.sampled_from("0123456789.,:-+ejnaif"), max_size=12),
)
#: Numbers of every JSON kind.  No float lies in (0, 1e-3), so a drawn time
#: step never asks bec-sim for millions of steps below its step cap.
_NUMBERS = st.one_of(
    st.integers(-3, 70),
    st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 2**64, 10**30, -(10**400)]),
)
_HUGE_INTS = st.sampled_from([2**64, 10**30, -(10**400)])
_RIGHT_TYPE = {
    int: st.one_of(st.integers(-3, 70), _HUGE_INTS),
    float: _NUMBERS,
    bool: st.booleans(),
    str: _STRINGS,
    list: st.lists(_STRINGS, max_size=3),
}
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), _NUMBERS, _STRINGS,
    st.lists(st.one_of(_NUMBERS, _STRINGS), max_size=2),
    st.dictionaries(st.sampled_from("ab"), _NUMBERS, max_size=1),
)
#: The verify groups that run in well under a second.
_CHEAP_GROUPS = ["events", "uncertain", "prospects", "quarterlaw"]


def _right_type(kind):
    return st.sampled_from(kind) if isinstance(kind, tuple) else _RIGHT_TYPE[kind]


def _refuse_constant(token):
    raise AssertionError(f"JSON output holds {token}")


def _assert_finite_output(text):
    """No NaN or infinity in an output.  JSON is parsed, since a report may
    echo an input string such as "nan"; other outputs carry no input text."""
    try:
        json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError:
        assert re.search(r"\b(nan|inf)\b", text, re.IGNORECASE) is None, text


def _run_clean(argv, allowed=(0, 2, 3)):
    """Run the CLI in a fresh working directory; check its exit code, that
    nothing printed a traceback, and that every output is finite."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refused a flag
                    code = exc.code
            event(f"exit {code}")
            assert code in allowed, (argv, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()
            _assert_finite_output(out.getvalue())
            for path in Path(tmp).iterdir():
                if path.is_file():
                    _assert_finite_output(path.read_text())
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_cleanly(command, data):
    # each value is drawn from its option's row in the table: mostly the right type
    options = cli._COMMANDS[command][2]
    chosen = data.draw(st.lists(st.sampled_from(options), unique_by=lambda row: row[0], max_size=4))
    config = {name: data.draw(_mostly(_right_type(kind), _ANY_JSON), label=name) for name, kind, _, _ in chosen}
    pinned = []
    if command == "bec-sim":
        pinned = ["--tmax", repr(data.draw(st.floats(0.01, 0.05))), "--paths", str(data.draw(st.integers(2, 8)))]
    elif command == "verify":
        pinned = ["--filter", data.draw(st.sampled_from(_CHEAP_GROUPS))]
    allowed = (0, 1, 2, 3) if command == "verify" and config.get("corrupt-state") is True else (0, 2, 3)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        _run_clean([command, "--config", str(config_path), *pinned], allowed)


def _flag_text(kind):
    """A flag value as text: mostly one of the option's type, else any string."""
    return _mostly(_RIGHT_TYPE[int].map(str) if kind is int else _right_type(kind), _STRINGS)


@pytest.mark.parametrize("command", ["measure", "prospect", "quarter-law", "verify"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_flag_fuzz_exits_cleanly(command, data):
    argv = [command]
    for name, kind, _, _ in cli._COMMANDS[command][2]:
        if command == "verify" and name == "filter":
            argv.append(f"--filter={data.draw(st.sampled_from(_CHEAP_GROUPS))}")
        elif kind is bool:
            if data.draw(st.booleans(), label=name):
                argv.append(f"--{name}")
        elif kind is list:
            argv += [f"--row={row}" for row in data.draw(st.lists(_flag_text(str), max_size=3), label=name)]
        elif data.draw(st.booleans()):
            argv.append(f"--{name}={data.draw(_flag_text(kind), label=name)}")
    _run_clean(argv, (0, 1, 2, 3) if "--corrupt-state" in argv else (0, 2, 3))


@pytest.mark.parametrize(
    "command,config,field",
    [
        (["bec-sim", "--tmax", "0.01"], {"seed": 1.5, "paths": 2}, "seed"),
        (["verify"], {"seed": 1.5}, "seed"),
        (["bec-sim", "--tmax", "0.01"], {"paths": 2.7}, "paths"),
        (["bec-sim", "--tmax", "0.01"], {"paths": True}, "paths"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"stride": 1.9}, "stride"),
        (["measure", "--state", "random"], {"dim": 2.0}, "dim"),
        (["prospect", "--preset", "product"], {"m": 2.5}, "m"),
        (["quarter-law"], {"rows": "1,1,1,1,0.5"}, "rows"),
        (["bec-sim", "--paths", "2"], {"b": True, "tmax": 0.01, "sigma": 0}, "b"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"sigma": "0.1"}, "sigma"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"s0": False}, "s0"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"x0": None}, "x0"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"dt": "1e-3"}, "dt"),
        (["bec-sim", "--paths", "2"], {"tmax": True}, "tmax"),
        (["bec-sim", "--tmax", "0.01", "--paths", "2"], {"plot": "false"}, "plot"),
        (["bec-sim", "--tmax", "0.01"], {"paths": None}, "paths"),
        (["prospect"], {"strict": 1}, "strict"),
        (["verify"], {"corrupt-state": "false"}, "corrupt-state"),
        (["measure"], {"out": 5}, "out"),
        (["measure"], {"out": True}, "out"),
        (["quarter-law"], {"report": 7}, "report"),
        (["prospect", "--preset", "file"], {"state-file": 3}, "state-file"),
        (["prospect"], {"weights": 5}, "weights"),
        (["measure"], {"state": 5}, "state"),
        (["quarter-law"], {"symmetric": 1}, "symmetric"),
        (["prospect"], {"preset": 5}, "preset"),
        (["verify"], {"filter": 5}, "filter"),
        (["quarter-law"], {"rows": [5]}, "rows"),
    ],
)
def test_config_value_of_wrong_type_fails_validation(capsys, tmp_path, command, config, field):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run([*command, "--config", str(config_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {field} must be ")
    assert "Traceback" not in err
    assert out == ""


def test_config_integers_are_numbers(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"b": 1, "sigma": 0, "dt": 0.01, "tmax": 1, "paths": 2, "plot": False}))
    code, out, err = run(["bec-sim", "--config", str(config_path)], capsys)
    assert code == 0, err
    assert out.startswith("t,")


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"dim_a": 1.5, "dim_b": 2}, "dim_a must be an integer"),
        ({"dim_a": 1, "dim_b": True}, "dim_b must be an integer"),
        ({"dim_b": 2}, "dim_a must be an integer"),
        ({"matrix_re": {"a": 1}, "dim_a": 1, "dim_b": 2}, "non-numeric matrix"),
    ],
)
def test_state_file_field_of_wrong_type_fails_validation(capsys, tmp_path, fields, message):
    # a 2 x 2 matrix, which a truncated dim_a = 1 would accept as a 1 x 2 composite
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"matrix_re": [[0.5, 0.0], [0.0, 0.5]], **fields}))
    code, out, err = run(["prospect", "--preset", "file", "--state-file", str(state_path)], capsys)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--state", "maxmix", "--dim", "1000000"],
        ["measure", "--state", "random", "--dim", "1000000"],
        ["prospect", "--preset", "max-entangled", "--m", "1000"],
        ["prospect", "--preset", "product", "--m", "1000000"],
    ],
)
def test_oversized_dimension_refused_before_allocating(capsys, argv):
    # each size would need terabytes; the cap is checked before any allocation
    code, out, err = run(argv, capsys)
    assert code == 2
    assert f"exceeds supported maximum {MAX_EIGEN_DIM}" in err
    assert out == ""


def test_config_integer_beyond_float_range_fails_validation(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"b": 10**400, "tmax": 0.01, "paths": 2}))
    code, out, err = run(["bec-sim", "--config", str(config_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "too large" in err
    assert out == ""


class TestVerify:
    def test_filter_runs_subset(self, capsys):
        code, out, _ = run(["verify", "--filter", "quarterlaw", "--seed", "3"], capsys)
        assert code == 0
        assert "quarterlaw/" in out
        assert "becsim/" not in out
        assert out.strip().endswith("checks passed")

    def test_corrupt_state_fails_normalization(self, capsys):
        code, out, err = run(
            ["verify", "--filter", "prospects", "--corrupt-state", "--seed", "3"], capsys
        )
        assert code == 1
        assert "FAIL prospects/probability-normalization" in out
        assert "probability-normalization" in err

    def test_env_seed_and_threads(self, capsys, monkeypatch, tmp_path):
        report_path = tmp_path / "verify.json"
        monkeypatch.setenv("QPROB_SEED", "123")
        monkeypatch.setenv("QPROB_THREADS", "1")
        code, out1, _ = run(["verify", "--filter", "events", "--out", str(report_path)], capsys)
        assert code == 0
        first = report_path.read_bytes()
        assert json.loads(first)["config"]["seed"] == 123
        monkeypatch.setenv("QPROB_THREADS", "3")
        code, out2, _ = run(["verify", "--filter", "events", "--out", str(report_path)], capsys)
        assert code == 0
        assert report_path.read_bytes() == first
        assert out1 == out2

    def test_runs_as_a_module(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "qprob", "verify", "--filter", "events"],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("checks passed")

    def test_unknown_filter(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--filter", "nonsense"])
        assert excinfo.value.code == 2
