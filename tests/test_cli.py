import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dispgibbs import eval_I, eval_I_grid, normalize, overshoot, solve, tent
from dispgibbs import cli
from dispgibbs.cli import GIBBS_COLUMNS, main

HEAT = normalize({2: -1j})


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_eval_csv():
    r = run("eval", "--omega", "2:0-1i", "--m", "0", "--t", "1",
            "--y-grid", "-2:2:5")
    assert r.exit_code == 0, r.output
    lines = r.output.strip().split("\n")
    assert lines[0] == "y,re,im"
    assert len(lines) == 6
    for line, y in zip(lines[1:], np.linspace(-2, 2, 5)):
        fy, fre, fim = (float(s) for s in line.split(","))
        want = eval_I(HEAT, 0, float(y), 1.0)
        assert fy == y and fre == want.real and fim == want.imag


def test_eval_json_and_output_file(tmp_path):
    args = ("eval", "--omega", "3:1,2:-0.5i", "--m", "1", "--t", "0.3",
            "--y-grid", "0:1:4", "--format", "json")
    r = run(*args)
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert [set(row) for row in rows] == [{"y", "re", "im"}] * 4
    out = tmp_path / "vals.json"
    r2 = run(*args, "--output", str(out))
    assert r2.exit_code == 0 and r2.output == ""
    assert out.read_text() == r.output
    for bad in (tmp_path, tmp_path / "missing" / "vals.json"):
        r3 = run(*args, "--output", str(bad))
        assert r3.exit_code == 2 and "cannot write --output" in r3.stderr


def test_eval_validation_failures():
    assert run("eval", "--omega", "2:0-1i", "--t", "1",
               "--y-grid", "1:2").exit_code == 2
    assert run("eval", "--omega", "2:0-1i", "--t", "1",
               "--y-grid", "2:1:5").exit_code == 2
    assert run("eval", "--omega", "2:zzz", "--t", "1",
               "--y-grid", "0:1:3").exit_code == 2
    assert run("eval", "--omega", "2:1i", "--t", "1",
               "--y-grid", "0:1:3").exit_code == 2  # ill-posed
    for omega in ("3:1,0:1e400", "3:1,2:nan"):   # were nan rows, and a LinAlgError
        r = run("eval", "--omega", omega, "--t", "1", "--y-grid", "-1:1:3")
        assert r.exit_code == 2 and "is not finite" in r.stderr
    # a subnormal damping term is valid input (was "Array must not contain
    # infs or NaNs"): the values of k^3, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run("eval", "--omega", "3:1,2:-1e-309i", "--t", "1", "--y-grid", "-1:1:3")
    assert r.exit_code == 0, r.output
    assert r.output == run("eval", "--omega", "3:1", "--t", "1", "--y-grid", "-1:1:3").output
    # past the largest pole order the package uses, values were silently
    # wrong (about 6e83 here, exit 0)
    r = run("eval", "--omega", "3:1", "--m", "200", "--t", "1", "--y-grid", "-1:1:3")
    assert r.exit_code == 2 and "m must be at most 9" in r.stderr


@pytest.mark.parametrize("command, grid", [
    ("eval", ("--omega", "3:1", "--t", "1", "--y-grid")),
    ("kernel", ("--omega", "3:1", "--t", "1", "--x-grid")),
    ("solve", ("--omega", "3:1", "--ic", "box", "--t", "1", "--x-grid")),
])
def test_grid_past_the_cap_is_a_usage_error(monkeypatch, command, grid):
    # 1e7 points asked for about 10 GB a rule, and 1e11 for 800 GB in
    # linspace alone: the grid is refused before any array is made
    def linspace(*args, **kwargs):
        raise AssertionError("a grid past the cap was allocated")

    monkeypatch.setattr(np, "linspace", linspace)
    r = run(command, *grid, f"-1:1:{cli.MAX_GRID_POINTS + 1}")
    assert r.exit_code == 2
    assert f"at most {cli.MAX_GRID_POINTS} points" in r.stderr


@pytest.mark.parametrize("grid, message", [
    ("0:x:5", "numeric fields"),
    ("0:1:2.5", "numeric fields"),
    ("0:1:1", "at least 2 points"),
])
def test_grid_with_a_bad_field_or_under_2_points_is_a_usage_error(grid, message):
    r = run("eval", "--omega", "3:1", "--t", "1", "--y-grid", grid)
    assert r.exit_code == 2 and message in r.stderr


def test_solve_with_a_non_numeric_time_is_a_usage_error():
    r = run("solve", "--omega", "3:1", "--ic", "box", "--t", "0.1,x", "--x-grid", "-1:1:3")
    assert r.exit_code == 2 and "bad --t list '0.1,x'" in r.stderr


def test_grid_at_the_cap_is_parsed():
    assert len(cli._parse_grid(f"-1:1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS


def test_descent_at_y_zero_exits_3():
    r = run("eval", "--omega", "3:1", "--t", "1", "--y-grid", "0:1:2",
            "--method", "descent")
    assert r.exit_code == 3
    assert "descent evaluation needs y != 0" in r.stderr
    assert "failing query" in r.stderr and "--y-grid 0:1:2" in r.stderr


def test_kernel_values():
    r = run("kernel", "--omega", "2:0-1i", "--t", "1", "--x-grid", "0:1:2")
    assert r.exit_code == 0
    lines = r.output.strip().split("\n")
    assert lines[0] == "x,re,im"
    x0 = [float(s) for s in lines[1].split(",")]
    assert x0[1] == eval_I_grid(HEAT, -1, [0.0, 1.0], 1.0, method="auto")[0].real
    assert abs(x0[1] - 1 / (2 * math.sqrt(math.pi))) < 1e-13


def test_solve_matches_library(tmp_path):
    r = run("solve", "--omega", "2:0-1i", "--ic", "box",
            "--t", "0.01,0.25", "--x-grid", "-2:2:5")
    assert r.exit_code == 0
    lines = r.output.strip().split("\n")
    assert lines[0] == "t,x,re,im"
    assert len(lines) == 11
    from dispgibbs import box
    xs = np.linspace(-2, 2, 5)
    wants = {t: solve(box(), HEAT, xs, t) for t in (0.01, 0.25)}
    for i, line in enumerate(lines[1:]):
        t, x, re, im = (float(s) for s in line.split(","))
        want = wants[t][i % 5]
        assert x == xs[i % 5] and re == want.real and im == want.imag


def test_solve_ic_file_matches_builtin(tmp_path):
    payload = {"breakpoints": [-1, 0, 1], "pieces": [[1, 1], [1, -1]]}
    path = tmp_path / "tent.json"
    path.write_text(json.dumps(payload))
    args = ("solve", "--omega", "3:1", "--t", "0.04", "--x-grid", "-2:2:9")
    a = run(*args, "--ic", str(path))
    b = run(*args, "--ic", "tent")
    assert a.exit_code == 0 and a.output == b.output


def test_solve_malformed_ic_file_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"breakpoints": [0, 1], ')
    r = run("solve", "--omega", "2:1", "--ic", str(path), "--t", "0.1",
            "--x-grid", "0:1:3")
    assert r.exit_code == 2
    assert "bad IC file" in r.stderr


def test_solve_ic_validation():
    args = ("solve", "--omega", "2:1", "--t", "0.1", "--x-grid", "0:1:3")
    assert run(*args, "--ic", "pyramid").exit_code == 2
    assert run(*args, "--ic", "smoothed-box:-0.5").exit_code == 2
    r = run(*args, "--ic", ".")      # a directory
    assert r.exit_code == 2 and "bad IC file" in r.stderr
    r = run("solve", "--omega", "3:1,0:nan", "--ic", "box", "--t", "0.1",
            "--x-grid", "-1:1:3")       # printed nan rows
    assert r.exit_code == 2 and "degree 0 is not finite" in r.stderr
    assert run("solve", "--omega", "2:1", "--ic", "box", "--t", "-1",
               "--x-grid", "0:1:3").exit_code == 2
    r = run(*args, "--ic", "smoothed-box:0.1")
    assert r.exit_code == 0


@pytest.mark.parametrize("text", [
    '{"breakpoints": [-1, 1], "pieces": [[Infinity]]}',
    '{"breakpoints": [-1, 0, 1], "pieces": [[NaN], [1.0]]}',
])
def test_solve_non_finite_ic_file_is_a_usage_error(tmp_path, text):
    # json reads NaN and Infinity; the jumps they make were dropped silently
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    r = run("solve", "--omega", "2:-1i", "--ic", str(path), "--t", "0.1",
            "--x-grid", "-2:2:5")
    assert r.exit_code == 2
    assert "must be finite" in r.stderr


def test_gibbs_table_csv_roundtrip():
    r = run("gibbs-table", "--n", "2")
    assert r.exit_code == 0
    lines = r.output.strip().split("\n")
    assert lines[0] == ",".join(GIBBS_COLUMNS)
    row = [float(s) for s in lines[1].split(",")]
    rep = overshoot(2)
    assert row[0] == 2 and row[1] == 1.0
    assert row[2] == rep.sup_re and row[3] == rep.inf_re
    assert row[8] == rep.arg_sup_re


def test_gibbs_table_other_formats():
    r = run("gibbs-table", "--n", "2", "--format", "markdown")
    assert r.exit_code == 0
    assert r.output.startswith("| n | sigma | sup_re |")
    assert r.output.count("\n") == 3
    j = run("gibbs-table", "--n", "2", "--format", "json")
    rows = json.loads(j.output)
    assert len(rows) == 1 and set(rows[0]) == set(GIBBS_COLUMNS)
    assert run("gibbs-table", "--n", "1").exit_code == 2
    assert run("gibbs-table", "--n", "2;3").exit_code == 2
    assert run("gibbs-table", "--n", "3", "--sigma", "nan").exit_code == 2
    r = run("gibbs-table", "--n", "100000")
    assert r.exit_code == 2 and "beyond supported maximum" in r.stderr


def test_contour_dump_connected():
    r = run("contour-dump", "--omega", "2:0-1i", "--y", "1", "--t", "1")
    assert r.exit_code == 0
    segs = json.loads(r.output)
    assert segs and all(
        set(s) == {"re0", "im0", "re1", "im1", "order"} for s in segs)
    for a, b in zip(segs, segs[1:]):
        assert math.hypot(a["re1"] - b["re0"], a["im1"] - b["im0"]) < 1e-9


# contour-dump --kind detour: -40 -> -0.5, eight chords of the radius-0.5
# semicircle over the pole, 0.5 -> 40, as (re0, im0, re1, im1, order)
DETOUR = [
    (-40.0, 0.0, -0.5, 0.0, 64),
    (-0.5, 6.123233995736766e-17, -0.46193976625564337, 0.19134171618254495, 32),
    (-0.46193976625564337, 0.19134171618254495, -0.35355339059327373, 0.3535533905932738, 32),
    (-0.35355339059327373, 0.3535533905932738, -0.19134171618254486, 0.46193976625564337, 32),
    (-0.19134171618254486, 0.46193976625564337, 3.061616997868383e-17, 0.5, 32),
    (3.061616997868383e-17, 0.5, 0.19134171618254492, 0.46193976625564337, 32),
    (0.19134171618254492, 0.46193976625564337, 0.3535533905932738, 0.35355339059327373, 32),
    (0.3535533905932738, 0.35355339059327373, 0.46193976625564337, 0.1913417161825449, 32),
    (0.46193976625564337, 0.1913417161825449, 0.5, 0.0, 32),
    (0.5, 0.0, 40.0, 0.0, 64),
]


def test_contour_dump_kinds():
    detour = run("contour-dump", "--omega", "2:1", "--y", "0", "--t", "1",
                 "--kind", "detour")
    assert detour.exit_code == 0
    keys = ("re0", "im0", "re1", "im1", "order")
    assert detour.output == json.dumps([dict(zip(keys, row)) for row in DETOUR],
                                       indent=2) + "\n"
    descent = run("contour-dump", "--omega", "2:1", "--y", "8", "--t", "1",
                  "--kind", "descent")
    assert descent.exit_code == 0
    assert run("contour-dump", "--omega", "2:1", "--y", "1",
               "--t", "0").exit_code == 2


def test_contour_dump_numerical_exit():
    r = run("contour-dump", "--omega", "2:1", "--y", "0.1", "--t", "1",
            "--kind", "descent")
    assert r.exit_code == 3
    assert "numerical failure" in r.stderr
    assert "failing query" in r.stderr
    assert "--y 0.1" in r.stderr


@pytest.mark.parametrize("command, point", [
    ("eval", ("--y-grid", "-40:-39:2")),
    ("kernel", ("--x-grid", "-40:-39:2")),
    ("solve", ("--ic", "box", "--x-grid", "-40:-39:2")),
    ("contour-dump", ("--y", "-40")),
])
def test_integrand_overflow_exits_3(command, point):
    # the direct integrand of this symbol overflows far out on the real
    # axis: a numerical failure (NonFinite), not a usage error
    r = run(command, "--omega", "4:-1i,2:80i", "--t", "1", *point)
    assert r.exit_code == 3
    assert "numerical failure: integrand not finite" in r.stderr
    assert f"failing query: {command} --omega 4:-1i,2:80i" in r.stderr


def test_verify_limits():
    r = run("verify", "limits")
    assert r.exit_code == 0
    assert "ok   [limits]" in r.output.replace("ok  [", "ok   [")
    assert "FAIL" not in r.output


def test_verify_all_suites():
    # oracles 3, ode 3 (two of them criterion 05's ladder and seeded
    # residuals), limits 7 (the far ends criterion 05 also checks), gibbs 6
    # (criterion 04's checks and the constant of criterion 01): one ok line
    # per check
    r = run("verify")
    assert r.exit_code == 0, r.output
    lines = r.output.splitlines()
    assert len(lines) == 19 and all(line.startswith("ok   [") for line in lines)
    suites = {line.split("]")[0][len("ok   ["):] for line in lines}
    assert suites == {"gibbs", "limits", "ode", "oracles"}


def test_verify_exits_1_on_a_failing_line(monkeypatch):
    monkeypatch.setitem(cli.SUITES, "limits", lambda: (False, [("forced", 1.0, 0.5)]))
    r = run("verify", "limits")
    assert r.exit_code == 1
    assert r.output == "FAIL [limits] forced: err 1.000e+00 (tol 0.5)\n"


def test_thread_count_does_not_change_bytes(monkeypatch):
    args = ("solve", "--omega", "2:1", "--ic", "box", "--t", "0.05,0.2,0.6",
            "--x-grid", "-3:3:25")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    one = run(*args)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    two = run(*args)
    assert one.exit_code == 0 and two.exit_code == 0
    assert one.output == two.output


def _later_time_first(monkeypatch, first):
    """Hold the call for time `first` until a later time's call has
    returned, on two workers whatever the machine, so that the later time
    finishes (or fails) sooner.  Returns the list that records, for each
    hold, whether a later time released it."""
    released, later_done, real = [], threading.Event(), cli.solve

    def solve(data, om, xs, t):
        if t != first:
            try:
                return real(data, om, xs, t)
            finally:
                later_done.set()
        released.append(later_done.wait(timeout=10))
        return real(data, om, xs, t)

    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return released


def test_solve_prints_the_times_in_order(monkeypatch):
    # the bytes are those of one call per time, in --t order, although the
    # second time finishes first
    grid = ("--omega", "2:1", "--ic", "box", "--x-grid", "-3:3:25")
    first = run("solve", *grid, "--t", "0.05")
    second = run("solve", *grid, "--t", "0.2")
    released = _later_time_first(monkeypatch, 0.05)
    both = run("solve", *grid, "--t", "0.05,0.2")
    assert released == [True]
    assert both.exit_code == first.exit_code == second.exit_code == 0
    rows = second.output.split("\n", 1)[1]
    assert both.output == first.output + rows


@pytest.mark.parametrize("times, code, failing", [
    ("1,0", 3, "--t 1.0 "),     # the direct-contour cap
    ("0,1", 2, None),           # I_m(0, 0) is undefined
    ("0.05,0.2", 3, "--t 0.05 "),
])
def test_solve_first_failing_time_in_the_list_decides(monkeypatch, times, code, failing):
    # the second time fails first; the first time in the list still decides
    released = _later_time_first(monkeypatch, float(times.split(",")[0]))
    threads = threading.active_count()
    r = run("solve", "--omega", "9:1,7:27.1", "--ic", "box", "--t", times,
            "--x-grid", "-1:1:3")
    assert released == [True]
    assert threading.active_count() == threads    # no worker outlives the command
    assert r.exit_code == code
    assert r.stdout == ""
    if failing is None:
        assert "I_m(0, 0) is undefined" in r.stderr
        assert "failing query" not in r.stderr
    else:
        assert f"failing query: solve --omega 9:1,7:27.1 --ic box {failing}" in r.stderr
        assert r.stderr.count("failing query") == 1


def test_a_failing_time_starts_no_later_time(monkeypatch):
    # on two workers the first two times start at once; the first fails,
    # so the command waits for the second alone and never starts the third
    started, real = [], cli.solve

    def solve(data, om, xs, t):
        started.append(t)
        return real(data, om, xs, t)

    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    r = run("solve", "--omega", "9:1,7:27.1", "--ic", "box", "--t", "0,0.05,0.2",
            "--x-grid", "-1:1:3")
    assert r.exit_code == 2
    assert sorted(started) == [0.0, 0.05]
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_workers_follow_the_affinity_mask_not_the_host(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._usable_cpus() == 1


def test_a_solve_does_not_import_concurrent_futures():
    # concurrent.futures takes about 6 ms to import, most of it logging,
    # which every one-time solve would pay for no gain; scipy takes about
    # 0.2 s, and only verify's reference values need it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nfrom dispgibbs.cli import main\n"
            "print(any(k.split('.')[0] == 'scipy' for k in sys.modules), file=sys.stderr)\n"
            "main(['solve', '--omega', '2:1', '--ic', 'box', '--t', '0.05,0.2',"
            " '--x-grid', '-1:1:3'], standalone_mode=False)\n"
            "print('concurrent.futures' in sys.modules, file=sys.stderr)\n"
            "print(any(k.split('.')[0] == 'scipy' for k in sys.modules), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stderr.split() == ["False", "False", "False"]


def test_contour_dump_prints_the_contours_eval_I_integrates():
    # |s| = 34.5 for k^5 is past the descent threshold, but the descent
    # quadrature does not converge there and eval_I falls back to direct
    query = ("contour-dump", "--omega", "5:1", "--y", "34.5", "--t", "1")
    auto = run(*query)
    direct = run(*query, "--kind", "direct")
    assert auto.exit_code == 0 and direct.exit_code == 0
    assert auto.output == direct.output
    assert eval_I({5: 1}, 0, 34.5, 1.0) == eval_I({5: 1}, 0, 34.5, 1.0,
                                                 method="direct")
    # below the threshold, --kind descent follows eval_I(method="descent")
    descent = run("contour-dump", "--omega", "2:1", "--y", "1", "--t", "1",
                  "--kind", "descent")
    assert descent.exit_code == 0
    assert len(json.loads(descent.output)) == 3      # one saddle, three segments
    eval_I({2: 1}, 0, 1.0, 1.0, method="descent")


@pytest.mark.parametrize("command, args", [
    ("eval", ("--omega", "3:1", "--t", "1", "--y-grid", "1e300:2e300:2")),
    ("kernel", ("--omega", "3:1", "--t", "1", "--x-grid", "1e300:2e300:2")),
    ("solve", ("--omega", "3:1", "--ic", "box", "--t", "1", "--x-grid", "1e300:2e300:2")),
    ("eval", ("--omega", "2:-1i", "--t", "1", "--y-grid", "-1e160:-1e159:2")),
])
def test_phase_past_the_float_range_exits_3(command, args):
    # the scaled phase overflows: was numpy's LinAlgError, reported as
    # invalid input (exit 2); the direct route cannot cover these points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run(command, *args)
    assert r.exit_code == 3
    assert "direct contour needs" in r.stderr
    assert f"failing query: {command} --omega {args[1]}" in r.stderr


def test_eval_direct_contour_cap_exits_3():
    # a dominant real k^7 term at degree 9: about 4e7 direct segments
    r = run("eval", "--omega", "9:1,7:27.1", "--t", "1", "--y-grid", "0.5:1:2")
    assert r.exit_code == 3
    assert "direct contour needs" in r.output
