import contextlib
import io
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rdsplit.cli import main


ODE_CFG = "kind = ode_convergence\node.dt = 1/10, 1/20, 1/40\node.t_end = 0.5\n"

SINGLE_CFG = """kind = single_run
species = u, v
grid.n0 = 8
reaction.alpha = 1, 0
reaction.beta = 0, 1
reaction.k_plus = 1
reaction.k_minus = 1
run.dt = 0.05
run.t_end = 0.1
species.u.diffusion = constant
species.u.D = 0.2
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_ode_convergence_success(tmp_path):
    cfg = _write(tmp_path, ODE_CFG)
    out = tmp_path / "out"
    assert main(["ode-convergence", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "config.resolved").exists()
    assert (out / "ode_convergence.csv").exists()


def test_run_subcommand_success(tmp_path):
    cfg = _write(tmp_path, SINGLE_CFG)
    out = tmp_path / "deep" / "nested" / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.csv").exists()


def test_linear_power_law_writes_the_constant_law_report(tmp_path):
    """diffusion = power with alpha_exp = 1 is linear diffusion: the same report."""
    constant = SINGLE_CFG + "species.u.ic = disk_in\n"  # uniform data would not diffuse
    power = constant.replace("species.u.diffusion = constant\nspecies.u.D = 0.2\n",
                             "species.u.diffusion = power\nspecies.u.D0 = 0.2\n"
                             "species.u.alpha_exp = 1\n")
    for name, text in (("constant", constant), ("power", power)):
        cfg = _write(tmp_path, text, name=f"{name}.cfg")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    report = (tmp_path / "power" / "report.csv").read_bytes()
    assert report == (tmp_path / "constant" / "report.csv").read_bytes()


def test_kind_mismatch_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, ODE_CFG)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "does not match" in err[0]
    assert not out.exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    # a malformed value, then values rejected only once the solver set-up sees them:
    # dt not dividing t_end (default 1), snapshots off the step grid, and
    # alpha == beta with unequal rates (no detailed balance); numbers that
    # are not finite
    cases = [
        ("ode-convergence", "kind = ode_convergence\node.alpha = -1\n"),
        ("ode-convergence", "kind = ode_convergence\node.dt = 0.3\n"),
        ("run", SINGLE_CFG.replace("run.dt = 0.05", "run.dt = 0.1").replace(
            "run.t_end = 0.1", "run.t_end = 0.2") + "run.snapshots = 0.15\n"),
        ("run", SINGLE_CFG.replace("reaction.beta = 0, 1", "reaction.beta = 1, 0").replace(
            "reaction.k_minus = 1", "reaction.k_minus = 2")),
        ("run", SINGLE_CFG.replace("grid.n0 = 8", "grid.n0 = 1e400")),
        ("run", SINGLE_CFG.replace("run.t_end = 0.1", "run.t_end = 1e400")),
        ("run", SINGLE_CFG + "grid.upper = 1e400\n"),
    ]
    for i, (command, text) in enumerate(cases):
        cfg = _write(tmp_path, text, name=f"exp{i}.cfg")
        code = main([command, "--config", cfg, "--out", str(tmp_path / f"out{i}")])
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / f"out{i}").exists()


@pytest.mark.parametrize("command, text, why", [
    ("energy-trace", "kind = energy_trace\ntrace.h = 0.3\n", "does not tile"),
    ("cauchy", "kind = cauchy_convergence\ncauchy.h = 0.3, 0.2, 0.1\n", "does not tile"),
    ("ode-convergence", "kind = ode_convergence\node.dt = 0.3\n", "integer multiple"),
    ("run", SINGLE_CFG.replace("run.dt = 0.05", "run.dt = 0.03"), "integer multiple"),
    ("energy-trace", "kind = energy_trace\ntrace.dt = 0.3\n", "integer multiple"),
    # 1e300 steps: the multiple test cannot fail there, and the report arrays would not fit
    ("run", SINGLE_CFG.replace("run.dt = 0.05", "run.dt = 1e-300").replace(
        "run.t_end = 0.1", "run.t_end = 1"), "too many to check"),
    # the same trace solved and written three times, one report
    ("energy-trace", "kind = energy_trace\ntrace.alpha_exp = 1, 1, 1\n",
     "key 'trace.alpha_exp': must not repeat"),
    # 2/h past the largest double: round(2/h) used to raise an OverflowError traceback
    ("energy-trace", "kind = energy_trace\ntrace.h = 1e-320\n", "too small to tile"),
    ("cauchy", "kind = cauchy_convergence\ncauchy.h = 1e-320, 1e-321, 1e-322\n",
     "too small to tile"),
], ids=["trace h", "cauchy h", "ode dt", "run dt", "trace dt", "run dt tiny", "trace alpha_exp",
        "trace h subnormal", "cauchy h subnormal"])
@pytest.mark.parametrize("existing", [False, True], ids=["new out", "empty out"])
def test_runner_rejection_leaves_out_untouched(tmp_path, capsys, command, text, why, existing):
    """The config's checks, the runner's own among them, run before --out is
    made or written; a rejected config used to leave config.resolved behind."""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert why in capsys.readouterr().err
    assert list(out.iterdir()) == [] if existing else not out.exists()


_LOG_UNIFORM = hst.floats(math.log10(1e-310), 308.0).map(lambda e: 10.0 ** e)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(alpha=_LOG_UNIFORM, c0=hst.tuples(_LOG_UNIFORM, _LOG_UNIFORM))
@example(alpha=8.7e120, c0=(3.4e-307, 1.4e-286))  # c1_inf underflows to 0
@example(alpha=2.0, c0=(1e308, 1e308))  # c1 + c2 overflows
def test_ode_convergence_exits_0_2_or_3_and_keeps_its_contract(tmp_path_factory, alpha, c0):
    """Any positive rate and concentrations on a three-level dt ladder: exit 0 with
    finite numbers only, or one stderr line, with --out untouched on exit 2. The
    exact reference used to be formed after --out existed, and the two examples
    ended in a ZeroDivisionError traceback and in a CSV of nan."""
    work = tmp_path_factory.mktemp("ode")
    cfg = _write(work, f"{ODE_CFG}ode.alpha = {alpha!r}\node.c0 = {c0[0]!r}, {c0[1]!r}\n")
    out = work / "out"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["ode-convergence", "--config", cfg, "--out", str(out)])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        csv = (out / "ode_convergence.csv").read_text().lower()
        assert "nan" not in csv and "inf" not in csv, csv
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    if code == 2:
        assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cauchy_t_end_off_a_level_step_exits_2_before_out(tmp_path, capsys, threads):
    """Every level's dt must divide t_end: 0.25 is no multiple of 1/10. That
    check used to run with the levels' solves, after --out was made."""
    cfg = _write(tmp_path, "kind = cauchy_convergence\ncauchy.h = 1/10, 1/15, 1/20\n"
                           "cauchy.t_end = 0.25\n")
    out = tmp_path / "out"
    assert main(["cauchy", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "t_end = 0.25 is not an integer multiple of dt = 0.1" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_too_large_to_allocate_exits_2(tmp_path, capsys):
    """A 400000000^2 grid needs 1.11 EiB per field, beyond any 64-bit address
    space, so the allocation fails at once; it used to exit 1 with a traceback."""
    cfg = _write(tmp_path, SINGLE_CFG.replace("grid.n0 = 8", "grid.n0 = 400000000"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rdsplit: cannot allocate: ")
    assert not out.exists()


def test_grid_too_large_for_one_array_exits_2_before_out(tmp_path, capsys):
    """10^20 float64 cells exceed numpy's largest array: the uniform initial
    field used to fail with numpy's 'array is too big' ValueError, exit 1."""
    cfg = _write(tmp_path, SINGLE_CFG.replace("grid.n0 = 8", "grid.n0 = 10000000000"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "rdsplit: invalid config: 10000000000^2 cells do not fit in one array"]
    assert not out.exists()


def test_verbose_applies_to_each_call_and_only_to_the_rdsplit_logger(tmp_path, capsys):
    """logging.basicConfig used to ignore --verbose once the root logger had a
    handler, as it has after a first call, and set the root logger's level."""
    root = logging.getLogger()
    handlers, level = list(root.handlers), root.level
    cfg = _write(tmp_path, ODE_CFG)
    for verbose in (False, True, False, True):
        argv = ["ode-convergence", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv + ["--verbose"] * verbose) == 0
        err = capsys.readouterr().err
        assert ("INFO rdsplit: running ode_convergence into" in err) == verbose
        assert ("INFO rdsplit: done" in err) == verbose
        assert (root.handlers, root.level) == (handlers, level)
        assert logging.getLogger("rdsplit").handlers == []


def test_snapshots_after_t_end_exit_2(tmp_path, capsys):
    """A snapshot time past t_end used to be dropped silently, with exit 0."""
    cases = [
        ("run", SINGLE_CFG.replace("run.t_end = 0.1", "run.t_end = 0.2")
         + "run.snapshots = 0.1, 5\n"),
        ("energy-trace", "kind = energy_trace\ntrace.t_end = 0.2\ntrace.snapshots = 0.1, 5\n"),
    ]
    for i, (command, text) in enumerate(cases):
        cfg = _write(tmp_path, text, name=f"snap{i}.cfg")
        out = tmp_path / f"out{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        key = "run" if command == "run" else "trace"
        assert (f"{key}.snapshots: snapshot time 5 is after t_end = 0.2"
                in capsys.readouterr().err)
        assert not list(out.glob("*_t0.1.csv"))


def test_snapshot_times_of_one_file_name_exit_2(tmp_path, capsys, monkeypatch):
    """1 + 2**-20 prints as 1 under :g, so its files used to replace those of t = 1.

    The run would take 2**20 + 1 steps: it must be refused before the first.
    """
    def run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("rdsplit.harness.run", run)
    cases = [("1, 1.00000095367431640625", "1.0 and 1.0000009536743164"),
             ("0.5, 0.5", "0.5 and 0.5")]
    for i, (times, pair) in enumerate(cases):
        text = SINGLE_CFG.replace("run.dt = 0.05\nrun.t_end = 0.1\n", (
            "run.dt = 1/1048576\nrun.t_end = 1048577/1048576\n")) + f"run.snapshots = {times}\n"
        cfg = _write(tmp_path, text, name=f"snap{i}.cfg")
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"run.snapshots: snapshot times {pair} both write" in capsys.readouterr().err
        assert not out.exists()


def test_a_trace_snapshot_at_time_0_writes_the_initial_field(tmp_path, capsys):
    """trace.snapshots took only positive times, unlike run.snapshots: 0 exited 2."""
    from rdsplit import Grid, read_field_csv
    from rdsplit.harness import ring_profiles

    cfg = _write(tmp_path, "kind = energy_trace\ntrace.alpha_exp = 1\ntrace.h = 1/10\n"
                           "trace.dt = 1/10\ntrace.t_end = 0.2\ntrace.snapshots = 0, 0.2\n")
    out = tmp_path / "out"
    assert main(["energy-trace", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    u0 = read_field_csv(out / "u_alpha1_t0.csv")
    grid = Grid(dim=2, n0=20, lower=-1.0, upper=1.0)
    assert u0.grid == grid
    np.testing.assert_array_equal(u0.values, ring_profiles(grid)[0].values)


@pytest.mark.parametrize("name", ["../xa", "x.a", "1x", "x a", "x-a"])
def test_species_names_must_be_identifiers(tmp_path, capsys, name):
    """A species name is a dotted key segment and a file name; '../xa' wrote outside --out."""
    text = SINGLE_CFG.replace("species = u, v", f"species = {name}, b").replace(
        "species.u.diffusion = constant\nspecies.u.D = 0.2\n", "run.snapshots = 0.1\n")
    work = tmp_path / "work"
    work.mkdir()
    cfg = _write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(work / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and f"key 'species': {name!r} is not an identifier" in err
    assert list(work.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path):
    code = main(["ode-convergence", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(ODE_CFG.encode() + b"# \xff\n")
    code = main(["ode-convergence", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{cfg}: config file is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["a file", "under a file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, below):
    """--out naming a file, or a path under one, used to exit 1 with the
    FileExistsError or NotADirectoryError of mkdir."""
    cfg = _write(tmp_path, ODE_CFG)
    blocker = tmp_path / "notadir"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    assert main(["ode-convergence", "--config", cfg, "--out", str(out)]) == 2
    assert f"{out}: cannot create output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "notadir"]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("blocked", ["ode_convergence.csv", "config.resolved"])
def test_output_that_cannot_be_written_exits_2(tmp_path, capsys, blocked):
    """An output file that is a directory used to exit 1 with IsADirectoryError;
    what the run wrote before it stays."""
    cfg = _write(tmp_path, ODE_CFG)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["ode-convergence", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("rdsplit: cannot write output: ")
    assert str(out / blocked) in err[0] and "Is a directory" in err[0]
    assert (out / blocked).is_dir()
    if blocked == "config.resolved":
        assert (out / "ode_convergence.csv").read_text().startswith("label,error,order")


# the quench-limit chemistry: its first half step has no representable root
QUENCH_CFG = """kind = single_run
species = a, b, c, d
grid.n0 = 2
reaction.alpha = 0, 0, 1, 0
reaction.beta = 1, 1, 2, 2
reaction.k_plus = 0.7252
reaction.k_minus = 2.4492
run.dt = 0.04
run.t_end = 0.04
species.a.value = 3.114
species.b.value = 2.4267
species.c.value = 2.7336
species.d.value = 2.384
"""


def test_solver_failure_exits_3(tmp_path, capsys):
    # dt far beyond the nonlinear stepper's Newton basin at this resolution;
    # nonuniform u, because uniform data at equilibrium is an exact fixed point
    text = SINGLE_CFG.replace("species.u.diffusion = constant\nspecies.u.D = 0.2\n",
                              "species.u.diffusion = power\n"
                              "species.u.D0 = 1e6\n"
                              "species.u.alpha_exp = 4\n"
                              "species.u.ic = disk_in\n")
    text = text.replace("run.dt = 0.05", "run.dt = 1e8").replace(
        "run.t_end = 0.1", "run.t_end = 2e8")
    # eta dt = k_minus c_B dt/2 = 2e310 overflows; the scalar path used to raise a bare
    # OverflowError (exit 1)
    overflow = ("kind = ode_convergence\node.c0 = 1, 1e300\n"
                "ode.t_end = 4e10\node.dt = 4e10, 2e10\n")
    for command, name, text, stage in (
            ("run", "diffusion", text, "[diffusion stage, species 'u']"),
            ("run", "quench", QUENCH_CFG, "[reaction stage 1]"),
            ("ode-convergence", "overflow", overflow, "reaction predictor: eta dt overflows")):
        cfg = _write(tmp_path, text, name=f"{name}.cfg")
        code = main([command, "--config", cfg, "--out", str(tmp_path / name)])
        assert code == 3
        err = capsys.readouterr().err
        assert "solve failed" in err
        assert stage in err
        # the run passed its checks, so its resolved config is kept with what it wrote
        assert (tmp_path / name / "config.resolved").read_text().startswith("kind = ")


def test_solver_failure_whose_resolved_config_cannot_be_written_exits_3(tmp_path, capsys):
    """The overflow input of the test above, with config.resolved a directory:
    the solve failure keeps its exit code and message, plus one line for the file."""
    cfg = _write(tmp_path, "kind = ode_convergence\node.c0 = 1, 1e300\n"
                           "ode.t_end = 4e10\node.dt = 4e10, 2e10\n")
    out = tmp_path / "out"
    (out / "config.resolved").mkdir(parents=True)
    assert main(["ode-convergence", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("rdsplit: solve failed: ") and "eta dt overflows" in err[0]
    assert err[1].startswith("rdsplit: cannot write output: ")
    assert str(out / "config.resolved") in err[1]


def test_free_energy_that_overflows_exits_2(tmp_path, capsys):
    """F = u (ln u - 1 + U) h^2 with u = 1e300, U = 1e10 is past the largest double:
    system_energy used to print numpy's overflow warning, then the reaction failed (exit 3).
    At 1e308 with U = -708.2, F is finite but the mass is not: the run used to print
    numpy's 'overflow encountered in reduce', exit 0 and write inf in conserved_0."""
    cases = [
        ("grid.n0 = 2\nreaction.k_plus = 1\nreaction.k_minus = 1\n"
         "reaction.U = 1e10, 1e10\nspecies.u.value = 1e300\n",
         "free energy overflows to inf"),
        ("grid.dim = 1\ngrid.n0 = 4\nreaction.k_plus = 1e-300\nreaction.k_minus = 1e-300\n"
         "reaction.U = -708.2, -708.2\nspecies.u.value = 1e308\nspecies.v.value = 1e308\n",
         "L2 pairing overflows to inf"),
    ]
    for i, (keys, message) in enumerate(cases):
        cfg = _write(tmp_path, "kind = single_run\nspecies = u, v\nreaction.alpha = 1, 0\n"
                               "reaction.beta = 0, 1\nrun.dt = 0.1\nrun.t_end = 0.1\n" + keys,
                     name=f"exp{i}.cfg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / f"out{i}")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"rdsplit: invalid config: {message}"]


def test_report_and_snapshot_bytes(tmp_path):
    """The CSV rule, pinned on data whose bits do not depend on the machine: floats
    with 17 significant digits, ints as str prints them, UTF-8 and \\n endings."""
    cfg = _write(tmp_path, "kind = single_run\nspecies = u, v\ngrid.dim = 1\ngrid.n0 = 4\n"
                           "grid.lower = 0\ngrid.upper = 1\nreaction.alpha = 1, 0\n"
                           "reaction.beta = 0, 1\nreaction.k_plus = 1\nreaction.k_minus = 1\n"
                           "run.dt = 0.1\nrun.t_end = 0.2\nrun.snapshots = 0.1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.csv").read_bytes() == (
        b"step,t,energy,conserved_0,min_u,min_v,reaction_iters_avg,diffusion_iters\n"
        b"0,0,-2,2,1,1,0,0\n"
        b"1,0.10000000000000001,-2,2,1,1,0,0\n"
        b"2,0.20000000000000001,-2,2,1,1,0,0\n")
    assert (out / "u_t0.1.csv").read_bytes() == (
        b"# grid dim=1 n0=4 lower=0 upper=1\n"
        b"0,0.125,1\n1,0.375,1\n2,0.625,1\n3,0.875,1\n")


def test_subnormal_concentration_runs_without_overflow(tmp_path, capsys):
    """b = 1e-320 makes G2 of the x ln x slope and the CN residual's dt/x
    overflow: both used to print numpy's 'overflow encountered in divide'."""
    cfg = _write(tmp_path, "kind = single_run\nspecies = a, b\ngrid.dim = 1\ngrid.n0 = 2\n"
                           "reaction.alpha = 1, 1\nreaction.beta = 2, 1\n"
                           "reaction.k_plus = 0.5\nreaction.k_minus = 1e12\n"
                           "run.dt = 1e-9\nrun.t_end = 1e-9\nspecies.a.value = 2\n"
                           "species.b.diffusion = power\nspecies.b.D0 = 7.3\n"
                           "species.b.alpha_exp = 1.5\nspecies.b.value = 1e-320\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "report.csv").exists()


def _diffusion_cfg(dt, law):
    """u <-> v with k+ = k- = 1 on 8 x 8 cells, one step of ``dt``; u diffuses by ``law``."""
    return SINGLE_CFG.replace("run.dt = 0.05\nrun.t_end = 0.1\n",
                              f"run.dt = {dt}\nrun.t_end = {dt}\n").replace(
        "species.u.diffusion = constant\nspecies.u.D = 0.2\n", law)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt, law, why", [
    # D(10) = 10^999 overflows
    ("1/10", "species.u.diffusion = power\nspecies.u.D0 = 1\nspecies.u.alpha_exp = 1000\n"
             "species.u.ic = uniform\nspecies.u.value = 10\n",
     "nonlinear diffusion coefficient overflows"),
    # face weights near 1e300: <r, z> turns negative at CG iteration 3, before a 0/0 at 20
    ("10", "species.u.diffusion = power\nspecies.u.D0 = 1e300\nspecies.u.alpha_exp = 2\n"
           "species.v.ic = disk_in\n",
     "conjugate gradients broke down: <r, z> is not positive"),
    # the same on disk data: <r, z> = -1.1e-40 at iteration 11, every value finite
    ("10", "species.u.diffusion = power\nspecies.u.D0 = 1e300\nspecies.u.alpha_exp = 2\n"
           "species.u.ic = disk_in\n",
     "conjugate gradients broke down: <r, z> is not positive"),
], ids=["coefficient", "cg", "cg_disk_in"])
def test_overflow_in_a_diffusion_stage_exits_3(tmp_path, capsys, dt, law, why):
    """The first two used to print a numpy RuntimeWarning. The coefficient then
    exited 2 as an invalid config with an empty --out, and CG ran on to its
    iteration cap. The breakdown stalled at a residual of 8.7e-4 and hit the cap
    after 1001 FFT applications."""
    cfg = _write(tmp_path, _diffusion_cfg(dt, law))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"rdsplit: solve failed: {why} [diffusion stage, species 'u']"]
    assert (out / "config.resolved").exists()


@pytest.mark.filterwarnings("error")
def test_exact_diffusion_whose_dt_d_overflows_completes(tmp_path, capsys):
    """dt D = 1e309: inf * 0 at the zero mode used to give NaN, a numpy warning
    and exit 2. The exact propagator keeps the mean and damps every other mode to 0."""
    cfg = _write(tmp_path, _diffusion_cfg("10", "species.u.diffusion = constant\n"
                                                "species.u.D = 1e308\nspecies.u.ic = disk_in\n"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "report.csv").exists()


def test_a_spacing_outside_the_double_range_exits_2_before_out(tmp_path, capsys):
    """h = 2.5e-301: 4/h^2 used to divide by zero, a traceback and exit 1 with an empty --out."""
    cfg = _write(tmp_path, SINGLE_CFG + "grid.lower = -1e-300\ngrid.upper = 1e-300\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "rdsplit: invalid config: cell spacing 2.5e-301 leaves the double range"]
    assert not out.exists()


def test_threads_only_on_cauchy(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--threads", "2", "--config", _write(tmp_path, SINGLE_CFG),
              "--out", str(out)])
    assert exc_info.value.code == 2
    capsys.readouterr()
    # a thread count below 1 is the runner's config check: one line, --out untouched
    cfg = _write(tmp_path, "kind = cauchy_convergence\ncauchy.h = 1/10, 1/15, 1/20\n",
                 name="cauchy.cfg")
    for threads in ("0", "-3"):
        assert main(["cauchy", "--threads", threads, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"rdsplit: invalid config: threads must be at least 1, got {threads}"]
        assert not out.exists()


def test_resolved_config_matches_cli_kind(tmp_path):
    cfg = _write(tmp_path, ODE_CFG)
    out = tmp_path / "out"
    main(["ode-convergence", "--config", cfg, "--out", str(out)])
    resolved = (out / "config.resolved").read_text()
    assert resolved.splitlines()[0] == "kind = ode_convergence"
    assert "ode.dt" in resolved


def test_cli_outputs_are_deterministic(tmp_path):
    cfg = _write(tmp_path, SINGLE_CFG + "run.snapshots = 0.1\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("report.csv", "u_t0.1.csv", "v_t0.1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # the levels of a Cauchy study run concurrently; the thread count changes no byte
    cfg = _write(tmp_path, "kind = cauchy_convergence\ncauchy.h = 1/10, 1/15, 1/20\n",
                 name="cauchy.cfg")
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["cauchy", "--config", cfg, "--out", str(one), "--threads", "1"]) == 0
    assert main(["cauchy", "--config", cfg, "--out", str(two), "--threads", "2"]) == 0
    for name in ("cauchy_u.csv", "cauchy_v.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


# the four subcommands on tiny configs, then a field CSV read back and written again
_ENCODING_SCRIPT = """
import sys
from pathlib import Path
from rdsplit import read_field_csv, write_field_csv
from rdsplit.cli import main
work = Path(sys.argv[1])
for command in ("run", "ode-convergence", "cauchy", "energy-trace"):
    assert main([command, "--config", str(work / (command + ".cfg")),
                 "--out", str(work / command)]) == 0, command
snapshot = work / "run" / "u_t0.1.csv"
write_field_csv(read_field_csv(snapshot), work / "copy.csv")
assert (work / "copy.csv").read_bytes() == snapshot.read_bytes()
"""


def test_cli_and_field_csv_name_their_text_encoding(tmp_path):
    """Every text file is read and written as UTF-8, whatever the locale:
    under -X warn_default_encoding a text open that leaves the encoding to the
    locale warns, and -W error::EncodingWarning fails the run on it. Only this
    subprocess runs so: pytest and its plugins open files that would warn too.
    """
    configs = {
        "run": SINGLE_CFG + "run.snapshots = 0.1\n",
        "ode-convergence": ODE_CFG,
        "cauchy": "kind = cauchy_convergence\ncauchy.h = 1/10, 1/15, 1/20\n",
        "energy-trace": "kind = energy_trace\ntrace.h = 1/10\ntrace.dt = 1/10\n"
                        "trace.t_end = 0.2\ntrace.snapshots = 0.1\n",
    }
    for command, text in configs.items():
        (tmp_path / f"{command}.cfg").write_text(text, encoding="utf-8")
    import rdsplit

    src = os.path.dirname(os.path.dirname(rdsplit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _ENCODING_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
