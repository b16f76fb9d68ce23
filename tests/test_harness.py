import math
import re

import numpy as np
import pytest

from rdsplit import (
    Field,
    Grid,
    InvalidConfig,
    InvalidInput,
    cubic_autocatalysis_system,
    exact_ode_solution,
    parse_config,
    resample_spectral,
    run_cauchy_convergence,
    run_energy_trace,
    run_ode_convergence,
    run_single,
    weighted_order,
    write_resolved_config,
)
from rdsplit.harness import ring_profiles, write_convergence_csv, ConvergenceRow, _trig_eval_matrix


def _cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- config parsing


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(_cfg(tmp_path, "kind = ode_convergence\n"))
    assert cfg.kind == "ode_convergence"
    assert cfg["ode.alpha"] == 2.0
    assert cfg["ode.c0"] == [1.0, 0.5]
    assert cfg["ode.t_end"] == 1.0
    assert cfg["ode.dt"][0] == 1 / 20
    assert cfg["ode.dt"][-1] == 1 / 640


def test_parse_fractions_comments_and_lists(tmp_path):
    text = """# exchange study
kind = ode_convergence
ode.alpha = 3
ode.dt = 1/10, 1/20, 0.025

ode.c0 = 2.0, 1/4
"""
    cfg = parse_config(_cfg(tmp_path, text))
    assert cfg["ode.alpha"] == 3.0
    assert cfg["ode.dt"] == [0.1, 0.05, 0.025]
    assert cfg["ode.c0"] == [2.0, 0.25]


@pytest.mark.parametrize("text,key", [
    ("ode.alpha = 2\n", "kind"),                                   # missing kind
    ("kind = banana\n", "kind"),                                   # unknown kind
    ("kind = ode_convergence\node.alpha = -2\n", "ode.alpha"),     # validator
    ("kind = ode_convergence\nfoo = 1\n", "foo"),                  # unknown key
    ("kind = ode_convergence\node.dt = 1/20, 1/10\n", "ode.dt"),   # not decreasing
    ("kind = ode_convergence\node.c0 = 1, 2, 3\n", "ode.c0"),      # wrong length
    ("kind = ode_convergence\node.alpha = 1\node.alpha = 2\n", "ode.alpha"),  # dup
    ("kind = cauchy_convergence\ncauchy.h = 1/20, 1/30\n", "cauchy.h"),  # too few
    ("kind = cauchy_convergence\ncauchy.alpha_exp = 3\n", "cauchy.alpha_exp"),
    ("kind = energy_trace\ntrace.alpha_exp = 1, 2, 1\n", "trace.alpha_exp"),  # repeated
])
def test_parse_errors_carry_offending_key(tmp_path, text, key):
    with pytest.raises(InvalidConfig) as exc_info:
        parse_config(_cfg(tmp_path, text))
    assert exc_info.value.key == key


def test_parse_rejects_malformed_line(tmp_path):
    with pytest.raises(InvalidConfig):
        parse_config(_cfg(tmp_path, "kind = ode_convergence\njust words\n"))


def test_single_run_conditional_keys(tmp_path):
    text = """kind = single_run
species = a, b
grid.n0 = 8
reaction.alpha = 1, 0
reaction.beta = 0, 1
reaction.k_plus = 1
reaction.k_minus = 1
run.dt = 0.1
run.t_end = 0.2
species.a.diffusion = constant
species.a.D = 0.2
species.b.diffusion = power
species.b.D0 = 0.1
species.b.alpha_exp = 2
species.b.ic = disk_out
"""
    cfg = parse_config(_cfg(tmp_path, text))
    assert cfg["species"] == ["a", "b"]
    assert cfg["species.a.D"] == 0.2
    assert cfg["species.b.alpha_exp"] == 2.0
    # constant-law key for a power species is unknown
    with pytest.raises(InvalidConfig):
        parse_config(_cfg(tmp_path, text + "species.b.D = 0.5\n", name="e2.cfg"))
    # power law requires its keys
    with pytest.raises(InvalidConfig) as exc_info:
        parse_config(_cfg(tmp_path, text.replace("species.b.alpha_exp = 2\n", ""),
                          name="e3.cfg"))
    assert exc_info.value.key == "species.b.alpha_exp"


def test_resolved_config_roundtrip(tmp_path):
    src = _cfg(tmp_path, "kind = cauchy_convergence\ncauchy.alpha_exp = 2\n")
    cfg = parse_config(src)
    echo = tmp_path / "resolved.cfg"
    write_resolved_config(cfg, echo)
    cfg2 = parse_config(echo)
    assert cfg2.kind == cfg.kind
    assert cfg2.params == cfg.params


def test_resolved_config_roundtrip_single_run(tmp_path):
    text = """kind = single_run
species = u, v
grid.n0 = 6
reaction.alpha = 1, 2
reaction.beta = 0, 3
reaction.k_plus = 1
reaction.k_minus = 1/10
run.dt = 1/10
run.t_end = 0.3
species.u.diffusion = constant
species.u.D = 1/5
species.u.ic = disk_in
species.v.ic = disk_out
"""
    cfg = parse_config(_cfg(tmp_path, text))
    echo = tmp_path / "resolved.cfg"
    write_resolved_config(cfg, echo)
    assert parse_config(echo).params == cfg.params


# the keys each kind requires; every other key falls back to its default
REQUIRED_LINES = {
    "ode_convergence": "",
    "cauchy_convergence": "",
    "energy_trace": "",
    "single_run": ("species = a, b\ngrid.n0 = 4\nreaction.alpha = 1, 0\nreaction.beta = 0, 1\n"
                   "reaction.k_plus = 1\nreaction.k_minus = 1\nrun.dt = 0.1\nrun.t_end = 0.2\n"),
}

# one non-default value for every key of every kind (required keys: another value)
NON_DEFAULT_LINES = [
    ("ode_convergence", "ode.alpha = 3/2"),
    ("ode_convergence", "ode.c0 = 2, 1/3"),
    ("ode_convergence", "ode.t_end = 0.5"),
    ("ode_convergence", "ode.dt = 1/10, 1/30"),
    ("cauchy_convergence", "cauchy.alpha_exp = 2"),
    ("cauchy_convergence", "cauchy.h = 1/10, 1/15, 1/20, 1/25"),
    ("cauchy_convergence", "cauchy.t_end = 0.1"),
    ("cauchy_convergence", "cauchy.D_u = 0.3"),
    ("cauchy_convergence", "cauchy.D_v = 1/7"),
    ("cauchy_convergence", "cauchy.k_plus = 2"),
    ("cauchy_convergence", "cauchy.k_minus = 0.2"),
    ("energy_trace", "trace.alpha_exp = 2"),
    ("energy_trace", "trace.h = 1/10"),
    ("energy_trace", "trace.dt = 1/40"),
    ("energy_trace", "trace.t_end = 0.3"),
    ("energy_trace", "trace.snapshots = 0.1, 1/3"),
    ("energy_trace", "trace.D_u = 0.25"),
    ("energy_trace", "trace.D_v = 0.15"),
    ("energy_trace", "trace.k_plus = 1.5"),
    ("energy_trace", "trace.k_minus = 0.3"),
    ("single_run", "species = x, y"),
    ("single_run", "grid.dim = 1"),
    ("single_run", "grid.n0 = 6"),
    ("single_run", "grid.lower = -1/2"),
    ("single_run", "grid.upper = 3/2"),
    ("single_run", "reaction.alpha = 2, 0"),
    ("single_run", "reaction.beta = 0, 3"),
    ("single_run", "reaction.k_plus = 1/3"),
    ("single_run", "reaction.k_minus = 2"),
    ("single_run", "reaction.U = 0, 0.5"),
    ("single_run", "run.dt = 0.05"),
    ("single_run", "run.t_end = 0.3"),
    ("single_run", "run.snapshots = 0, 0.1"),
    ("single_run", "species.a.diffusion = constant\nspecies.a.D = 1/5"),
    ("single_run", "species.a.diffusion = power\nspecies.a.D0 = 0.1\nspecies.a.alpha_exp = 5/2"),
    ("single_run", "species.b.ic = disk_in"),
    ("single_run", "species.b.ic = disk_out"),
    ("single_run", "species.b.value = 0.3"),
]

LIST_KEYS = [("ode_convergence", "ode.c0"), ("ode_convergence", "ode.dt"),
             ("cauchy_convergence", "cauchy.h"), ("energy_trace", "trace.alpha_exp"),
             ("energy_trace", "trace.snapshots"), ("single_run", "species"),
             ("single_run", "reaction.alpha"), ("single_run", "reaction.beta"),
             ("single_run", "reaction.U"), ("single_run", "run.snapshots")]


def _config_text(kind, lines=""):
    """kind's required lines, each replaced by a line of ``lines`` with the same key."""
    by_key = {}
    for line in (REQUIRED_LINES[kind] + lines).splitlines():
        by_key[line.split("=")[0].strip()] = line
    return "\n".join([f"kind = {kind}", *by_key.values()]) + "\n"


@pytest.mark.parametrize("kind, lines", [(kind, "") for kind in REQUIRED_LINES]
                         + NON_DEFAULT_LINES)
def test_every_key_survives_the_resolved_echo(tmp_path, kind, lines):
    cfg = parse_config(_cfg(tmp_path, _config_text(kind, lines)))
    default = parse_config(_cfg(tmp_path, _config_text(kind), name="default.cfg"))
    for line in lines.splitlines():
        key = line.split("=")[0].strip()
        assert cfg[key] != default.params.get(key), f"{key} is at its default"
    echo = tmp_path / "resolved.cfg"
    write_resolved_config(cfg, echo)
    again = parse_config(echo)
    assert (again.kind, again.params) == (cfg.kind, cfg.params)


def test_non_default_lines_cover_every_key(tmp_path):
    """Each key, with any species name read as ``*``, has a non-default line above,
    and each list-valued key is in LIST_KEYS."""
    def pattern(key):
        return re.sub(r"^species\.\w+\.", "species.*.", key)

    given = {pattern(line.split("=")[0].strip()) for _, lines in NON_DEFAULT_LINES
             for line in lines.splitlines()}
    listed = {key for _, key in LIST_KEYS}
    for kind, lines in [(kind, "") for kind in REQUIRED_LINES] + NON_DEFAULT_LINES:
        params = parse_config(_cfg(tmp_path, _config_text(kind, lines))).params
        assert {pattern(key) for key in params} <= given
        assert {key for key, v in params.items() if isinstance(v, list)} <= listed
    assert listed <= given


@pytest.mark.parametrize("kind, key", LIST_KEYS)
@pytest.mark.parametrize("value", ["", " , ,"], ids=["blank", "commas"])
def test_empty_list_is_rejected_with_its_key(tmp_path, kind, key, value):
    """`trace.alpha_exp =` used to parse to [] and echo as the default [1, 2]."""
    with pytest.raises(InvalidConfig, match="empty list") as exc_info:
        parse_config(_cfg(tmp_path, _config_text(kind, f"{key} = {value}")))
    assert exc_info.value.key == key


# ---------------------------------------------------------------- pieces


def test_exact_ode_solution_oracle():
    # alpha = 2, c0 = (1, 0.5), t = 1: high-precision reference
    c = exact_ode_solution(1.0, 2.0, [1.0, 0.5])
    assert c[0] == pytest.approx(0.52489353418393197, abs=1e-16)
    assert c[0] + c[1] == pytest.approx(1.5, abs=1e-15)
    c_inf = exact_ode_solution(1e3, 2.0, [1.0, 0.5])
    assert c_inf[0] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InvalidInput):
        exact_ode_solution(1.0, -2.0, [1.0, 0.5])
    # one concentration used to raise a bare IndexError
    for c0 in ([1.0], [1.0, 0.5, 0.5], [[1.0, 0.5]], 1.0):
        with pytest.raises(InvalidInput, match="two concentrations"):
            exact_ode_solution(1.0, 2.0, c0)


def test_weighted_order_published_value():
    # first Table-2 triple published alongside its differences
    got = weighted_order(4.1625e-3, 1.5357e-3, 1 / 20, 1 / 30, 1 / 40)
    assert f"{got:.4f}" == "1.8700"


def test_weighted_order_calibration_exact_second_order():
    K = 3.7
    hs = [1 / 20, 1 / 30, 1 / 40]
    e01 = K * (hs[0] ** 2 - hs[1] ** 2)
    e12 = K * (hs[1] ** 2 - hs[2] ** 2)
    assert weighted_order(e01, e12, *hs) == pytest.approx(2.0, abs=1e-13)


def test_weighted_order_validation():
    with pytest.raises(InvalidInput):
        weighted_order(1e-3, 1e-4, 1 / 30, 1 / 20, 1 / 40)
    with pytest.raises(InvalidInput):
        weighted_order(0.0, 1e-4, 1 / 20, 1 / 30, 1 / 40)


def test_resample_spectral_exact_on_resolved_modes():
    fine = Grid(dim=1, n0=40, lower=-1.0, upper=1.0)
    coarse = Grid(dim=1, n0=24, lower=-1.0, upper=1.0)
    fn = lambda x: 1.5 + np.sin(3 * np.pi * x) + 0.2 * np.cos(8 * np.pi * x)
    r = resample_spectral(Field.from_function(fine, fn), coarse)
    np.testing.assert_allclose(r.values, fn(coarse.axis_centers(0)), atol=1e-13)


def test_resample_spectral_2d_exact_on_resolved_modes():
    fine = Grid(dim=2, n0=20, lower=-1.0, upper=1.0)
    coarse = Grid(dim=2, n0=12, lower=-1.0, upper=1.0)
    fn = lambda x, y: 2.0 + np.sin(2 * np.pi * x) * np.cos(3 * np.pi * y)
    r = resample_spectral(Field.from_function(fine, fn), coarse)
    Xc, Yc = coarse.centers()
    np.testing.assert_allclose(r.values, fn(Xc, Yc), atol=1e-12)


def test_resample_spectral_identity_on_same_grid():
    rng = np.random.default_rng(40)
    g = Grid(dim=2, n0=10, lower=-1.0, upper=1.0)
    f = Field(g, rng.uniform(0.5, 2.0, g.shape))
    r = resample_spectral(f, g)
    np.testing.assert_allclose(r.values, f.values, atol=1e-12)


def _trig_eval_cosine_sum(n_src, n_dst, lower, span):
    """Reference: the trig interpolant's cardinal function as its cosine sum."""
    x = lower + (np.arange(n_src) + 0.5) * (span / n_src)
    y = lower + (np.arange(n_dst) + 0.5) * (span / n_dst)
    theta = 2.0 * np.pi * (y[:, None] - x[None, :]) / span
    kmax = n_src // 2
    k = np.arange(1, kmax + 1, dtype=float)
    weights = np.full(kmax, 2.0)
    if n_src % 2 == 0:
        weights[-1] = 1.0  # split the Nyquist cosine symmetrically
    return (1.0 + np.cos(theta[:, :, None] * k) @ weights) / n_src


@pytest.mark.parametrize("n_src", [1, 2, 3, 8, 9, 120])
def test_trig_eval_matrix_matches_cosine_sum(n_src):
    """The closed-form periodic sinc equals the cosine sum it replaces, including
    at coincident centers (n_src = 3 n_dst, and equal grids)."""
    n_dsts = {1, 5, n_src, 2 * n_src + 1} | ({n_src // 3} if n_src % 3 == 0 else set())
    for lower, span in ((-1.0, 2.0), (0.3, 1.7)):
        for n_dst in sorted(n_dsts):
            got = _trig_eval_matrix(n_src, n_dst, lower, span)
            assert got.shape == (n_dst, n_src)
            np.testing.assert_allclose(got, _trig_eval_cosine_sum(n_src, n_dst, lower, span),
                                       rtol=0, atol=1e-13)


def test_resample_spectral_rejects_mismatched_boxes():
    a = Grid(dim=1, n0=8, lower=0.0, upper=1.0)
    b = Grid(dim=1, n0=4, lower=0.0, upper=2.0)
    with pytest.raises(InvalidInput):
        resample_spectral(Field.constant(a, 1.0), b)


def test_ring_profiles_shapes_and_range():
    g = Grid(dim=2, n0=40, lower=-1.0, upper=1.0)
    u, v = ring_profiles(g)
    # u high inside the ring, v high outside; both in (1, 2); sum == 3
    assert u.values.min() > 1.0 and u.values.max() < 2.0
    center = u.values[20, 20]
    corner = u.values[0, 0]
    assert center > 1.9 and corner < 1.1
    np.testing.assert_allclose(u.values + v.values, 3.0, rtol=1e-15)


def test_cubic_autocatalysis_system_laws():
    g = Grid(dim=2, n0=10, lower=-1.0, upper=1.0)
    s1 = cubic_autocatalysis_system(g, alpha_exp=1)
    assert [sp.law.kind for sp in s1.species] == ["constant", "constant"]
    s2 = cubic_autocatalysis_system(g, alpha_exp=2)
    assert [sp.law.kind for sp in s2.species] == ["power", "constant"]
    assert s2.species[0].law.alpha_exp == 2
    np.testing.assert_array_equal(s1.reaction.sigma, [-1.0, 1.0])


def test_write_convergence_csv(tmp_path):
    rows = [ConvergenceRow("a", 0.5, None), ConvergenceRow("b", 0.125, 2.0)]
    p = tmp_path / "conv.csv"
    write_convergence_csv(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "label,error,order"
    assert lines[1] == "a,0.5,"
    assert lines[2] == "b,0.125,2"


# ---------------------------------------------------------------- runners


SINGLE_RUN = """kind = single_run
species = u, v
grid.n0 = 8
reaction.alpha = 1, 0
reaction.beta = 0, 1
reaction.k_plus = 1
reaction.k_minus = 1
run.dt = 0.05
species.u.diffusion = constant
species.u.D = 0.2
species.u.ic = disk_in
species.v.ic = disk_out
"""


def test_run_ode_convergence_short(tmp_path):
    cfg = parse_config(_cfg(tmp_path, (
        "kind = ode_convergence\n"
        "ode.dt = 1/10, 1/20, 1/40\n"
        "ode.t_end = 0.5\n")))
    rows = run_ode_convergence(cfg, tmp_path / "out")
    assert len(rows) == 3
    assert rows[0].order is None
    assert rows[1].order == pytest.approx(2.0, abs=0.15)
    assert rows[2].order == pytest.approx(2.0, abs=0.08)
    assert (tmp_path / "out" / "ode_convergence.csv").exists()


def test_run_ode_convergence_rejects_other_kinds(tmp_path):
    cfg = parse_config(_cfg(tmp_path, "kind = energy_trace\n"))
    with pytest.raises(InvalidInput):
        run_ode_convergence(cfg)


def test_run_cauchy_convergence_rejects_threads_below_one(tmp_path):
    cfg = parse_config(_cfg(tmp_path, "kind = cauchy_convergence\n"))
    for threads in (0, -2):
        with pytest.raises(InvalidInput, match="threads"):
            run_cauchy_convergence(cfg, tmp_path / "out", threads=threads)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("runner, text, error", [
    (run_single, "kind = ode_convergence\n", InvalidInput),
    (run_energy_trace, "kind = energy_trace\ntrace.h = 0.3\n", InvalidConfig),
    (run_energy_trace, "kind = energy_trace\ntrace.t_end = 0.2\ntrace.snapshots = 0.1, 5\n",
     InvalidConfig),
    (run_single, SINGLE_RUN + "run.t_end = 0.2\nrun.snapshots = 5\n", InvalidConfig),
    (run_single, SINGLE_RUN.replace("grid.n0 = 8", "grid.n0 = 8\ngrid.dim = 1")
     + "run.t_end = 0.2\nrun.snapshots = 0.125\n", InvalidInput),
], ids=["kind", "h not tiling", "trace snapshot after t_end", "run snapshot after t_end",
        "snapshot off the step grid"])
def test_rejected_configs_create_no_output_directory(tmp_path, runner, text, error):
    """A runner makes every check on its config before it creates out_dir."""
    cfg = parse_config(_cfg(tmp_path, text))
    with pytest.raises(error):
        runner(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_energy_trace_small(tmp_path):
    cfg = parse_config(_cfg(tmp_path, (
        "kind = energy_trace\n"
        "trace.alpha_exp = 2\n"
        "trace.h = 1/10\n"
        "trace.dt = 1/10\n"
        "trace.t_end = 0.3\n"
        "trace.snapshots = 0.1, 0.3\n")))
    reports = run_energy_trace(cfg, tmp_path / "out")
    assert sorted(reports) == [2]
    rep = reports[2]
    assert np.all(np.diff(rep.energy) <= 1e-12 * np.abs(rep.energy[:-1]))
    for name in ("u", "v"):
        for t in ("0.1", "0.3"):
            assert (tmp_path / "out" / f"{name}_alpha2_t{t}.csv").exists()
    assert (tmp_path / "out" / "energy_alpha2.csv").exists()


def test_run_single_writes_report_and_snapshots(tmp_path):
    text = SINGLE_RUN + "run.t_end = 0.2\nrun.snapshots = 0.1\n"
    cfg = parse_config(_cfg(tmp_path, text))
    report = run_single(cfg, tmp_path / "out")
    assert report.times[-1] == pytest.approx(0.2)
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "u_t0.1.csv").exists()
    assert (tmp_path / "out" / "v_t0.1.csv").exists()


def test_run_single_explicit_U_matches_the_derived_one(tmp_path):
    """reaction.U equal to the law-of-mass-action U gives the same report, byte for byte."""
    text = (SINGLE_RUN.replace("reaction.beta = 0, 1", "reaction.beta = 0, 2")
            .replace("reaction.k_minus = 1", "reaction.k_minus = 2")
            + "run.t_end = 0.2\n")
    for name, extra in (("derived", ""), ("explicit", "reaction.U = 0, 0.34657359027997264\n")):
        cfg = parse_config(_cfg(tmp_path, text + extra, name=f"{name}.cfg"))
        assert cfg["reaction.U"] == (None if name == "derived" else [0.0, math.log(2.0) / 2])
        run_single(cfg, tmp_path / name)
    assert ((tmp_path / "derived" / "report.csv").read_bytes()
            == (tmp_path / "explicit" / "report.csv").read_bytes())


def test_runs_are_deterministic(tmp_path):
    text = ("kind = energy_trace\ntrace.alpha_exp = 1\ntrace.h = 1/10\n"
            "trace.dt = 1/10\ntrace.t_end = 0.2\ntrace.snapshots = 0.2\n")
    cfg = parse_config(_cfg(tmp_path, text))
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_energy_trace(cfg, a)
    run_energy_trace(cfg, b)
    for name in ("energy_alpha1.csv", "u_alpha1_t0.2.csv", "v_alpha1_t0.2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
