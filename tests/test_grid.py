import math
import re

import numpy as np
import pytest

from rdsplit import (
    DiffusionLaw,
    Field,
    FaceField,
    Grid,
    InvalidInput,
    PositivityViolation,
    ReactionSpec,
    SimState,
    Species,
    SystemSpec,
    average_to_faces,
    diffusion_energy,
    divergence,
    etd_step,
    face_inner_product,
    gradient,
    inner_product,
    laplacian,
    nonlinear_cn_step,
    reaction_stage,
    read_field_csv,
    semi_implicit_predictor,
    system_energy,
    weighted_divgrad,
    write_field_csv,
)
from rdsplit.grid import _divgrad


def test_grid_basics():
    g = Grid(dim=2, n0=8, lower=(-1.0, -1.0), upper=(1.0, 1.0))
    assert g.h == 0.25
    assert g.shape == (8, 8)
    assert g.n_cells == 64
    assert g.cell_volume == 0.0625
    x = g.axis_centers(0)
    assert x[0] == -1.0 + 0.125
    assert x[-1] == 1.0 - 0.125
    X, Y = g.centers()
    assert X.shape == (8, 8)
    # ij indexing: first index walks x
    assert np.all(X[:, 0] == x)
    assert np.all(Y[0, :] == g.axis_centers(1))


def test_grid_scalar_bounds_broadcast():
    g = Grid(dim=2, n0=4, lower=0.0, upper=2.0)
    assert g.lower == (0.0, 0.0)
    assert g.upper == (2.0, 2.0)


def test_grid_rejects_bad_input():
    with pytest.raises(InvalidInput):
        Grid(dim=3, n0=4)
    with pytest.raises(InvalidInput):
        Grid(dim=1, n0=0)
    with pytest.raises(InvalidInput):
        Grid(dim=1, n0=4, lower=1.0, upper=0.0)
    for lower, upper in ((math.nan, 1.0), (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(InvalidInput):  # not a finite span
            Grid(dim=1, n0=4, lower=lower, upper=upper)
    with pytest.raises(InvalidInput):
        Grid(dim=2, n0=4, lower=(0.0, 0.0), upper=(1.0, 2.0))  # unequal spacing
    with pytest.raises(InvalidInput):
        Grid(dim=2, n0=4, lower=(0.0,), upper=(1.0,))


@pytest.mark.parametrize("span", [1e-300, 1e300])
def test_grid_rejects_a_spacing_outside_the_double_range(span):
    """h^dim and 4/h^2 must be normal doubles: h = 2.5e-301 made 4/h^2 divide by
    zero, and h = 2.5e299 made h^2 raise OverflowError in cell_volume."""
    for dim in (1, 2):
        with pytest.raises(InvalidInput, match="leaves the double range"):
            Grid(dim=dim, n0=8, lower=-span, upper=span)
        inside = Grid(dim=dim, n0=8, lower=-span ** 0.5, upper=span ** 0.5)
        assert 0 < inside.cell_volume < math.inf


def test_grid_refuses_more_cells_than_one_array_holds():
    """A field is one float64 array, whose size numpy caps at the largest intp in bytes."""
    for n0 in (2 ** 30, np.int64(10 ** 10)):
        with pytest.raises(InvalidInput, match=f"{n0}\\^2 cells do not fit in one array"):
            Grid(dim=2, n0=n0)
    with pytest.raises(InvalidInput, match="do not fit"):
        Grid(dim=1, n0=2 ** 60)
    assert Grid(dim=2, n0=2 ** 30 - 1).n_cells == (2 ** 30 - 1) ** 2


def test_field_validation():
    g = Grid(dim=1, n0=4)
    f = Field(g, [1.0, 2.0, 3.0, 4.0])
    assert f.values.shape == (4,)
    with pytest.raises(InvalidInput):
        Field(g, [1.0, 2.0])
    with pytest.raises(InvalidInput):
        Field(g, [1.0, 2.0, np.nan, 4.0])
    f2 = Field(Grid(dim=2, n0=2), np.arange(4.0))  # flat input reshapes
    assert f2.values.shape == (2, 2)


def test_laplacian_1d_hand_computed():
    # unit box, n0=4, h=1/4: lap(e_0) = 16*(-2, 1, 0, 1)
    g = Grid(dim=1, n0=4)
    f = Field(g, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(laplacian(f).values, [-32.0, 16.0, 0.0, 16.0])


def test_gradient_divergence_adjoint():
    """Summation by parts: <div q, f> == -sum_ax <q_ax, grad_ax f>, exactly."""
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        g = Grid(dim=dim, n0=9, lower=-0.5, upper=1.7)
        f = Field(g, rng.standard_normal(g.shape))
        qs = [FaceField(g, ax, rng.standard_normal(g.shape)) for ax in range(dim)]
        lhs = inner_product(divergence(qs), f)
        rhs = -sum(face_inner_product(q, gradient(f, q.axis)) for q in qs)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_divergence_checks_flux_set():
    g = Grid(dim=2, n0=3)
    q0 = FaceField(g, 0, np.ones(g.shape))
    with pytest.raises(InvalidInput):
        divergence([q0])
    with pytest.raises(InvalidInput):
        divergence([q0, q0])
    with pytest.raises(InvalidInput):
        divergence([])


def test_laplacian_annihilates_constants_and_conserves_mass():
    rng = np.random.default_rng(11)
    g = Grid(dim=2, n0=16, lower=(-1.0, -1.0), upper=(1.0, 1.0))
    assert np.all(laplacian(Field.constant(g, 3.7)).values == 0.0)
    f = Field(g, rng.uniform(0.1, 2.0, g.shape))
    assert abs(np.sum(laplacian(f).values)) <= 1e-12 * np.sum(np.abs(f.values)) / g.h ** 2


def test_laplacian_second_order_on_smooth_data():
    errs = []
    for n0 in (32, 64):
        g = Grid(dim=1, n0=n0)
        f = Field.from_function(g, lambda x: np.sin(2 * np.pi * x))
        exact = -(2 * np.pi) ** 2 * f.values
        errs.append(np.max(np.abs(laplacian(f).values - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 1.9 <= order <= 2.1


def test_average_to_faces_midpoint():
    g = Grid(dim=1, n0=4)
    f = Field(g, [1.0, 3.0, 5.0, 7.0])
    faces = average_to_faces(f, 0)
    np.testing.assert_array_equal(faces.values, [2.0, 4.0, 6.0, 4.0])  # wraps at the end


def test_weighted_divgrad_quadratic_form_nonpositive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = Grid(dim=2, n0=7)
        f = Field(g, rng.standard_normal(g.shape))
        ws = [FaceField(g, ax, rng.uniform(0.0, 2.0, g.shape)) for ax in range(2)]
        form = inner_product(weighted_divgrad(ws, f), f)
        assert form <= 1e-12


def test_weighted_divgrad_symmetric_with_zero_cell_sum():
    """<L f, g> = <f, L g> and sum(L f) = 0: what CG and mass conservation rest on."""
    rng = np.random.default_rng(15)
    for dim in (1, 2):
        g = Grid(dim=dim, n0=7, lower=-1.0, upper=1.0)
        ws = [FaceField(g, ax, rng.uniform(0.1, 2.0, g.shape)) for ax in range(dim)]
        f = Field(g, rng.standard_normal(g.shape))
        u = Field(g, rng.standard_normal(g.shape))
        Lf, Lu = weighted_divgrad(ws, f), weighted_divgrad(ws, u)
        scale = g.cell_volume * np.sum(np.abs(f.values)) * np.sum(np.abs(u.values)) / g.h ** 2
        assert abs(inner_product(Lf, u) - inner_product(f, Lu)) <= 1e-14 * scale
        assert abs(np.sum(Lf.values)) <= 1e-14 * np.sum(np.abs(f.values)) / g.h ** 2


def test_weighted_divgrad_unit_weights_is_laplacian():
    rng = np.random.default_rng(6)
    g = Grid(dim=2, n0=6)
    f = Field(g, rng.standard_normal(g.shape))
    ws = [FaceField(g, ax, np.ones(g.shape)) for ax in range(2)]
    np.testing.assert_allclose(weighted_divgrad(ws, f).values, laplacian(f).values,
                               rtol=0, atol=1e-14)


def test_weighted_divgrad_is_divergence_of_weighted_gradient_bitwise():
    """The fused stencil keeps the operation order of div(w * grad f)."""
    rng = np.random.default_rng(16)
    for dim in (1, 2):
        g = Grid(dim=dim, n0=9, lower=-1.0, upper=1.0)
        f = Field(g, rng.standard_normal(g.shape))
        ws = [FaceField(g, ax, rng.uniform(0.1, 2.0, g.shape)) for ax in (1, 0)[-dim:]]
        composed = divergence([FaceField(g, w.axis, w.values * gradient(f, w.axis).values)
                               for w in ws])
        np.testing.assert_array_equal(weighted_divgrad(ws, f).values, composed.values)


def test_weighted_divgrad_matches_the_cg_kernel_bitwise():
    """The public operator, the dense oracle of the diffusion tests, is the CG's kernel."""
    rng = np.random.default_rng(17)
    for dim, n0 in [(1, 1), (1, 2), (1, 7), (1, 64), (2, 1), (2, 2), (2, 7), (2, 64)]:
        g = Grid(dim=dim, n0=n0, lower=-1.0, upper=1.0)
        f = Field(g, rng.standard_normal(g.shape))
        faces = [FaceField(g, ax, rng.uniform(0.1, 2.0, g.shape)) for ax in range(dim)]
        for ws in (faces, faces[::-1]):
            kernel = _divgrad([(w.axis, w.values) for w in ws], f.values, g.h)
            assert weighted_divgrad(ws, f).values.tobytes() == kernel.tobytes()


def test_field_csv_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    for dim in (1, 2):
        g = Grid(dim=dim, n0=5, lower=-1.25, upper=0.75)
        f = Field(g, rng.uniform(1e-8, 1e3, g.shape))
        p = tmp_path / f"f{dim}.csv"
        write_field_csv(f, p)
        rows = p.read_text().splitlines()[1:]
        assert len(rows) == g.n_cells
        assert rows[1] == ",".join([*(["0"] * (dim - 1)), "1",
                                    *(f"{x.flat[1]:.17g}" for x in g.centers()),
                                    f"{f.values.flat[1]:.17g}"])
        back = read_field_csv(p)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


def test_read_field_csv_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0.5,1.0\n")
    with pytest.raises(InvalidInput):
        read_field_csv(p)


def test_read_field_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"# grid dim=1 n0=1 lower=0 upper=1\n0,0.5,\xff\n")
    with pytest.raises(InvalidInput, match=re.escape(f"{p}: not UTF-8 text")):
        read_field_csv(p)


def _mangled_field_csv(tmp_path, mangle):
    """A 4x4 field's CSV with its lines passed through ``mangle``."""
    g = Grid(dim=2, n0=4, lower=-1.0, upper=1.0)
    p = tmp_path / "field.csv"
    write_field_csv(Field(g, np.arange(1.0, 17.0).reshape(g.shape)), p)
    p.write_text("\n".join(mangle(p.read_text().splitlines())) + "\n")
    return p


@pytest.mark.parametrize("mangle, message", [
    (lambda lines: lines[:-5], "5 cells have no row, first (2, 3)"),
    (lambda lines: lines[:3] + ["4,0,0.5,0.5,1.0"] + lines[4:], "outside the grid"),
    (lambda lines: lines[:3] + ["0,-1,0.5,0.5,1.0"] + lines[4:], "outside the grid"),
    (lambda lines: lines[:3] + [lines[2]] + lines[4:], "(0, 1) is outside the grid or repeated"),
    (lambda lines: lines[:3] + ["0,2,0.5,1.0"] + lines[4:], "expected 5 columns, got 4"),
    (lambda lines: lines[:3] + ["0,2,0.5,0.5,one"] + lines[4:], "field.csv:4"),
    (lambda lines: lines[:3] + ["0,x,0.5,0.5,1.0"] + lines[4:], "field.csv:4"),
    (lambda lines: [lines[0].replace(" lower=", " low=")] + lines[1:], "malformed grid header"),
    (lambda lines: [lines[0].replace("n0=4", "n0=four")] + lines[1:], "malformed grid header"),
    (lambda lines: [lines[0] + " stray"] + lines[1:], "malformed grid header"),
], ids=["cut short", "index past n0", "negative index", "repeated cell", "missing column",
        "bad value", "bad index", "header without lower", "header n0 not a number",
        "header token without ="])
def test_read_field_csv_rejects_all_but_one_row_per_cell(tmp_path, mangle, message):
    """A file cut short used to read back whatever np.empty held for the missing cells."""
    with pytest.raises(InvalidInput, match=re.escape(message)):
        read_field_csv(_mangled_field_csv(tmp_path, mangle))


def test_read_field_csv_accepts_rows_in_any_order(tmp_path):
    p = _mangled_field_csv(tmp_path, lambda lines: lines[:1] + lines[:0:-1])
    np.testing.assert_array_equal(read_field_csv(p).values, np.arange(1.0, 17.0).reshape(4, 4))


def test_inner_product_requires_same_grid():
    f = Field.constant(Grid(dim=1, n0=4), 1.0)
    g = Field.constant(Grid(dim=1, n0=8), 1.0)
    with pytest.raises(InvalidInput):
        inner_product(f, g)


# ------------------------------------------- the gates at every stage boundary

_EXCHANGE = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)


def _ones(grid):
    return Field.constant(grid, 1.0)


def _system(v0):
    return SystemSpec(v0.grid, [Species("u", DiffusionLaw.none(), _ones(v0.grid)),
                                Species("v", DiffusionLaw.none(), v0)], _EXCHANGE)


_POSITIVITY_GATES = {
    "etd_step": lambda f: etd_step(f, DiffusionLaw.constant(0.1), 0.1),
    "semi_implicit_predictor": lambda f: semi_implicit_predictor(
        f, DiffusionLaw.power(0.1, 2), 0.1),
    "nonlinear_cn_step": lambda f: nonlinear_cn_step(f, DiffusionLaw.power(0.1, 2), 0.1),
    "diffusion_energy": diffusion_energy,
    "system_energy": lambda f: system_energy(SimState(0.0, 0, [_ones(f.grid), f]),
                                             _system(_ones(f.grid))),
    "SystemSpec": _system,
    "reaction_stage": lambda f: reaction_stage([_ones(f.grid), f], _EXCHANGE, 0.1),
}


@pytest.mark.parametrize("gate", sorted(_POSITIVITY_GATES))
def test_every_positivity_gate_names_the_failing_cell(gate):
    f = _ones(Grid(dim=2, n0=4))
    f.values[2, 1] = 0.0
    with pytest.raises(PositivityViolation, match=re.escape("at cell (2, 1)") + "$"):
        _POSITIVITY_GATES[gate](f)


@pytest.mark.parametrize("gate", sorted(_POSITIVITY_GATES))
def test_every_positivity_gate_names_a_nan_cell(gate):
    """A NaN is refused where it is, not passed on: ``nan <= 0`` is false."""
    f = _ones(Grid(dim=2, n0=4))
    f.values[2, 1] = np.nan
    with pytest.raises(PositivityViolation, match=re.escape("at cell (2, 1)") + "$"):
        _POSITIVITY_GATES[gate](f)


def _faces(*grids):
    """One face field of ones per axis, axis k on ``grids[k]``."""
    return [FaceField(g, ax, np.ones(g.shape)) for ax, g in enumerate(grids)]


_GRID_CHECKS = {
    "reaction_stage": lambda a, b: reaction_stage([_ones(a), _ones(b)], _EXCHANGE, 0.1),
    "divergence": lambda a, b: divergence(_faces(a, b)),
    "weighted_divgrad": lambda a, b: weighted_divgrad(_faces(a, b), _ones(a)),
}


@pytest.mark.parametrize("operator", sorted(_GRID_CHECKS))
def test_operands_on_two_grids_are_rejected(operator):
    """Grids of one shape and different bounds: only the grid check can tell them apart."""
    with pytest.raises(InvalidInput, match="different grids"):
        _GRID_CHECKS[operator](Grid(dim=2, n0=4), Grid(dim=2, n0=4, upper=2.0))
