import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
    g = Grid(dim=2, n0=8, lower=-1.0, upper=1.0)
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
    for lower, upper in ((0, 2), (np.float64(0.0), np.int64(2)), (np.float32(0.0), 2.0)):
        g = Grid(dim=2, n0=4, lower=lower, upper=upper)  # any numbers.Real, stored as floats
        assert g.lower == (0.0, 0.0) and g.upper == (2.0, 2.0)
        assert all(type(b) is float for b in g.lower + g.upper)


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
        Grid(dim=2, n0=4, lower=(0.0, 0.0), upper=(1.0, 2.0))  # per-axis bounds
    with pytest.raises(InvalidInput):
        Grid(dim=2, n0=4, lower=(0.0,), upper=(1.0,))


@pytest.mark.parametrize("lower, upper", [
    ((0, 0), (1, 1 + 1e-13)),  # two spacings the old 1e-12 tolerance let through
    ((0, 5), (1, 6)),  # a shifted box, one spacing
    ([0.0], [1.0]),
    (np.array(0.0), 1.0),  # a 0-d array is not a number
    ("a", 1.0),
    (0.0, "1"),
    (None, 1.0),
], ids=["two spacings", "shifted box", "lists", "0-d array", "string", "string upper", "None"])
def test_grid_bounds_are_real_numbers(lower, upper):
    """The grid is the box [lower, upper]^dim: one spacing on every axis by construction."""
    with pytest.raises(InvalidInput, match="lower and upper must be real numbers"):
        Grid(dim=2, n0=4, lower=lower, upper=upper)


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
    for shape in ((4,), (4, 1), (1, 4), (2, 2, 1)):  # no reshape to the grid's (2, 2)
        with pytest.raises(InvalidInput, match=re.escape(f"field shape {shape} must match")):
            Field(Grid(dim=2, n0=2), np.ones(shape))


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
    g = Grid(dim=2, n0=16, lower=-1.0, upper=1.0)
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


def _header(lines, **tokens):
    """``lines`` with the header's ``key=value`` tokens replaced by ``tokens``."""
    meta = dict(tok.split("=", 1) for tok in lines[0][len("# grid "):].split())
    return ["# grid " + " ".join(f"{k}={v}" for k, v in {**meta, **tokens}.items())] + lines[1:]


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
    (lambda lines: _header(lines, lower="-1,0"), "malformed grid header"),
    (lambda lines: _header(lines, upper="1"), "malformed grid header"),
    (lambda lines: _header(lines, upper="1,1,1"), "malformed grid header"),
    (lambda lines: _header(lines, dim=3, lower="-1,-1,-1", upper="1,1,1"),
     "field.csv: dim must be 1 or 2, got 3"),
    (lambda lines: _header(lines, n0=0), "field.csv: n0 must be a positive integer, got 0"),
    (lambda lines: _header(lines, lower="1,1"), "field.csv: upper must exceed lower"),
    (lambda lines: _header(lines, n0=2 ** 31), "field.csv: 2147483648^2 cells do not fit"),
    (lambda lines: lines[:3] + ["0,2,0.5,0.5,nan"] + lines[4:],
     "field.csv:4: value 'nan' is not finite"),
    (lambda lines: lines[:3] + ["0,2,0.5,0.5,1e400"] + lines[4:],
     "field.csv:4: value '1e400' is not finite"),
    (lambda lines: lines[:3] + ["0,2,0.5,0.5,-inf"] + lines[4:],
     "field.csv:4: value '-inf' is not finite"),
    (lambda lines: _header(lines, n0=2 ** 30 - 1),
     "field.csv: 1152921502459363313 cells have no row, first (0, 4)"),
], ids=["cut short", "index past n0", "negative index", "repeated cell", "missing column",
        "bad value", "bad index", "header without lower", "header n0 not a number",
        "header token without =", "header with two boxes", "header with one bound",
        "header with three bounds", "header dim 3", "header n0 0", "header empty box",
        "header too many cells", "nan value", "overflowing value", "infinite value",
        "header of more cells than rows"])
def test_read_field_csv_rejects_all_but_one_row_per_cell(tmp_path, mangle, message):
    """A file cut short used to read back whatever np.empty held for the missing cells.
    Every refusal names the file: the grid's own and a non-finite value's included.
    A header of (2^30 - 1)^2 cells over 16 rows used to make numpy allocate 8 EiB
    (MemoryError); the reader now holds only the rows it has read."""
    p = _mangled_field_csv(tmp_path, mangle)
    with pytest.raises(InvalidInput, match=re.escape(message)) as info:
        read_field_csv(p)
    assert str(info.value).startswith(f"{p}:")


def test_read_field_csv_accepts_rows_in_any_order(tmp_path):
    p = _mangled_field_csv(tmp_path, lambda lines: lines[:1] + lines[:0:-1])
    np.testing.assert_array_equal(read_field_csv(p).values, np.arange(1.0, 17.0).reshape(4, 4))


def test_read_field_csv_header_lists_each_bound_once_per_axis(tmp_path):
    """The header format is unchanged: equal per-axis bounds, written and read back."""
    p = _mangled_field_csv(tmp_path, lambda lines: lines)
    assert p.read_text().splitlines()[0] == "# grid dim=2 n0=4 lower=-1,-1 upper=1,1"
    back = read_field_csv(_mangled_field_csv(tmp_path, lambda lines: _header(
        lines, lower="-1.0,-1", upper="1e0,1.00")))
    assert back.grid == Grid(dim=2, n0=4, lower=-1.0, upper=1.0)


_NOT_FINITE = hst.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"])


def _row_mangle(lines, data):
    """Mangle one data row of ``lines``, or the rows as a whole."""
    i = data.draw(hst.integers(1, len(lines) - 1))
    cols = lines[i].split(",")
    kind = data.draw(hst.sampled_from(["extra column", "dropped column", "not finite",
                                       "repeated", "missing", "shuffled", "bad index"]))
    if kind == "extra column":
        return lines[:i] + [lines[i] + ",0"] + lines[i + 1:]
    if kind == "dropped column":
        return lines[:i] + [",".join(cols[:-1])] + lines[i + 1:]
    if kind == "not finite":
        return lines[:i] + [",".join(cols[:-1] + [data.draw(_NOT_FINITE)])] + lines[i + 1:]
    if kind == "repeated":
        return lines + [lines[i]]
    if kind == "missing":
        return lines[:i] + lines[i + 1:]
    if kind == "shuffled":  # a valid file: rows may come in any order
        return lines[:1] + data.draw(hst.permutations(lines[1:]))
    cols[0] = data.draw(hst.sampled_from(["-1", "x", "1.5", str(10 ** 20), ""]))
    return lines[:i] + [",".join(cols)] + lines[i + 1:]


def _header_mangle(lines, dim, data):
    """One header token given a wrong count or value, or the header cut or extended.

    Each mangle leaves the header as written or makes it one the reader must refuse.
    """
    key = data.draw(hst.sampled_from(["dim", "n0", "lower", "upper", "cut", "stray"]))
    if key == "dim":
        return _header(lines, dim=data.draw(hst.sampled_from(["0", "3", "-1", "x", "1.0"])))
    if key == "n0":
        return _header(lines, n0=data.draw(hst.sampled_from(
            ["0", "-2", "x", "2.0", str(2 ** 61)] + [str(n) for n in range(1, 7)])))
    if key in ("lower", "upper"):
        meta = dict(tok.split("=", 1) for tok in lines[0][len("# grid "):].split())
        v, other = meta[key].split(",")[0], meta["upper" if key == "lower" else "lower"]
        return _header(lines, **{key: data.draw(hst.sampled_from([
            ",".join([v] * (dim + 1)), ",".join([v] * (dim - 1)),  # a bound too many, too few
            ",".join([v] + [v + "1"] * (dim - 1)),  # unequal bounds in 2-D
            ",".join(["nan"] * dim), ",".join(["inf"] * dim), other,  # no finite box
            "x", ";".join([v] * dim)]))})
    if key == "cut":  # the cut ends at or before the value of upper, the last token
        return [lines[0][:data.draw(hst.integers(0, lines[0].index(" upper=") + 7))]] + lines[1:]
    return [lines[0] + data.draw(hst.sampled_from([" stray", " note=1", " =", " dim"]))] + lines[1:]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dim=hst.sampled_from([1, 2]), n0=hst.integers(1, 4),
       box=hst.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-1.25, 0.75), (1e-3, 2.5e3)]),
       values=hst.lists(hst.floats(allow_nan=False, allow_infinity=False), min_size=16,
                        max_size=16),
       part=hst.sampled_from(["header", "rows", "bytes"]), data=hst.data())
def test_read_field_csv_returns_the_written_field_or_names_the_file(
        tmp_path_factory, dim, n0, box, values, part, data):
    """A written CSV, mangled, reads back bit for bit or raises InvalidInput that
    starts with the path; no other exception and no warning."""
    g = Grid(dim=dim, n0=n0, lower=box[0], upper=box[1])
    f = Field(g, np.array(values[:g.n_cells]).reshape(g.shape))
    p = tmp_path_factory.mktemp("csv") / "field.csv"
    write_field_csv(f, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    if part == "bytes":
        raw = "\n".join(lines).encode() + b"\n"
        at = data.draw(hst.integers(0, len(raw)))
        bad = data.draw(hst.sampled_from([b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80"]))
        p.write_bytes(raw[:at] + bad + raw[at:])
    else:
        lines = (_header_mangle(lines, dim, data) if part == "header"
                 else _row_mangle(lines, data))
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            back = read_field_csv(p)
        except InvalidInput as e:
            assert str(e).startswith(f"{p}:"), str(e)
        else:
            assert back.grid == g and back.values.tobytes() == f.values.tobytes()


def test_inner_product_requires_same_grid():
    f = Field.constant(Grid(dim=1, n0=4), 1.0)
    g = Field.constant(Grid(dim=1, n0=8), 1.0)
    with pytest.raises(InvalidInput):
        inner_product(f, g)


def test_inner_product_that_overflows_raises_invalid_input():
    """A pairing past the largest double used to warn 'overflow encountered in
    multiply' and return inf; the face pairing shares the check."""
    g = Grid(dim=1, n0=4, lower=-1.0, upper=1.0)
    f = Field.constant(g, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="L2 pairing overflows to inf"):
            inner_product(f, f)
        with pytest.raises(InvalidInput, match="L2 pairing overflows to inf"):
            face_inner_product(FaceField(g, 0, f.values), FaceField(g, 0, f.values))
        assert inner_product(f, Field.constant(g, 1e-308)) == pytest.approx(2.0, rel=1e-15)


# ------------------------------------------- the gates at every stage boundary

_EXCHANGE = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)


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
