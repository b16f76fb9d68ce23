"""Uniform periodic cell-centered grids and mimetic difference operators.

All fields live at cell centers of a uniform grid on a periodic box in one
or two dimensions; every axis shares the same cell count and spacing. Face
quantities (averages, gradients, fluxes) are indexed so that the face at
``i + 1/2`` along an axis is stored at index ``i``. The divergence is the
exact negative adjoint of the gradient under the cell inner product, so
summation by parts holds to machine precision and ``div(grad)`` is the
standard 3-point (1D) or 5-point (2D) periodic Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PositivityViolation


@dataclass(frozen=True)
class Grid:
    """Uniform periodic cell-centered grid.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n0 : int
        Number of cells per axis (>= 1; every axis has the same count).
    lower, upper : float or tuple of float
        Domain bounds per axis. Scalars are broadcast to every axis. The
        spacing ``(upper - lower) / n0`` must be identical on all axes.
    """

    dim: int
    n0: int
    lower: tuple[float, ...] = 0.0
    upper: tuple[float, ...] = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInput(f"dim must be 1 or 2, got {self.dim}")
        if not isinstance(self.n0, (int, np.integer)) or self.n0 < 1:
            raise InvalidInput(f"n0 must be a positive integer, got {self.n0}")
        if 8 * int(self.n0) ** self.dim > np.iinfo(np.intp).max:  # float64 bytes of one field
            raise InvalidInput(f"{self.n0}^{self.dim} cells do not fit in one array")
        lo = self._as_axis_tuple(self.lower)
        hi = self._as_axis_tuple(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        spans = [hi[a] - lo[a] for a in range(self.dim)]
        if not all(0 < s < np.inf for s in spans):
            raise InvalidInput(f"upper must exceed lower by a finite span, got {lo} .. {hi}")
        h0 = spans[0] / self.n0
        for s in spans[1:]:
            if abs(s / self.n0 - h0) > 1e-12 * max(1.0, abs(h0)):
                raise InvalidInput("all axes must share the same cell spacing")
        try:  # the cell volume and the Laplacian's 4/h^2 must be normal doubles
            normal = all(np.finfo(float).tiny <= x < np.inf for x in (h0 ** self.dim, 4 / h0 ** 2))
        except (OverflowError, ZeroDivisionError):
            normal = False
        if not normal:
            raise InvalidInput(f"cell spacing {h0:g} leaves the double range")

    def _as_axis_tuple(self, v) -> tuple[float, ...]:
        if np.isscalar(v):
            return tuple(float(v) for _ in range(self.dim))
        t = tuple(float(x) for x in v)
        if len(t) != self.dim:
            raise InvalidInput(f"expected {self.dim} bounds, got {len(t)}")
        return t

    @property
    def h(self) -> float:
        """Cell spacing, identical on all axes."""
        return (self.upper[0] - self.lower[0]) / self.n0

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n0,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.n0 ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.lower[axis] + (np.arange(self.n0) + 0.5) * self.h

    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each shaped like a field.

        The arrays are meshgrids with ``indexing='ij'``: index ``i`` (first
        axis) walks the x coordinate, ``j`` (second axis, in 2D) the y coordinate.
        """
        return tuple(np.meshgrid(*(self.axis_centers(a) for a in range(self.dim)),
                                 indexing="ij"))


@dataclass
class Field:
    """Scalar field sampled at cell centers; values must all be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            if v.size == self.grid.n_cells:
                v = v.reshape(self.grid.shape)
            else:
                raise InvalidInput(
                    f"field shape {v.shape} incompatible with grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("field values must be finite")
        self.values = v

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at cell centers."""
        return cls(grid, fn(*grid.centers()))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def min(self) -> float:
        return float(self.values.min())


@dataclass
class FaceField:
    """Values on the faces normal to one axis; entry ``i`` sits at ``i + 1/2``."""

    grid: Grid
    axis: int
    values: np.ndarray

    def __post_init__(self):
        if not 0 <= self.axis < self.grid.dim:
            raise InvalidInput(f"axis {self.axis} out of range for dim {self.grid.dim}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidInput(
                f"face values shape {v.shape} must match grid shape {self.grid.shape}")
        self.values = v


def _check_same_grid(*operands) -> None:
    if any(x.grid != operands[0].grid for x in operands[1:]):
        raise InvalidInput("operands live on different grids")


def _check_positive(values: np.ndarray, grid: Grid, what: str) -> None:
    """PositivityViolation ``<what> at cell (i, j)``, first cell <= 0 or NaN of a field or rows."""
    if not values.min() > 0:  # min() propagates a NaN
        bad = ~(values.reshape(-1, grid.n_cells) > 0).all(axis=0)
        cell = tuple(int(k) for k in np.unravel_index(bad.argmax(), grid.shape))
        raise PositivityViolation(f"{what} at cell {cell}")


def _check_point(c, what: str) -> np.ndarray:
    """``c`` as a 1-D float array; PositivityViolation unless every entry has ``0 < c < inf``."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1 or not ((0 < c) & (c < np.inf)).all():
        raise PositivityViolation(f"{what} must be finite and strictly positive")
    return c


def inner_product(f: Field, g: Field) -> float:
    """Discrete L2 pairing ``h^dim * sum(f * g)`` over cells."""
    _check_same_grid(f, g)
    return f.grid.cell_volume * float(np.sum(f.values * g.values))


def face_inner_product(p: FaceField, q: FaceField) -> float:
    """Face analogue of :func:`inner_product`, same axis required."""
    if p.axis != q.axis:
        raise InvalidInput("face fields live on different face sets")
    return inner_product(p, q)


def average_to_faces(f: Field, axis: int) -> FaceField:
    """Arithmetic two-point mean onto the faces normal to ``axis``."""
    v = f.values
    return FaceField(f.grid, axis, 0.5 * (v + np.roll(v, -1, axis=axis)))


def gradient(f: Field, axis: int) -> FaceField:
    """Forward difference ``(f_{i+1} - f_i)/h`` onto faces normal to ``axis``."""
    v = f.values
    return FaceField(f.grid, axis, (np.roll(v, -1, axis=axis) - v) / f.grid.h)


def divergence(fluxes: list[FaceField]) -> Field:
    """Periodic divergence of one face flux per axis.

    Exact negative adjoint of :func:`gradient`:
    ``inner_product(divergence(q), f) == -sum_ax face_inner_product(q_ax, gradient(f, ax))``.
    """
    if not fluxes:
        raise InvalidInput("divergence needs one flux per axis")
    _check_same_grid(*fluxes)
    grid = fluxes[0].grid
    if len(fluxes) != grid.dim or sorted(q.axis for q in fluxes) != list(range(grid.dim)):
        raise InvalidInput("divergence needs exactly one flux per axis")
    out = np.zeros(grid.shape)
    for q in fluxes:
        out += (q.values - np.roll(q.values, 1, axis=q.axis)) / grid.h
    return Field(grid, out)


def laplacian(f: Field) -> Field:
    """``divergence(gradient(f))``: 3-point (1D) / 5-point (2D) periodic stencil."""
    return divergence([gradient(f, ax) for ax in range(f.grid.dim)])


def weighted_divgrad(weights: list[FaceField], f: Field) -> Field:
    """``div(m * grad f)`` with prescribed positive face weights ``m``.

    The associated quadratic form ``inner_product(weighted_divgrad(m, f), f)``
    equals ``-sum_ax face_inner_product(m * grad f, grad f)`` and is therefore
    nonpositive whenever all weights are nonnegative.
    """
    _check_same_grid(f, *weights)
    return divergence([FaceField(f.grid, w.axis, w.values * gradient(f, w.axis).values)
                       for w in weights])


def _divgrad(weights, v: np.ndarray, h: float) -> np.ndarray:
    """Unchecked :func:`weighted_divgrad` on arrays; ``(axis, face weights)`` pairs, summed in order."""
    out = np.zeros(v.shape)
    for axis, w in weights:
        flux = w * ((np.roll(v, -1, axis=axis) - v) / h)
        out += (flux - np.roll(flux, 1, axis=axis)) / h
    return out


def _face_sum(faces: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Per cell, the sum over axes of its two face weights, ``w + roll(w, 1)``."""
    return sum(w + np.roll(w, 1, axis=ax) for ax, w in faces)


def write_field_csv(f: Field, path) -> None:
    """Write a field snapshot as CSV.

    First line is a comment carrying the grid:
    ``# grid dim=<d> n0=<n> lower=<..> upper=<..>`` with comma-joined bounds,
    then one row per cell, ``i[,j],x[,y],value`` in row-major order, with 17
    significant digits so float64 values round-trip exactly.
    """
    g = f.grid
    lo = ",".join(f"{x:.17g}" for x in g.lower)
    hi = ",".join(f"{x:.17g}" for x in g.upper)
    lines = [f"# grid dim={g.dim} n0={g.n0} lower={lo} upper={hi}"]
    coords = g.centers()
    for idx in np.ndindex(g.shape):
        lines.append(",".join([*map(str, idx), *(f"{x[idx]:.17g}" for x in coords),
                               f"{f.values[idx]:.17g}"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_csv(path) -> Field:
    """Inverse of :func:`write_field_csv`; values round-trip bitwise.

    Every cell needs exactly one row. A file that is not UTF-8 text, a
    malformed header or row, an index outside the grid, a repeated cell or a
    missing one raises InvalidInput.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("# grid "):
                raise InvalidInput(f"{path}: missing grid header line")
            try:
                meta = dict(tok.split("=", 1) for tok in header[len("# grid "):].split())
                dim, n0 = int(meta["dim"]), int(meta["n0"])
                lower = tuple(float(x) for x in meta["lower"].split(","))
                upper = tuple(float(x) for x in meta["upper"].split(","))
            except (KeyError, ValueError) as e:
                raise InvalidInput(f"{path}: malformed grid header {header!r}") from e
            grid = Grid(dim=dim, n0=n0, lower=lower, upper=upper)
            values = np.empty(grid.shape)
            seen = np.zeros(grid.shape, dtype=bool)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != 2 * dim + 1:
                        raise ValueError(f"expected {2 * dim + 1} columns, got {len(parts)}")
                    idx = tuple(int(i) for i in parts[:dim])
                    if not all(0 <= i < n0 for i in idx) or seen[idx]:
                        raise ValueError(f"cell {idx} is outside the grid or repeated")
                    values[idx] = float(parts[-1])
                except ValueError as e:
                    raise InvalidInput(f"{path}:{lineno}: {e}") from e
                seen[idx] = True
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: not UTF-8 text ({e.reason})") from e
    if not seen.all():
        missing = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise InvalidInput(f"{path}: {int((~seen).sum())} cells have no row, first {missing}")
    return Field(grid, values)
