"""Periodic 3D grid, 4-spinor fields, Fourier transforms and norms.

The box is [-L, L)^3 sampled at N points per axis (N even), so x = 0 is a
lattice point and the frequency lattice is (pi/L) * {-N/2, ..., N/2 - 1}^3.
The transforms carry the continuum normalization (2 pi)^{-3/2}, which makes
analytic transforms (a unit Gaussian maps to a unit Gaussian) directly
comparable on well-resolved grids and makes Parseval exact on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "POSITION",
    "FREQUENCY",
    "GridSpec",
    "SpinorField",
    "ShellProfile",
    "make_grid",
    "random_field",
    "forward_fourier",
    "inverse_fourier",
    "l2_norm",
    "sobolev_norm",
    "shell_profile",
    "restrict_to_subbox",
    "save_field",
    "load_field",
]

POSITION = "position"
FREQUENCY = "frequency"

_TWO_PI_32 = (2.0 * np.pi) ** 1.5


def _coords(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three lattice coordinates on the 1-D axis ``ax``, as (N, 1, 1), (1, N, 1) and
    (1, 1, N) views that broadcast to the box: no (N, N, N, 3) mesh is built."""
    return ax[:, None, None], ax[None, :, None], ax[None, None, :]


def _squared_norm(c) -> np.ndarray:
    """c1^2 + c2^2 + c3^2 of three broadcast coordinates, as a new (N, N, N) array."""
    return c[0] ** 2 + c[1] ** 2 + c[2] ** 2


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic lattice: half-width L, N points per axis, spacing h = 2L/N.

    Immutable, so the cached coordinate arrays always belong to (L, N).
    """

    L: float
    N: int

    def __post_init__(self):
        L, N = float(self.L), self.N
        if not np.isfinite(L) or L <= 0:
            raise ValueError(f"box half-width must be positive, got {L}")
        if int(N) != N or N % 2 != 0 or N < 4:
            raise ValueError(f"points per axis must be an even integer >= 4, got {N}")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "N", int(N))
        try:  # a float power raises OverflowError where numpy would return inf
            volumes = (self.cell_volume, self.freq_cell_volume)
        except OverflowError:
            volumes = (np.inf,)
        if not all(0.0 < v < np.inf for v in volumes):
            raise ValueError(f"grid (L={L}, N={N}) has a cell volume h^3 or (pi/L)^3 that is not finite and positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def freq_step(self) -> float:
        return np.pi / self.L

    @property
    def npoints(self) -> int:
        return self.N**3

    @property
    def cell_volume(self) -> float:
        return self.h**3

    @property
    def freq_cell_volume(self) -> float:
        return self.freq_step**3

    @cached_property
    def axis(self) -> np.ndarray:
        return self.h * np.arange(-self.N // 2, self.N // 2, dtype=float)

    @cached_property
    def freq_axis(self) -> np.ndarray:
        return self.freq_step * np.arange(-self.N // 2, self.N // 2, dtype=float)

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lattice coordinates x1, x2, x3, broadcastable to (N, N, N)."""
        return _coords(self.axis)

    @cached_property
    def radius2(self) -> np.ndarray:
        r2 = _squared_norm(self.coords)
        r2.setflags(write=False)
        return r2

    @cached_property
    def freq_radius2(self) -> np.ndarray:
        r2 = _squared_norm(_coords(self.freq_axis))
        r2.setflags(write=False)
        return r2

    @cached_property
    def bracket(self) -> np.ndarray:
        """<x> = (1 + |x|^2)^{1/2} on the lattice."""
        b = np.sqrt(1.0 + self.radius2)
        b.setflags(write=False)
        return b

    @property
    def origin_index(self) -> tuple[int, int, int]:
        i = self.N // 2
        return (i, i, i)


make_grid = GridSpec  # the validating constructor under a second name, which bench/run.py calls


@dataclass
class SpinorField:
    """A C^4-valued lattice field, tagged with the space it lives in."""

    grid: GridSpec
    values: np.ndarray
    space: str = POSITION

    def __post_init__(self):
        expected = (self.grid.N, self.grid.N, self.grid.N, 4)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != expected:
            raise ValueError(f"field values must have shape {expected}, got {vals.shape}")
        if self.space not in (POSITION, FREQUENCY):
            raise ValueError(f"unknown space tag {self.space!r}")
        self.values = vals

    def _measure(self) -> float:
        return self.grid.cell_volume if self.space == POSITION else self.grid.freq_cell_volume

    def __add__(self, other: "SpinorField") -> "SpinorField":
        _check_compatible(self, other)
        return SpinorField(self.grid, self.values + other.values, self.space)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        _check_compatible(self, other)
        return SpinorField(self.grid, self.values - other.values, self.space)

    def __mul__(self, scalar) -> "SpinorField":
        return SpinorField(self.grid, self.values * scalar, self.space)

    __rmul__ = __mul__


def _check_compatible(f: SpinorField, g: SpinorField) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    if f.space != g.space:
        raise ValueError(f"space mismatch: {f.space} vs {g.space}")


def random_field(
    grid: GridSpec,
    seed: int,
    band_limit: float | None = None,
    mean_zero: bool = False,
) -> SpinorField:
    """Seeded random field; optionally band-limited to |xi| <= band_limit and mean-free."""
    rng = np.random.default_rng(seed)
    shape = (grid.N, grid.N, grid.N, 4)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if band_limit is not None:
        mask = grid.freq_radius2 <= band_limit**2
        spec = spec * mask[..., None]
    if mean_zero:
        spec[grid.origin_index] = 0.0
    fhat = SpinorField(grid, spec, FREQUENCY)
    return inverse_fourier(fhat)


def _centered_transform(transform, values: np.ndarray, scale: float) -> np.ndarray:
    """``transform`` (fftn or ifftn) over the box axes in the centered layout, times ``scale``."""
    axes = (0, 1, 2)
    buf = np.fft.ifftshift(values, axes=axes)
    out = np.fft.fftshift(transform(buf, axes=axes, out=buf), axes=axes)
    out *= scale
    return out


def forward_fourier(f: SpinorField) -> SpinorField:
    """Continuum-normalized transform: (2 pi)^{-3/2} h^3 sum_x f(x) e^{-i x.xi}."""
    if f.space != POSITION:
        raise ValueError("forward_fourier expects a position-space field")
    scale = f.grid.cell_volume / _TWO_PI_32
    return SpinorField(f.grid, _centered_transform(np.fft.fftn, f.values, scale), FREQUENCY)


def inverse_fourier(fhat: SpinorField) -> SpinorField:
    """Inverse of :func:`forward_fourier`; round trip is the identity."""
    if fhat.space != FREQUENCY:
        raise ValueError("inverse_fourier expects a frequency-space field")
    g = fhat.grid
    scale = g.npoints * g.freq_cell_volume / _TWO_PI_32
    return SpinorField(g, _centered_transform(np.fft.ifftn, fhat.values, scale), POSITION)


def _padded_offsets(grid: GridSpec) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Offset axes h * {0, ..., N-1, -N, ..., -1} of the padded (2N)^3 lattice
    (FFT order, broadcastable), and |z|^2 with its z = 0 entry set to 1."""
    N = grid.N
    z = _coords(np.fft.ifftshift(grid.h * np.arange(-N, N, dtype=float)))
    r2 = _squared_norm(z)
    r2[0, 0, 0] = 1.0
    return z, r2


def _padded_convolve(values: np.ndarray, N: int, apply_kernel) -> np.ndarray:
    """Exact linear convolution sum_{y in box} K[x - y] values[y] by zero padding.

    The box is on the leading three axes; ``apply_kernel`` multiplies the
    (2N)^3 spectrum (``rfftn`` layout for real input, else ``fftn``) by the
    kernel's transform and returns the product.  The transforms are pruned:
    forward, axis 2 runs on only the N^2 input rows and axis 1 on only the N
    nonzero planes; inverse, each axis runs in place and is cropped to N before
    the next.  That runs 7/12 of the full pair's length-2N transforms (1/2 for
    real input), in one spectrum buffer and no (2N)^3 pad.  The axes run in
    numpy's order (``irfftn``: 0, 1, 2; ``ifftn``: 2, 1, 0), so the result is
    bit-identical to padding, transforming in full and cropping.
    """
    n = 2 * N
    real = not np.iscomplexobj(values)
    rows = (np.fft.rfft if real else np.fft.fft)(values, n=n, axis=2)
    spec = np.empty((n, n) + rows.shape[2:], np.complex128)
    np.fft.fft(rows, n=n, axis=1, out=spec[:N])
    del rows
    spec[N:] = 0.0
    conv = apply_kernel(np.fft.fft(spec, axis=0, out=spec))
    for axis in (0, 1) if real else (2, 1, 0):
        np.fft.ifft(conv, axis=axis, out=conv)
        conv = conv[(slice(None),) * axis + (slice(N),)]
    return np.fft.irfft(conv, n=n, axis=2)[:, :, :N] if real else conv


def _pointwise_square(values: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(values) ** 2, axis=-1)


def l2_norm(f: SpinorField) -> float:
    """Plain L^2 norm with the lattice measure of the field's space."""
    return float(np.sqrt(np.sum(_pointwise_square(f.values)) * f._measure()))


def sobolev_norm(f: SpinorField, s: float) -> float:
    """|| <xi>^s (F f) ||_2, the H^s norm of a position-space field."""
    if f.space != POSITION:
        raise ValueError("sobolev_norm expects a position-space field")
    fhat = forward_fourier(f)
    weight = (1.0 + f.grid.freq_radius2) ** s  # <xi>^{2s}
    total = np.sum(weight * _pointwise_square(fhat.values)) * f.grid.freq_cell_volume
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ShellProfile:
    """Per-shell L^2 masses m_k = sum_{R_k <= |x| < R_{k+1}} |f|^2 h^3."""

    edges: tuple[float, ...]
    masses: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def empty_shells(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.counts) if c == 0)

    @property
    def radii(self) -> tuple[float, ...]:
        """Geometric-mean representative radius per shell."""
        return tuple(
            float(np.sqrt(a * b)) for a, b in zip(self.edges[:-1], self.edges[1:])
        )


def shell_profile(f: SpinorField, shell_edges) -> ShellProfile:
    """L^2 mass of f between consecutive radii.  Empty shells are flagged."""
    if f.space != POSITION:
        raise ValueError("shell_profile expects a position-space field")
    edges = [float(e) for e in shell_edges]
    if len(edges) < 2:
        raise ValueError("need at least two shell edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("shell edges must be strictly increasing")
    if edges[0] < 0:
        raise ValueError("shell edges must be nonnegative")
    rmax = f.grid.L * np.sqrt(3.0)
    if edges[-1] > rmax * (1 + 1e-12):
        raise ValueError(f"outermost edge {edges[-1]} exceeds the box corner radius {rmax:.6g}")
    r = np.sqrt(f.grid.radius2)
    density = _pointwise_square(f.values)
    masses, counts = [], []
    for a, b in zip(edges, edges[1:]):
        mask = (r >= a) & (r < b)
        counts.append(int(np.count_nonzero(mask)))
        masses.append(float(np.sum(density[mask]) * f.grid.cell_volume))
    return ShellProfile(edges=tuple(edges), masses=tuple(masses), counts=tuple(counts))


def restrict_to_subbox(f: SpinorField) -> SpinorField:
    """Restrict to the centered sub-box of half-width L / 2 (same spacing)."""
    if f.space != POSITION:
        raise ValueError("restrict_to_subbox expects a position-space field")
    N = f.grid.N
    if N % 4 != 0:
        raise ValueError(f"N={N} is not divisible by 4, so the half box has no even grid")
    lo, hi = N // 4, N // 4 + N // 2
    sub = f.values[lo:hi, lo:hi, lo:hi, :].copy()
    return SpinorField(GridSpec(f.grid.L / 2, N // 2), sub, POSITION)


# ---------------------------------------------------------------------------
# DZL1 field files: one ASCII header line, then little-endian (re, im) float64
# pairs in x-major / component-minor order.
# ---------------------------------------------------------------------------

_MAGIC = "DZL1"
_HEADER_KEYS = {"L": float, "N": int, "space": str, "components": int}  # key: type of its value


def _write_dzl1(path, L: float, N: int, space: str, values: np.ndarray, components: int) -> None:
    header = f"{_MAGIC} L={L!r} N={N} space={space} components={components}\n"
    flat = np.ascontiguousarray(values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(flat.tobytes())


def _read_dzl1(path, components: int) -> tuple[GridSpec, str, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.readline()
        payload = fh.read()
    try:
        text = raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"corrupt DZL1 header in {path}") from exc
    parts = text.split()
    if not parts or parts[0] != _MAGIC:
        raise ValueError(f"{path} is not a {_MAGIC} file: header {text!r}")
    fields = {}
    for token in parts[1:]:
        key, sep, val = token.partition("=")
        if not sep:
            raise ValueError(f"malformed DZL1 header token {token!r} in {path}: expected key=value")
        if key not in _HEADER_KEYS:
            raise ValueError(f"unknown key in DZL1 header token {token!r} in {path}; known: {', '.join(_HEADER_KEYS)}")
        if key in fields:
            raise ValueError(f"DZL1 header token {token!r} repeats the key {key!r} in {path}")
        try:
            fields[key] = _HEADER_KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"DZL1 header token {token!r} in {path}: {exc}") from None
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise ValueError(f"DZL1 header of {path} is missing the {missing[0]!r} key: {text!r}")
    L, N, space, ncomp = (fields[key] for key in _HEADER_KEYS)
    try:
        grid = GridSpec(L, N)
    except ValueError as exc:
        raise ValueError(f"DZL1 header of {path}: {exc}") from None
    if space not in (POSITION, FREQUENCY):
        raise ValueError(f"DZL1 header of {path}: unknown space tag {space!r}")
    if ncomp != components:
        raise ValueError(f"expected {components} components, {path} has {ncomp}")
    expected = N**3 * ncomp * 16
    if len(payload) != expected:
        raise ValueError(f"payload length {len(payload)} of {path} does not match header ({expected} bytes)")
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return grid, space, values


def save_field(f: SpinorField, path) -> None:
    _write_dzl1(path, f.grid.L, f.grid.N, f.space, f.values, components=4)


def load_field(path) -> SpinorField:
    grid, space, flat = _read_dzl1(path, components=4)
    return SpinorField(grid, flat.reshape(grid.N, grid.N, grid.N, 4), space)
