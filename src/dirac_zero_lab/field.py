"""Periodic 3D grid, 4-spinor fields, Fourier transforms and norms.

The box is [-L, L)^3 sampled at N points per axis (N even), so x = 0 is a
lattice point and the frequency lattice is (pi/L) * {-N/2, ..., N/2 - 1}^3.
The transforms carry the continuum normalization (2 pi)^{-3/2}, which makes
analytic transforms (a unit Gaussian maps to a unit Gaussian) directly
comparable on well-resolved grids and makes Parseval exact on the lattice.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "POSITION",
    "FREQUENCY",
    "GridSpec",
    "SpinorField",
    "make_grid",
    "random_field",
    "forward_fourier",
    "inverse_fourier",
    "l2_norm",
    "sobolev_norm",
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
    _require_same_grid(f, g)
    if f.space != g.space:
        raise ValueError(f"space mismatch: {f.space} vs {g.space}")


def _require_same_grid(a, b) -> None:
    """``a`` and ``b`` (fields or potentials) live on one grid, else ValueError."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


def _require_space(f: SpinorField, space: str, reader: str) -> None:
    if f.space != space:
        raise ValueError(f"{reader} expects a {space}-space field")


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
    _require_space(f, POSITION, "forward_fourier")
    scale = f.grid.cell_volume / _TWO_PI_32
    return SpinorField(f.grid, _centered_transform(np.fft.fftn, f.values, scale), FREQUENCY)


def inverse_fourier(fhat: SpinorField) -> SpinorField:
    """Inverse of :func:`forward_fourier`; round trip is the identity."""
    _require_space(fhat, FREQUENCY, "inverse_fourier")
    g = fhat.grid
    scale = g.npoints * g.freq_cell_volume / _TWO_PI_32
    return SpinorField(g, _centered_transform(np.fft.ifftn, fhat.values, scale), POSITION)


_SHARED_MIN = 1 << 15  # elements of a pass below which it runs serially: sharing broke even near N = 24 on 2 cores
_BLOCK = 8  # lines of the split axis in one block
_helper = None  # the one helper thread (a ThreadPoolExecutor), started by the first shared pass
_helper_lock = threading.Lock()
_on_helper = threading.local()


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_blocks(job, length: int, size: int) -> None:
    """Call ``job`` on slices covering ``range(length)``: one if ``size < _SHARED_MIN``, else blocks.

    ``size`` is the pass's element count, and a block is ``_BLOCK`` lines.  On two or more allowed
    CPUs a blocked pass is shared: the caller works through the blocks, and one helper thread pulls
    from the same iterator whenever it gets a CPU, in a copy of the caller's context (numpy's
    ``errstate`` is a context variable).  The caller never waits for a job that has not started,
    only for the block the helper is running, so a busy helper costs about a serial pass; and the
    helper runs its own passes serially, so it never waits for itself.  Jobs, and the kernels they
    call, run private numpy passes and call no public function: the benchmark's tracer keeps one
    call stack, and a traced call on the helper thread would break its nesting.
    """
    step = length if size < _SHARED_MIN else _BLOCK
    blocks = iter([slice(i, i + step) for i in range(0, length, step)])
    if size < _SHARED_MIN or getattr(_on_helper, "active", False) or _allowed_cpus() < 2:
        for b in blocks:
            job(b)
        return
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            job(b)

    future = _helper_pool().submit(contextvars.copy_context().run, drain)
    try:
        drain()
    finally:
        if not future.cancel():
            future.result()


def _helper_pool():
    """The helper thread's executor, started on first use; its thread marks itself in ``_on_helper``."""
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # here, not at import: it loads logging

            _helper = ThreadPoolExecutor(1, initializer=setattr, initargs=(_on_helper, "active", True))
        return _helper


def _scratch(store: threading.local, shape: tuple, dtype) -> np.ndarray:
    """This thread's byte buffer in ``store`` as a ``shape`` array of ``dtype``, grown if too small.

    A new buffer per block would page-fault; one buffer serves every pass of a call, whatever its dtype.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if getattr(store, "buf", None) is None or store.buf.size < nbytes:
        store.buf = np.empty(nbytes, np.uint8)
    return store.buf[:nbytes].view(dtype).reshape(shape)


def _padded_kernel_fft(grid: GridSpec, kernel, real: bool) -> np.ndarray:
    """``rfftn`` (``real``) or ``fftn`` of a real kernel on the padded (2N)^3 offsets, z = 0 zeroed.

    Per block of axis-0 planes, ``kernel(z, r2)`` gets the block's broadcast offsets
    z = h * {0, ..., N-1, -N, ..., -1} (FFT order) and this thread's scratch of |z|^2,
    1 at z = 0, and returns the table block (``r2`` or a new array), whose z = 0 entry
    is then zeroed: every convolution omits y = x.  ``kernel`` may run on the helper
    thread, so it calls no public function (:func:`_in_blocks`).  No (2N)^3 table is
    built; the transform is numpy's bit for bit, axis order (2, 1, 0).
    """
    n = 2 * grid.N
    z0, z1, z2 = _coords(np.fft.ifftshift(grid.h * np.arange(-grid.N, grid.N, dtype=float)))
    spec = np.empty((n, n, n // 2 + 1 if real else n), np.complex128)
    scratch = threading.local()

    def planes(b):
        z = (z0[b], z1, z2)
        r2 = _scratch(scratch, (len(z[0]), n, n), float)
        r2[...] = z[0] ** 2 + z[1] ** 2  # summed as _squared_norm sums, without its new array
        r2 += z[2] ** 2
        origin = z[0][:, 0, 0] == 0.0  # the block's plane z[0] = 0, if it has it
        r2[origin, 0, 0] = 1.0
        table = kernel(z, r2)
        table[origin, 0, 0] = 0.0
        (np.fft.rfft if real else np.fft.fft)(table, axis=2, out=spec[b])
        np.fft.fft(spec[b], axis=1, out=spec[b])

    _in_blocks(planes, n, spec.size)
    _in_blocks(lambda cols: np.fft.fft(spec[:, cols], axis=0, out=spec[:, cols]), n, spec.size)
    return spec


def _padded_convolve(values: np.ndarray, apply_kernel, weight: np.ndarray | None = None) -> np.ndarray:
    """Exact linear convolution sum_{y in box} K[x - y] values[y] by zero padding.

    The box is on the leading three axes; complex input may add a spinor axis.
    ``weight``, an (N, N, N) array or None, multiplies the input first: the
    product ``weight * values`` is formed per block of planes in the forward
    pass, so no full-size weighted copy is made.  ``apply_kernel(spec, cols)``
    multiplies the axis-1 columns ``cols`` of the (2N)^3 spectrum (``rfftn``
    layout for real input, else ``fftn``) by the kernel's transform and
    returns the product.  Both dtypes take one path, with ``rfft``/``irfft``
    or ``fft``/``ifft`` on axis 2: axes 2 and 1 fill an (N, 2N, N+1 or 2N) half
    spectrum from the N input rows and planes, axis 0 runs on padded blocks of
    its columns, and each plane is then inverted on axis 1, cropped, and
    inverted on axis 2 into its thread's line scratch, whose first N points go
    to the result.  The result is a new C-contiguous (N, N, N[, w]) array.
    The forward order is (2, 1, 0) and the inverse (0, 1, 2), as in ``rfftn``
    and ``irfftn``.  Each 1-D line is transformed once, on the same data and
    in that order, whatever block or thread (:func:`_in_blocks`) holds it, so
    the result is bit-identical to full padding, transforming in full and
    cropping, whatever the CPU count.
    """
    N = values.shape[0]
    n = 2 * N
    real = not np.iscomplexobj(values)
    forward, inverse, last = (np.fft.rfft, np.fft.irfft, N + 1) if real else (np.fft.fft, np.fft.ifft, n)
    trailing = values.shape[3:]
    half = np.empty((N, n, last) + trailing, np.complex128)  # transformed on axes 2 and 1, not yet padded on 0
    out = np.empty(values.shape, float if real else complex)
    scratch = threading.local()  # per thread: weighted input planes, a padded column block, then inverted lines

    def forward_planes(b):
        src = values[b]
        if weight is not None:
            w = weight[b][(...,) + (None,) * len(trailing)]
            src = np.multiply(w, src, out=_scratch(scratch, src.shape, out.dtype))
        forward(src, n=n, axis=2, out=half[b, :N])
        half[b, N:] = 0.0
        np.fft.fft(half[b], axis=1, out=half[b])

    def columns(cols):
        src = half[:, cols]
        block = _scratch(scratch, (n,) + src.shape[1:], np.complex128)
        block[:N] = src
        block[N:] = 0.0
        block = apply_kernel(np.fft.fft(block, axis=0, out=block), cols)
        src[...] = np.fft.ifft(block, axis=0, out=block)[:N]

    def inverse_planes(b):
        np.fft.ifft(half[b], axis=1, out=half[b])
        full = _scratch(scratch, (len(out[b]), N, n) + trailing, out.dtype)
        out[b] = inverse(half[b, :N], n=n, axis=2, out=full)[:, :, :N]

    for job, length in ((forward_planes, N), (columns, n), (inverse_planes, N)):
        _in_blocks(job, length, half.size)
    return out


def _pointwise_square(values: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(values) ** 2, axis=-1)


def l2_norm(f: SpinorField) -> float:
    """Plain L^2 norm with the lattice measure of the field's space."""
    return float(np.sqrt(np.sum(_pointwise_square(f.values)) * f._measure()))


def sobolev_norm(f: SpinorField, s: float) -> float:
    """|| <xi>^s (F f) ||_2, the H^s norm of a position-space field."""
    _require_space(f, POSITION, "sobolev_norm")
    fhat = forward_fourier(f)
    weight = (1.0 + f.grid.freq_radius2) ** s  # <xi>^{2s}
    total = np.sum(weight * _pointwise_square(fhat.values)) * f.grid.freq_cell_volume
    return float(np.sqrt(total))


def restrict_to_subbox(f: SpinorField) -> SpinorField:
    """Restrict to the centered sub-box of half-width L / 2 (same spacing)."""
    _require_space(f, POSITION, "restrict_to_subbox")
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
