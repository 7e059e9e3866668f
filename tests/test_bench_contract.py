"""The benchmark's contract with the package, on grids of N = 8.

``bench/tracer.py`` wraps the public functions named in its ``EXPECTED``,
and ``bench/run.py`` calls the package directly in its microbenchmarks and
answer gates.  A name or keyword that a change removes would crash a
benchmark run, so these tests call each of them the way the benchmark does.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

from dirac_zero_lab import field, freeop, kernelnorm, potential, resonance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_public_function():
    tracer = _tracer()
    assert tracer.EXPECTED
    for name in tracer.EXPECTED:
        short, attr = name.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
        assert attr in getattr(module, "__all__", [attr]), name


def test_the_microbenchmark_calls_are_accepted():
    grid = field.make_grid(4.0, 8)
    f = field.random_field(grid, 1)
    assert field.inverse_fourier(field.forward_fourier(f)).values.shape == (8, 8, 8, 4)
    assert freeop.apply_a_spectral(f, warn_threshold=math.inf).values.shape == (8, 8, 8, 4)
    assert freeop.apply_a_quadrature(f).values.shape == (8, 8, 8, 4)
    Q = potential.loss_yau_potential(grid)
    matvec = freeop.apply_a_spectral(potential.apply_potential(Q, f), warn_threshold=math.inf)
    assert np.all(np.isfinite(matvec.values))
    spec = kernelnorm.NwKernelSpec(a=1, b=0.5, d=3, p=2)
    phi = np.random.default_rng(1).standard_normal((8, 8, 8))
    assert kernelnorm.nw_apply(spec, phi, grid).shape == (8, 8, 8)


def test_the_answer_gate_calls_are_accepted(tmp_path):
    grid = field.make_grid(4.0, 8)
    ly = potential.loss_yau(grid)
    field.save_field(ly.zero_mode, tmp_path / "eigenfield_0.dzl1")
    fields = [field.load_field(tmp_path / "eigenfield_0.dzl1")]
    reference = potential.loss_yau(fields[0].grid).zero_mode
    assert math.isclose(resonance.subspace_overlap(fields, reference), 1.0)
    assert potential.weyl_residual(ly.weyl_spinor, ly.vector_potential, grid) >= 0.0
