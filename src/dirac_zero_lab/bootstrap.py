"""Exact rational bookkeeping for the decay-improvement iteration.

Starting from f in the weighted space with exponent -3/2, each round gains
rho through multiplication by the potential and loses 1 through the inverse
operator, subject to the inverse operator's admissible window: it maps
exponent s to s - 1 only for s in (-1/2, 3/2).  The engine records every
step as an exact fraction, computes the last admissible round n0, and
reports the terminal decay statement.  No floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BootstrapStep",
    "BootstrapTrace",
    "map_weight_through_q",
    "map_weight_through_a",
    "bootstrap_trace",
]

START_EXPONENT = Fraction(-3, 2)
A_WINDOW_LOW = Fraction(-1, 2)
A_WINDOW_HIGH = Fraction(3, 2)
CLAMP_RHO = Fraction(5, 2)
TERMINAL_STATEMENT = (
    "f lies in the weighted space L^{2,mu} for every mu < 1/2, hence <x>^mu f is in H^1"
)


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact (int, Fraction or 'p/q' string), got float")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise TypeError(f"{name} must be rational, got {x!r}") from exc


def map_weight_through_q(s, rho) -> Fraction:
    """Multiplication by a <x>^{-rho}-bounded potential: exponent s gains rho."""
    s = _as_fraction(s, "s")
    rho = _as_fraction(rho, "rho")
    if rho <= 1:
        raise ValueError(f"decay exponent must exceed 1, got {rho}")
    return s + rho


def map_weight_through_a(s) -> Fraction:
    """The inverse operator: s -> s - 1, admissible only for s in (-1/2, 3/2)."""
    s = _as_fraction(s, "s")
    if not (A_WINDOW_LOW < s < A_WINDOW_HIGH):
        raise ValueError(
            f"exponent {s} is outside the admissible window ({A_WINDOW_LOW}, {A_WINDOW_HIGH}) "
            "for the inverse operator's weighted-space mapping"
        )
    return s - 1


@dataclass(frozen=True)
class BootstrapStep:
    n: int
    exponent: Fraction
    justification: str


@dataclass(frozen=True)
class BootstrapTrace:
    rho: Fraction  # the exponent actually iterated (after any clamping)
    requested_rho: Fraction
    clamped: bool
    steps: tuple[BootstrapStep, ...]
    n0: int
    terminal: str
    boundary_flag: bool

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(step.exponent for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "rho": [self.rho.numerator, self.rho.denominator],
            "requested_rho": [self.requested_rho.numerator, self.requested_rho.denominator],
            "clamped": self.clamped,
            "n0": self.n0,
            "boundary_flag": self.boundary_flag,
            "terminal": self.terminal,
            "steps": [
                {
                    "n": s.n,
                    "exponent": [s.exponent.numerator, s.exponent.denominator],
                    "justification": s.justification,
                }
                for s in self.steps
            ],
        }


def bootstrap_trace(rho) -> BootstrapTrace:
    """Full exact trace of the decay iteration for a rational rho > 1.

    rho >= 3 is clamped to 5/2 (a weaker envelope is still an envelope, and
    any rho in (2, 3) reaches the terminal statement in one round); the trace
    records the clamp.  n0 is the largest n whose next inverse-operator step
    is still admissible; boundary_flag marks the runs where the final gained
    exponent lands exactly on the window edge 3/2.
    """
    requested = _as_fraction(rho, "rho")
    if requested <= 1:
        raise ValueError(f"decay exponent must exceed 1, got {requested}")
    clamped = requested >= 3
    rho_used = CLAMP_RHO if clamped else requested

    steps = [BootstrapStep(0, START_EXPONENT, "hypothesis: f in L^{2,-3/2}")]
    s = START_EXPONENT
    n = 0
    while True:
        gained = map_weight_through_q(s, rho_used)
        if not (A_WINDOW_LOW < gained < A_WINDOW_HIGH):
            break
        s = map_weight_through_a(gained)
        n += 1
        steps.append(
            BootstrapStep(
                n,
                s,
                f"round {n}: potential multiplication gains {rho_used}, inverse operator loses 1",
            )
        )
    n0 = n
    final_gain = steps[-1].exponent + rho_used
    boundary = final_gain == A_WINDOW_HIGH
    if final_gain < A_WINDOW_HIGH:
        raise AssertionError("iteration stopped before exhausting the admissible window")
    return BootstrapTrace(
        rho=rho_used,
        requested_rho=requested,
        clamped=clamped,
        steps=tuple(steps),
        n0=n0,
        terminal=TERMINAL_STATEMENT,
        boundary_flag=boundary,
    )

