"""What one benchmark operation is, and how its outcome is judged."""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

# Absolute tolerance of every numeric output check.  The exact solvers agree
# with their oracles to ~1e-15; 1e-9 is the package's own feasibility
# tolerance (polytope.FEASIBILITY_TOL, core.MASS_SUM_TOL).
TOL = 1e-9


class WrongAnswer(Exception):
    """The operation returned, but its output failed the check."""


class OpError(Exception):
    """The operation exited or raised where it should have succeeded."""


class Op(NamedTuple):
    """One timed public call and the untimed check of its output.

    ``call`` must look up the ``ivbel`` function it times at call time (as a
    module attribute), so the traced run's wrappers see the call.  ``known``
    is part of the message of a documented defect: the op may fail with an
    :class:`OpError` carrying it without making the run incorrect.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known: str | None = None


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def close(a: float, b: float, what: str) -> None:
    require(abs(a - b) <= TOL, f"{what}: {a!r} != {b!r}")


def inside(value: float, lo: float, hi: float, what: str) -> None:
    require(lo - TOL <= value <= hi + TOL, f"{what}: {value!r} outside [{lo!r}, {hi!r}]")
