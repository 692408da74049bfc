"""Floating-point cross-checks of the exact invariants.

Samples points on the variety ``Gamma u^2 = delta``, integrates the
Liouville form along explicit torus-orbit loops, and counts Maslov winding
through the squared-determinant phase of an honest Lagrangian frame.
Only torus-orbit loops (the base point fixed) are realized; a doubled
class ``2v`` always closes, while ``v`` itself closes only when every
coordinate it flips vanishes at the base point.  The exact side of every
comparison is read off the system's ``saturated_gamma`` and ``delta``, as
the invariants read them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .families import FamilyRangeWarning, parse_family_spec
from .quadrics import QuadricSystem, quadrics_to_polytope
from .polytopes import VertexSet, enumerate_vertices


class OracleError(RuntimeError):
    """Numerical failure: no point found, frame degenerate, loop does not close."""


@dataclass(frozen=True)
class OracleConfig:
    """The oracle's tolerances and sample counts; every check reads ``DEFAULT_CONFIG``."""

    residual_tol: float = 1e-10
    area_rtol: float = 1e-8
    winding_turn_tol: float = 0.01
    newton_rounds: int = 8
    restarts: int = 5
    min_samples: int = 256
    max_samples: int = 1 << 16


DEFAULT_CONFIG = OracleConfig()

# samples per stacked determinant; one chunk of the largest frame (n = 21)
# is about 0.9 MB of complex matrices
_DET_CHUNK = 128


@dataclass(frozen=True)
class RPoint:
    u: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class TorusLoop:
    """A loop class in dual-basis coordinates; realized as phi(s) = s * (2v or v)."""

    coeffs: tuple[int, ...]
    doubled: bool = True
    samples: int = 0  # at least the count chosen from the winding bound


def _gamma_array(system: QuadricSystem) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in system.gamma])


def _delta_array(system: QuadricSystem) -> np.ndarray:
    return np.array([float(d) for d in system.delta])


def residuals(system: QuadricSystem, u: np.ndarray) -> np.ndarray:
    return _gamma_array(system) @ (np.asarray(u) ** 2) - _delta_array(system)


def _newton_polish(system: QuadricSystem, u: np.ndarray) -> np.ndarray:
    gamma = _gamma_array(system)
    delta = _delta_array(system)
    for _ in range(DEFAULT_CONFIG.newton_rounds):
        r = gamma @ (u ** 2) - delta
        if np.max(np.abs(r)) <= DEFAULT_CONFIG.residual_tol / 4:
            break
        jac = 2.0 * gamma * u
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        u = u - step
    return u


def _family_point(system: QuadricSystem, family: str) -> np.ndarray:
    """The square roots of the family presentation's slacks at the origin."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        poly = parse_family_spec(family)
    if poly.n != system.n:
        raise OracleError(
            f"family hint {family!r} has {poly.n} inequalities, the system {system.n}"
        )
    return np.sqrt(np.array([float(b) for b in poly.offsets]))


def sample_point(
    system: QuadricSystem,
    family: str | None = None,
    seed: int = 0,
    vertex_set: VertexSet | None = None,
) -> RPoint:
    """A point of the variety, deterministic for a fixed seed.

    With a family spec (as ``families.family_spec`` names it) the square
    roots of that presentation's slacks at the origin are the exact point.
    Otherwise ``u^2`` is a seeded convex combination of the vertices' exact
    slack vectors, which lies in the variety's slack polytope
    ``Gamma s = delta, s >= 0``, and Newton refinement removes the
    square-root rounding.  ``vertex_set`` is the ``enumerate_vertices`` result
    of a presentation of ``system`` (its slack vectors do not depend on the
    presentation), enumerated on ``quadrics_to_polytope(system)`` when not
    given.  A system with no quadrics (m = 0) is refused: it has no torus,
    so there is no loop to check.
    """
    if not system.m:
        raise OracleError("the system has no quadrics (m = 0): no torus and no loop to check")
    if not family:
        if vertex_set is None:
            vertex_set = enumerate_vertices(quadrics_to_polytope(system))
        if not vertex_set.vertices:
            raise OracleError("the variety is empty or has no usable polytope point")
        # int / int is correctly rounded, as float(Fraction) is
        slacks = np.array([[x / v.den for x in v.slacks] for v in vertex_set.vertices])
        rng = np.random.default_rng(seed)
        for _ in range(DEFAULT_CONFIG.restarts):
            weights = rng.random(len(slacks))
            u = _newton_polish(system, np.sqrt(weights / weights.sum() @ slacks))
            r = residuals(system, u)
            if np.max(np.abs(r)) <= DEFAULT_CONFIG.residual_tol:
                return RPoint(u, r)
        raise OracleError(f"Newton refinement stalled at residual {np.max(np.abs(r)):.2e}")
    u = _newton_polish(system, _family_point(system, family))
    r = residuals(system, u)
    if np.max(np.abs(r)) > DEFAULT_CONFIG.residual_tol:
        raise OracleError(f"residual {np.max(np.abs(r)):.2e} above tolerance")
    return RPoint(u, r)


@dataclass(frozen=True)
class _LoopData:
    """The exact data of a realized loop class w, read off ``Gamma``."""

    pairings: np.ndarray  # n_j = <w, gamma_j>
    maslov: int  # <w, t>, doubled for a doubled loop
    area_samples: int  # the quadrature's sample count
    winding_samples: int  # the winding's first sample count


def _sample_counts(loop: TorusLoop, pairings: list[int]) -> tuple[int, int]:
    """The first sample counts of the area quadrature and of the winding.

    Each is at least ``loop.samples`` and ``min_samples``, and at least the
    floor the loop's pairings set: 64 samples per turn of the fastest
    coordinate for the quadrature, 8 per turn of every coordinate for the
    winding.  Both build arrays of n x samples entries, so a floor above
    ``max_samples``, the cap on ``--samples``, is refused.
    """
    factor = 2 if loop.doubled else 1
    area_floor = 64 * (1 + factor * max(map(abs, pairings), default=0))
    winding_floor = 16 + 8 * factor * sum(map(abs, pairings))
    floor = max(area_floor, winding_floor)
    if floor > DEFAULT_CONFIG.max_samples:
        raise OracleError(
            f"loop ({','.join(map(str, loop.coeffs))}) needs {floor} samples, "
            f"above the cap of {DEFAULT_CONFIG.max_samples}"
        )
    least = max(loop.samples, DEFAULT_CONFIG.min_samples)
    return max(least, area_floor), max(least, winding_floor)


def _loop_data(system: QuadricSystem, loop: TorusLoop) -> _LoopData:
    """Refuses a loop whose sample floor is above the cap before any float is formed."""
    gamma = system.saturated_gamma
    if len(loop.coeffs) != system.m:
        raise OracleError("loop coefficients do not match the torus rank")
    pairings = [sum(c * row[j] for c, row in zip(loop.coeffs, gamma)) for j in range(system.n)]
    samples = _sample_counts(loop, pairings)
    factor = 2 if loop.doubled else 1
    return _LoopData(np.array(pairings, dtype=float), factor * sum(pairings), *samples)


def _check_closure(loop: TorusLoop, pairings: np.ndarray, u: np.ndarray):
    if loop.doubled:
        return
    odd = (np.abs(pairings) % 2).astype(bool)
    if np.any(np.abs(u[odd]) > 1e-8):
        raise OracleError(
            "loop does not close at this base point: a flipped coordinate is nonzero"
        )


def loop_area(system: QuadricSystem, loop: TorusLoop, point: RPoint) -> float:
    """Liouville-form integral along the realized loop by composite quadrature."""
    data = _loop_data(system, loop)
    pairings = data.pairings
    u = point.u
    _check_closure(loop, pairings, u)
    factor = 2.0 if loop.doubled else 1.0
    samples = data.area_samples
    s = (np.arange(samples) + 0.5) / samples
    theta = math.pi * factor * np.outer(pairings, s)
    # lambda = sum_j x_j dy_j with x_j = u_j cos(theta_j), y_j' = u_j * pi*factor*n_j cos(theta_j)
    integrand = (u ** 2 * math.pi * factor * pairings) @ (np.cos(theta) ** 2)
    return float(np.mean(integrand))


def closed_form_area(system: QuadricSystem, loop: TorusLoop) -> float:
    """pi <w, delta> for doubled loops, half that for plain ones.

    The loop is checked as every measurement checks it; only this function
    reads ``delta``, so the measurements do no Fraction arithmetic.
    """
    _loop_data(system, loop)
    factor = 2 if loop.doubled else 1
    # float(Fraction) is correctly rounded
    return float(linalg.dot(loop.coeffs, system.delta) * factor / 2) * math.pi


def _frame_matrix(system: QuadricSystem, u: np.ndarray) -> np.ndarray:
    """Constant part of the Lagrangian frame at the base point.

    Columns: an orthonormal basis of the tangent space of the variety
    (kernel of the quadric Jacobian), then the torus directions
    i*pi*gamma_{j,p}*u_j.  The loop only rotates coordinate phases.
    """
    gamma = _gamma_array(system)
    jac = 2.0 * gamma * u
    _, singular, vt = np.linalg.svd(jac)
    rank = int(np.sum(singular > 1e-9 * max(1.0, singular[0] if len(singular) else 1.0)))
    if rank < system.m:
        raise OracleError("frame degeneracy: quadric Jacobian loses rank at the point")
    fiber = vt[rank:].T  # n x (n - m), orthonormal
    torus = 1j * math.pi * (gamma.T * u[:, None])
    return np.hstack([fiber.astype(complex), torus])


def loop_maslov(system: QuadricSystem, loop: TorusLoop, point: RPoint) -> int:
    """Winding number of det^2 of the frame along the loop.

    The frame is rebuilt and its determinant recomputed at every sample, in
    stacked chunks of ``_DET_CHUNK`` samples; sampling is refined until
    consecutive phases differ by less than pi/2, and the winding must land
    within ``winding_turn_tol`` of an integer.
    """
    data = _loop_data(system, loop)
    pairings = data.pairings
    u = point.u
    _check_closure(loop, pairings, u)
    factor = 2.0 if loop.doubled else 1.0
    base = _frame_matrix(system, u)
    reference = np.linalg.det(base)
    if abs(reference) < 1e-12:
        raise OracleError("frame degeneracy: determinant vanishes at the base point")
    samples = data.winding_samples
    while True:
        s = np.linspace(0.0, 1.0, samples + 1)
        phases = np.exp(1j * math.pi * factor * np.outer(s, pairings))
        dets = np.concatenate(
            [
                np.linalg.det(phases[i : i + _DET_CHUNK, :, None] * base)
                for i in range(0, len(s), _DET_CHUNK)
            ]
        )
        if np.min(np.abs(dets)) < 1e-12 * abs(reference):
            raise OracleError("frame degeneracy along the loop")
        angles = np.unwrap(np.angle(dets ** 2))
        steps = np.abs(np.diff(angles))
        if np.max(steps) < math.pi / 2:
            break
        if samples >= DEFAULT_CONFIG.max_samples:
            raise OracleError("phase tracking failed to resolve the winding")
        samples *= 2
    winding = (angles[-1] - angles[0]) / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > DEFAULT_CONFIG.winding_turn_tol:
        raise OracleError(f"winding {winding:.4f} is not within tolerance of an integer")
    return int(nearest)


def expected_maslov(system: QuadricSystem, loop: TorusLoop) -> int:
    """The exact pairing of the realized loop class with the column sum."""
    return _loop_data(system, loop).maslov


def check_record(name, expected, actual, tolerance):
    if tolerance == 0:
        ok = expected == actual
    else:
        ok = abs(actual - expected) <= tolerance * (1 + abs(expected))
    return {
        "check": name,
        "expected": expected,
        "actual": actual,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def oracle_checks(
    system: QuadricSystem,
    loops: list[TorusLoop],
    family: str | None = None,
    seed: int = 0,
    vertex_set: VertexSet | None = None,
) -> list[dict]:
    """Area and winding comparisons for a batch of loops at one sampled point."""
    point = sample_point(system, family=family, seed=seed, vertex_set=vertex_set)
    records = [
        check_record(
            "point-residual",
            0.0,
            float(np.max(np.abs(point.residuals))),
            DEFAULT_CONFIG.residual_tol,
        )
    ]
    for loop in loops:
        label = "(" + ",".join(str(c) for c in loop.coeffs) + ")"
        area = loop_area(system, loop, point)
        expected_area = closed_form_area(system, loop)
        records.append(check_record(f"area{label}", expected_area, area, DEFAULT_CONFIG.area_rtol))
        winding = loop_maslov(system, loop, point)
        records.append(check_record(f"maslov{label}", expected_maslov(system, loop), winding, 0))
    return records
