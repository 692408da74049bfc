"""Floating-point cross-checks of the exact invariants.

Samples points on the variety ``Gamma u^2 = delta``, integrates the
Liouville form along explicit torus-orbit loops, and counts Maslov winding
through the squared-determinant phase of an honest Lagrangian frame.
Only torus-orbit loops (the base point fixed) are realized; a doubled
class ``2v`` always closes, while ``v`` itself closes only when every
coordinate it flips vanishes at the base point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .families import FamilyRangeWarning, parse_family_spec
from .invariants import _actual_vector, deck_data
from .quadrics import QuadricSystem, quadrics_to_polytope
from .polytopes import enumerate_vertices


class OracleError(RuntimeError):
    """Numerical failure: no point found, frame degenerate, loop does not close."""


@dataclass(frozen=True)
class OracleConfig:
    residual_tol: float = 1e-10
    area_rtol: float = 1e-8
    winding_turn_tol: float = 0.01
    newton_rounds: int = 8
    restarts: int = 5
    min_samples: int = 256
    max_samples: int = 1 << 16


DEFAULT_CONFIG = OracleConfig()


@dataclass(frozen=True)
class RPoint:
    u: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class TorusLoop:
    """A loop class in dual-basis coordinates; realized as phi(s) = s * (2v or v)."""

    coeffs: tuple[int, ...]
    doubled: bool = True
    samples: int = 0  # 0 = choose from the winding bound


def _gamma_array(system: QuadricSystem) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in system.gamma])


def _delta_array(system: QuadricSystem) -> np.ndarray:
    return np.array([float(d) for d in system.delta])


def residuals(system: QuadricSystem, u: np.ndarray) -> np.ndarray:
    return _gamma_array(system) @ (np.asarray(u) ** 2) - _delta_array(system)


def _newton_polish(system: QuadricSystem, u: np.ndarray, config: OracleConfig) -> np.ndarray:
    gamma = _gamma_array(system)
    delta = _delta_array(system)
    for _ in range(config.newton_rounds):
        r = gamma @ (u ** 2) - delta
        if np.max(np.abs(r)) <= config.residual_tol / 4:
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
    config: OracleConfig = DEFAULT_CONFIG,
) -> RPoint:
    """A point of the variety, deterministic for a fixed seed.

    With a family spec (as ``families.family_spec`` names it) the square
    roots of that presentation's slacks at the origin are the exact point;
    otherwise the slack vector of a seeded convex combination of polytope
    vertices supplies exact squares, and Newton refinement removes the
    square-root rounding.
    """
    if not family:
        poly = quadrics_to_polytope(system)
        vertex_set = enumerate_vertices(poly)
        if not vertex_set.vertices:
            raise OracleError("the variety is empty or has no usable polytope point")
        rng = np.random.default_rng(seed)
        last_error = None
        for _ in range(config.restarts):
            weights = rng.random(len(vertex_set.vertices))
            weights /= weights.sum()
            x = np.zeros(poly.dim)
            for w, vertex in zip(weights, vertex_set.vertices):
                x += w * np.array([float(c) for c in vertex.point])
            slacks = np.array(
                [
                    float(sum(a_i * x_i for a_i, x_i in zip(a, x)) + float(b))
                    for a, b in zip(poly.normals, poly.offsets)
                ]
            )
            if np.min(slacks) < 0:
                last_error = OracleError("sampled point left the polytope")
                continue
            u = _newton_polish(system, np.sqrt(np.maximum(slacks, 0.0)), config)
            r = residuals(system, u)
            if np.max(np.abs(r)) <= config.residual_tol:
                return RPoint(u, r)
            last_error = OracleError(
                f"Newton refinement stalled at residual {np.max(np.abs(r)):.2e}"
            )
        raise last_error
    u = _newton_polish(system, _family_point(system, family), config)
    r = residuals(system, u)
    if np.max(np.abs(r)) > config.residual_tol:
        raise OracleError(f"residual {np.max(np.abs(r)):.2e} above tolerance")
    return RPoint(u, r)


def _loop_data(system: QuadricSystem, loop: TorusLoop):
    """Integer pairings n_j = <gamma_j, w> of the realized dual vector."""
    deck = deck_data(system)
    if len(loop.coeffs) != deck.rank:
        raise OracleError("loop coefficients do not match the torus rank")
    w = _actual_vector(deck, loop.coeffs)
    pairings = []
    for j in range(system.n):
        value = Fraction(linalg.dot(w, system.column(j)))
        if value.denominator != 1:
            raise OracleError("loop class pairs non-integrally with a column")
        pairings.append(value.numerator)
    return np.array(pairings, dtype=float), w


def _check_closure(loop: TorusLoop, pairings: np.ndarray, u: np.ndarray, tol: float):
    if loop.doubled:
        return
    odd = (np.abs(pairings) % 2).astype(bool)
    if np.any(np.abs(u[odd]) > 1e-8):
        raise OracleError(
            "loop does not close at this base point: a flipped coordinate is nonzero"
        )


def loop_area(
    system: QuadricSystem,
    loop: TorusLoop,
    point: RPoint,
    config: OracleConfig = DEFAULT_CONFIG,
) -> float:
    """Liouville-form integral along the realized loop by composite quadrature."""
    pairings, _ = _loop_data(system, loop)
    u = point.u
    _check_closure(loop, pairings, u, config.residual_tol)
    factor = 2.0 if loop.doubled else 1.0
    samples = loop.samples or max(
        config.min_samples, 64 * (1 + int(factor * np.max(np.abs(pairings))))
    )
    s = (np.arange(samples) + 0.5) / samples
    theta = math.pi * factor * np.outer(pairings, s)
    # lambda = sum_j x_j dy_j with x_j = u_j cos(theta_j), y_j' = u_j * pi*factor*n_j cos(theta_j)
    integrand = (u ** 2 * math.pi * factor * pairings) @ (np.cos(theta) ** 2)
    return float(np.mean(integrand))


def closed_form_area(system: QuadricSystem, loop: TorusLoop) -> float:
    """pi <w, delta> for doubled loops, half that for plain ones."""
    _, w = _loop_data(system, loop)
    value = Fraction(linalg.dot(w, system.delta))
    scale = Fraction(1) if loop.doubled else Fraction(1, 2)
    return float(value * scale) * math.pi


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


def loop_maslov(
    system: QuadricSystem,
    loop: TorusLoop,
    point: RPoint,
    config: OracleConfig = DEFAULT_CONFIG,
) -> int:
    """Winding number of det^2 of the frame along the loop.

    The frame is rebuilt and its determinant recomputed at every sample;
    sampling is refined until consecutive phases differ by less than pi/2,
    and the winding must land within ``winding_turn_tol`` of an integer.
    """
    pairings, _ = _loop_data(system, loop)
    u = point.u
    _check_closure(loop, pairings, u, config.residual_tol)
    factor = 2.0 if loop.doubled else 1.0
    base = _frame_matrix(system, u)
    reference = np.linalg.det(base)
    if abs(reference) < 1e-12:
        raise OracleError("frame degeneracy: determinant vanishes at the base point")
    samples = loop.samples or max(
        config.min_samples, 16 + 8 * int(factor * np.sum(np.abs(pairings)))
    )
    while True:
        s = np.linspace(0.0, 1.0, samples + 1)
        phases = np.exp(1j * math.pi * factor * np.outer(s, pairings))
        dets = np.array([np.linalg.det(phases[i][:, None] * base) for i in range(len(s))])
        if np.min(np.abs(dets)) < 1e-12 * abs(reference):
            raise OracleError("frame degeneracy along the loop")
        angles = np.unwrap(np.angle(dets ** 2))
        steps = np.abs(np.diff(angles))
        if np.max(steps) < math.pi / 2:
            break
        if samples >= config.max_samples:
            raise OracleError("phase tracking failed to resolve the winding")
        samples *= 2
    winding = (angles[-1] - angles[0]) / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > config.winding_turn_tol:
        raise OracleError(f"winding {winding:.4f} is not within tolerance of an integer")
    return int(nearest)


def expected_maslov(system: QuadricSystem, loop: TorusLoop) -> int:
    """The exact pairing of the realized loop class with the column sum."""
    pairings, w = _loop_data(system, loop)
    t = [sum(row) for row in system.gamma]
    value = Fraction(linalg.dot(w, t))
    scale = 2 if loop.doubled else 1
    return int(value * scale)


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
    config: OracleConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Area and winding comparisons for a batch of loops at one sampled point."""
    point = sample_point(system, family=family, seed=seed, config=config)
    records = [
        check_record(
            "point-residual",
            0.0,
            float(np.max(np.abs(point.residuals))),
            config.residual_tol,
        )
    ]
    for loop in loops:
        label = "(" + ",".join(str(c) for c in loop.coeffs) + ")"
        area = loop_area(system, loop, point, config)
        records.append(
            check_record(
                f"area{label}", closed_form_area(system, loop), area, config.area_rtol
            )
        )
        winding = loop_maslov(system, loop, point, config)
        records.append(
            check_record(f"maslov{label}", expected_maslov(system, loop), winding, 0)
        )
    return records
