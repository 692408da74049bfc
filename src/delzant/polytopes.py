"""H-representation polytopes with exact vertex enumeration and structure tests.

A polytope is the solution set of ``<a_i, x> + b_i >= 0`` for integer
normals ``a_i`` and rational offsets ``b_i``.  All geometry here is done
in exact rational arithmetic; there is no floating point and no LP solver.

A presentation's relation rows ``Gamma`` (a saturated basis of the integer
relations among the normals, m = n - k rows when the normals span) are
computed once and its vertices enumerated once; every predicate reads its
answer from that result.  Vertices come from basis solving on the side
with the smaller square systems: k-subsets of the inequalities when
k <= m, else m-subsets B of the Gale dual ``Gamma s = Gamma b, s >= 0``
(both sides try C(n, k) = C(n, m) subsets).  Boundedness is the dual
positive-dependence criterion (a strictly positive relation exists iff the
recession cone is trivial).  Redundancy is read off the vertex-facet
incidence, with a per-index relaxation only for empty polytopes and
implicit equalities.  When m < k, a simple vertex's Delzant index is the
m x m minor ``|det Gamma_B|`` on the complement B of its active set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg

DEFAULT_SUBSET_BUDGET = 2_000_000


class PolytopeError(ValueError):
    """Base class for polytope-level failures."""


class PolytopeFormatError(PolytopeError):
    """Malformed polytope input (JSON shape, dimensions, zero normals)."""


class SubsetBudgetError(PolytopeError):
    """A subset search would try more subsets than the configured budget."""

    def __init__(self, stage: str, requested: int, budget: int):
        super().__init__(f"{stage}: {requested} subsets exceed the budget of {budget}")
        self.stage = stage
        self.requested = requested
        self.budget = budget


class LatticeRankError(PolytopeError):
    """The normal lattice does not have full rank."""


@dataclass(frozen=True)
class HPolytope:
    """Inequalities ``<a_i, x> + b_i >= 0`` with ``a_i = normals[i]``."""

    dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.normals) != len(self.offsets):
            raise PolytopeFormatError("offset count does not match inequality count")
        for i, a in enumerate(self.normals):
            if len(a) != self.dim:
                raise PolytopeFormatError(f"normal {i} has wrong dimension")
            if self.dim > 0 and not any(a):
                raise PolytopeFormatError(f"normal {i} is the zero vector")

    @property
    def n(self) -> int:
        return len(self.normals)

    def matrix(self) -> list[list[int]]:
        """The k x n matrix whose columns are the normals."""
        return [[a[r] for a in self.normals] for r in range(self.dim)]

    def drop(self, index: int) -> "HPolytope":
        keep = [i for i in range(self.n) if i != index]
        return HPolytope(
            self.dim,
            tuple(self.normals[i] for i in keep),
            tuple(self.offsets[i] for i in keep),
        )


@dataclass(frozen=True)
class Vertex:
    point: tuple[Fraction, ...]
    active: tuple[int, ...]


@dataclass(frozen=True)
class VertexSet:
    """The vertices of a presentation and the relation rows they were found with.

    ``relations`` is the saturated basis ``Gamma`` of the integer relations
    among the normals that the enumeration used; ``is_delzant`` reads vertex
    indices off its minors when it has fewer rows than the dimension.
    """

    vertices: tuple[Vertex, ...]
    bounded: bool
    empty: bool
    pointed: bool
    relations: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StructureReport:
    bounded: bool
    empty: bool
    simple: bool | None
    generic: bool | None
    delzant: bool | None
    fano: bool
    fano_constant: Fraction | None
    fano_translation: tuple[Fraction, ...] | None
    redundant: tuple[int, ...]
    strict_redundant: tuple[int, ...]
    monotone_ready: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def _plain(text: str) -> str:
    """``text`` unless it has an underscore or a non-ASCII character.

    ``int`` and ``Fraction`` read ``"1_0"`` as 10 and Arabic-Indic digits
    as decimal digits.
    """
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def parse_integer(value, what: str = "integer") -> int:
    """An int, or an ASCII decimal string of one; floats and bools are rejected."""
    if isinstance(value, bool):
        raise PolytopeFormatError(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(_plain(value))
        except ValueError:
            raise PolytopeFormatError(f"{what} is not a decimal integer: {value!r}") from None
    raise PolytopeFormatError(f"{what} must be an integer or decimal string")


def parse_rational(value, what: str = "rational") -> Fraction:
    """An int, or an ASCII decimal or ``p/q`` string; floats and bools are rejected."""
    if isinstance(value, bool):
        raise PolytopeFormatError(f"{what} must be rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(_plain(value))
        except (ValueError, ZeroDivisionError):
            raise PolytopeFormatError(f"{what} is not a valid p/q rational: {value!r}") from None
    raise PolytopeFormatError(f"{what} must be an integer or a p/q string")


def parse_bool(value, what: str = "flag") -> bool:
    """A JSON ``true`` or ``false``; no other value is read as a truth value."""
    if not isinstance(value, bool):
        raise PolytopeFormatError(f"{what} must be true or false")
    return value


def parse_polytope(text: str | bytes) -> HPolytope:
    """Parse the polytope JSON schema ``{"A": [[...]], "b": [...]}``.

    ``A`` is row-major (k rows, n columns; column i is the normal a_i) and
    ``b`` holds n rationals as integers or ``"p/q"`` strings.  Arbitrary
    precision integers may be given as decimal strings.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolytopeFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict) or "A" not in data or "b" not in data:
        raise PolytopeFormatError("polytope JSON needs keys 'A' and 'b'")
    rows = data["A"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PolytopeFormatError("'A' must be a list of rows")
    k = len(rows)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise PolytopeFormatError("dimension mismatch: rows of 'A' have unequal lengths")
    n = widths.pop() if widths else 0
    matrix = [[parse_integer(x, "entry of A") for x in row] for row in rows]
    b_raw = data["b"]
    if not isinstance(b_raw, list):
        raise PolytopeFormatError("'b' must be a list")
    if len(b_raw) != n:
        raise PolytopeFormatError(
            f"dimension mismatch: 'b' has {len(b_raw)} entries for {n} inequalities"
        )
    offsets = tuple(parse_rational(x, "entry of b") for x in b_raw)
    normals = tuple(tuple(matrix[r][i] for r in range(k)) for i in range(n))
    return HPolytope(k, normals, offsets)


def polytope_to_json(poly: HPolytope) -> dict:
    return {
        "A": [[a[r] for a in poly.normals] for r in range(poly.dim)],
        "b": [format_rational(b) for b in poly.offsets],
    }


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _integer_rows(poly: HPolytope) -> list[tuple[tuple[int, ...], int]]:
    """Clear offset denominators: rows (g_i, e_i) with <g_i,x> + e_i >= 0."""
    rows = []
    for a, b in zip(poly.normals, poly.offsets):
        d = b.denominator
        rows.append((tuple(x * d for x in a), b.numerator))
    return rows


def _scaled_values(rows, point_nums: Sequence[int], den: int) -> list[int] | None:
    """Scaled inequality values den*(<g,x> + e) at x = nums/den; None on violation."""
    values = []
    for grow, e in rows:
        value = sum(g * x for g, x in zip(grow, point_nums) if g) + e * den
        if value < 0:
            return None
        values.append(value)
    return values


def _check_budget(stage: str, n: int, size: int, budget: int) -> None:
    requested = math.comb(n, size)
    if requested > budget:
        raise SubsetBudgetError(stage, requested, budget)


def _vertex_candidates(rows, k: int, budget: int, stage: str):
    """Yield (point, scaled values) for each feasible basic solution of k rows."""
    _check_budget(stage, len(rows), k, budget)
    seen = set()
    for subset in combinations(range(len(rows)), k):
        sol = linalg.solve_square(
            [rows[i][0] for i in subset], [-rows[i][1] for i in subset]
        )
        if sol is None:
            continue
        key = tuple(sol)
        if key in seen:
            continue
        seen.add(key)
        den = math.lcm(*(f.denominator for f in sol)) if sol else 1
        nums = [int(f * den) for f in sol]
        values = _scaled_values(rows, nums, den)
        if values is not None:
            yield tuple(sol), values


def _relation_rows(poly: HPolytope) -> tuple[tuple[int, ...], ...]:
    """Saturated basis of the integer relations among the normals."""
    return tuple(tuple(row) for row in linalg.integer_kernel(poly.matrix()))


def _has_positive_relation(relations, n: int, budget: int) -> bool:
    """Whether the relation space meets the strictly positive orthant.

    Decided exactly by enumerating basic solutions of ``<c, col_j> >= 1``;
    the constraint normals span the relation space, so feasibility is
    equivalent to some basic solution being feasible.
    """
    m = len(relations)
    if m == 0:
        return n == 0
    cols = [tuple(relations[r][j] for r in range(m)) for j in range(n)]
    _check_budget("positive-relation search", n, m, budget)
    for subset in combinations(range(n), m):
        sol = linalg.solve_square([cols[i] for i in subset], [1] * m)
        if sol is None:
            continue
        den = math.lcm(*(x.denominator for x in sol))
        nums = [x.numerator * (den // x.denominator) for x in sol]
        if all(sum(c * x for c, x in zip(col, nums) if c) >= den for col in cols):
            return True
    return False


def is_bounded(poly: HPolytope, budget: int = DEFAULT_SUBSET_BUDGET) -> bool:
    """Exact boundedness: full-rank normals plus a strictly positive relation."""
    if poly.dim == 0:
        return True
    relations = _relation_rows(poly)
    if len(relations) != poly.n - poly.dim:
        return False
    return _has_positive_relation(relations, poly.n, budget)


def _reduced_feasible(poly: HPolytope, budget: int) -> bool:
    """Feasibility of a rank-deficient system via quotient coordinates."""
    basis = linalg.row_basis([list(a) for a in poly.normals])
    r = len(basis)
    if r == 0:
        return all(b >= 0 for b in poly.offsets)
    reduced_normals = tuple(
        tuple(linalg.dot(row, a) for row in basis) for a in poly.normals
    )
    reduced = HPolytope(r, reduced_normals, poly.offsets)
    return not enumerate_vertices(reduced, budget=budget).empty


def _primal_vertices(poly: HPolytope, budget: int) -> list[Vertex]:
    """Vertices from every k-subset of the inequalities, solved for the point."""
    vertices = []
    candidates = _vertex_candidates(
        _integer_rows(poly), poly.dim, budget, "vertex enumeration (k-subsets)"
    )
    for point, values in candidates:
        active = tuple(i for i, v in enumerate(values) if v == 0)
        vertices.append(Vertex(point, active))
    return vertices


def _gale_vertices(poly: HPolytope, relations, budget: int) -> list[Vertex]:
    """Vertices from the basic feasible slack vectors of ``Gamma s = Gamma b, s >= 0``.

    Each m-subset B with ``Gamma_B`` nonsingular gives ``s_B = Gamma_B^-1 Gamma b``
    and ``s = 0`` off B; it is a vertex when ``s_B >= 0``, and a degenerate
    vertex is reached from several B, so slack vectors are deduplicated.  The
    slacks are scaled by the common offset denominator so the right-hand side
    is integral.  The point is ``x = A_T^-T (s_T - b_T)`` for the complement T
    of the first feasible basis, whose inverse is computed once as integer
    numerators over one denominator.
    """
    n, m = poly.n, len(relations)
    _check_budget("vertex enumeration (Gale m-subsets)", n, m, budget)
    scale = math.lcm(*(b.denominator for b in poly.offsets))
    offsets = [int(b * scale) for b in poly.offsets]
    rhs = [linalg.dot(row, offsets) for row in relations]
    cols = [tuple(row[j] for row in relations) for j in range(n)]
    seen = set()
    vertices = []
    recovery = None  # (T, sparse numerator rows of A_T^-T, denominator)
    for subset in combinations(range(n), m):
        sol = linalg.solve_square(list(zip(*(cols[j] for j in subset))), rhs)
        if sol is None or any(x < 0 for x in sol):
            continue
        slack = {j: x for j, x in zip(subset, sol) if x}
        key = tuple(slack.items())
        if key in seen:
            continue
        seen.add(key)
        if recovery is None:
            chosen = set(subset)
            tight = [i for i in range(n) if i not in chosen]
            numerators, den = linalg.inverse([poly.normals[i] for i in tight])
            rows = [[(p, c) for p, c in enumerate(row) if c] for row in numerators]
            recovery = tight, rows, scale * den
        tight, rows, den = recovery
        q = math.lcm(*(x.denominator for x in slack.values()))
        w = [int(slack.get(i, 0) * q) - offsets[i] * q for i in tight]
        point = tuple(Fraction(sum(c * w[p] for p, c in row), den * q) for row in rows)
        active = tuple(i for i in range(n) if i not in slack)
        vertices.append(Vertex(point, active))
    return vertices


def enumerate_vertices(
    poly: HPolytope,
    budget: int = DEFAULT_SUBSET_BUDGET,
    relations: Sequence[Sequence[int]] | None = None,
) -> VertexSet:
    """All vertices with their full active sets, plus emptiness/boundedness flags.

    ``relations``, when given, must be a saturated basis of the integer
    relations among the normals (the ``Gamma`` of the quadric system); it is
    computed otherwise.  The enumeration runs on the side with the smaller
    square systems: k-subsets when k <= m, Gale m-subsets when m < k.  A
    system whose normals do not span R^k has no vertices; its feasibility is
    still decided (in quotient coordinates) and reported through the flags.
    """
    k, n = poly.dim, poly.n
    if k == 0:
        feasible = all(b >= 0 for b in poly.offsets)
        if not feasible:
            return VertexSet((), True, True, True, ())
        active = tuple(i for i, b in enumerate(poly.offsets) if b == 0)
        return VertexSet((Vertex((), active),), True, False, True, ())
    if relations is None:
        relations = _relation_rows(poly)
    relations = tuple(tuple(row) for row in relations)
    if len(relations) != n - k:
        feasible = _reduced_feasible(poly, budget)
        return VertexSet((), False, not feasible, False, relations)
    if len(relations) < k:
        vertices = _gale_vertices(poly, relations, budget)
    else:
        vertices = _primal_vertices(poly, budget)
    if not vertices:
        return VertexSet((), True, True, True, relations)
    vertices.sort(key=lambda v: v.point)
    bounded = _has_positive_relation(relations, n, budget)
    return VertexSet(tuple(vertices), bounded, False, True, relations)


def is_simple(vertex_set: VertexSet, dim: int) -> bool:
    """Exactly ``dim`` inequalities tight at every vertex."""
    return all(len(v.active) == dim for v in vertex_set.vertices)


def _gale_minor(poly: HPolytope, relations, active: Sequence[int]) -> Fraction:
    """``|det Gamma_B|`` on the complement B of an active set of size k.

    For a saturated ``Gamma``, ``|det A_active| = L * |det Gamma_B|`` with L
    the index of the normal lattice in Z^k, so this is the index of the
    active normals in the normal lattice.
    """
    tight = set(active)
    complement = [j for j in range(poly.n) if j not in tight]
    return abs(linalg.det([[row[j] for j in complement] for row in relations]))


def normal_lattice_basis(poly: HPolytope) -> list[list[int]]:
    basis = linalg.row_basis([list(a) for a in poly.normals])
    if len(basis) < poly.dim:
        raise LatticeRankError(
            f"normal lattice has rank {len(basis)} < ambient dimension {poly.dim}"
        )
    return basis


def is_delzant(poly: HPolytope, vertex_set: VertexSet) -> bool:
    """At every vertex the active normals are a basis of the normal lattice.

    Requires a simple presentation.  The index of the active sublattice is
    ``|det Gamma_B|`` on the inactive set B when m < k, and
    ``|det(active normals)| / |det(lattice basis)|`` otherwise.
    """
    if not is_simple(vertex_set, poly.dim):
        raise PolytopeError("Delzant test requires a simple presentation")
    if vertex_set.pointed and len(vertex_set.relations) < poly.dim:
        return all(
            _gale_minor(poly, vertex_set.relations, v.active) == 1
            for v in vertex_set.vertices
        )
    basis = normal_lattice_basis(poly)
    lattice_det = abs(linalg.det(basis))
    for v in vertex_set.vertices:
        active_det = abs(linalg.det([list(poly.normals[i]) for i in v.active]))
        index, rem = divmod(active_det, lattice_det)
        if rem:
            raise LatticeRankError("active normals leave the normal lattice")
        if index != 1:
            return False
    return True


def is_fano(poly: HPolytope, relations: Sequence[Sequence[int]] | None = None):
    """Fano up to translation.

    True iff every normal is primitive and there are ``C > 0`` and rational
    ``y`` with ``b - C*1 = A^T y``, i.e. translating by ``-y`` makes every
    offset equal to ``C``.  Returns ``(flag, C, y)``.

    The image of ``A^T`` is the kernel of the relation rows ``Gamma``
    (``relations``, computed when not given), so C is read off
    ``Gamma b = C * Gamma 1``; when ``Gamma 1 = 0`` every C works and 1 is
    reported.  y is unique when the normals span R^k; otherwise the
    solution supported on the pivot columns of their elimination is
    reported.
    """
    for a in poly.normals:
        if math.gcd(*(abs(x) for x in a)) != 1:
            return False, None, None
    if relations is None:
        relations = _relation_rows(poly)
    ones = [sum(row) for row in relations]
    values = [linalg.dot(row, poly.offsets) for row in relations]
    r = next((r for r, x in enumerate(ones) if x), None)
    constant = Fraction(1) if r is None else values[r] / ones[r]
    if constant <= 0 or any(v != constant * x for v, x in zip(values, ones)):
        return False, None, None
    target = [b - constant for b in poly.offsets]
    translation = linalg.solve_affine([list(a) for a in poly.normals], target)[0]
    return True, constant, tuple(translation)


def _incidence_redundancy(n: int, vertices: Sequence[Vertex]) -> dict[int, bool] | None:
    """Redundancy flags from the vertex-facet incidence, or None if it does not decide.

    Valid for a bounded, nonempty polytope with no implicit equality, i.e.
    no index tight at every vertex: with V_i the vertices tight at index i,
    i is strictly redundant iff V_i is empty, and redundant iff V_i lies in
    V_j for some j != i (an irredundant index spans a facet, which lies in no
    other index's face).
    """
    masks = [0] * n
    for bit, v in enumerate(vertices):
        for i in v.active:
            masks[i] |= 1 << bit
    everywhere = (1 << len(vertices)) - 1
    if everywhere in masks:
        return None
    flags: dict[int, bool] = {}
    for i, mask in enumerate(masks):
        if not mask:
            flags[i] = True
        elif any(j != i and not mask & ~other for j, other in enumerate(masks)):
            flags[i] = False
    return flags


def _relaxation_redundancy(poly: HPolytope, budget: int) -> dict[int, bool]:
    """Redundancy flags from re-enumerating each relaxation.

    Index i is redundant iff the relaxation obtained by dropping it is
    bounded and the minimum of ``<a_i, x> + b_i`` over its vertices is >= 0;
    an unbounded relaxation of a bounded polytope always escapes through
    inequality i.
    """
    relations = _relation_rows(poly)
    result: dict[int, bool] = {}
    for i in range(poly.n):
        relaxed = poly.drop(i)
        # dropping normal i loses rank exactly when no relation involves it
        if poly.dim > 0 and not any(row[i] for row in relations):
            if not _reduced_feasible(relaxed, budget):
                result[i] = True
            continue
        rows = _integer_rows(relaxed)
        a_i, b_i = poly.normals[i], poly.offsets[i]
        minimum = None
        feasible = False
        for point, _ in _vertex_candidates(rows, relaxed.dim, budget, "redundancy relaxation"):
            feasible = True
            value = linalg.dot(a_i, point) + b_i
            if minimum is None or value < minimum:
                minimum = value
            if minimum < 0:
                break
        if not feasible:
            result[i] = True  # both sides empty
            continue
        if minimum < 0:
            continue
        if not is_bounded(relaxed, budget):
            continue
        result[i] = minimum > 0
    return result


def redundancy(
    poly: HPolytope,
    budget: int = DEFAULT_SUBSET_BUDGET,
    vertex_set: VertexSet | None = None,
) -> dict[int, bool]:
    """Indices whose inequality can be dropped without changing the set.

    Returns ``{index: strict}`` where ``strict`` means the inequality is
    never tight on the intersection of the others.  Exact.  ``vertex_set``
    is the presentation's ``enumerate_vertices`` result, enumerated here when
    not given.  A bounded, nonempty, full-dimensional polytope is decided on
    its vertex-facet incidence; an empty one, or one with an index tight at
    every vertex, by relaxing each index in turn.
    """
    if vertex_set is None:
        vertex_set = enumerate_vertices(poly, budget)
    if not vertex_set.empty:
        if not vertex_set.bounded:
            raise PolytopeError("redundancy analysis requires a bounded polytope")
        flags = _incidence_redundancy(poly.n, vertex_set.vertices)
        if flags is not None:
            return flags
    return _relaxation_redundancy(poly, budget)


def structure_report(
    poly: HPolytope,
    budget: int = DEFAULT_SUBSET_BUDGET,
    relations: Sequence[Sequence[int]] | None = None,
) -> StructureReport:
    """Run every structural predicate on one vertex enumeration and assemble the report.

    ``relations`` is passed on to ``enumerate_vertices``.
    """
    notes: list[str] = []
    vertex_set = enumerate_vertices(poly, budget, relations)
    bounded = vertex_set.bounded and not vertex_set.empty
    if vertex_set.empty:
        notes.append("empty feasible set")
    if not vertex_set.pointed:
        notes.append("normals are rank-deficient: no vertices, unbounded if nonempty")
    simple = generic = delzant = None
    if vertex_set.vertices:
        # the active normals of a vertex span R^k, so they are independent
        # (generic) exactly when there are k of them (simple)
        simple = generic = is_simple(vertex_set, poly.dim)
        if simple:
            try:
                delzant = is_delzant(poly, vertex_set)
            except LatticeRankError as exc:
                delzant = None
                notes.append(str(exc))
        else:
            delzant = False
    fano, constant, translation = is_fano(poly, vertex_set.relations)
    redundant: tuple[int, ...] = ()
    strict: tuple[int, ...] = ()
    if bounded:
        flags = redundancy(poly, budget, vertex_set)
        redundant = tuple(sorted(flags))
        strict = tuple(sorted(i for i, s in flags.items() if s))
    elif not vertex_set.empty:
        notes.append("redundancy analysis skipped: polytope is not bounded")
    monotone_ready = bool(bounded and delzant and not redundant)
    return StructureReport(
        bounded=vertex_set.bounded,
        empty=vertex_set.empty,
        simple=simple,
        generic=generic,
        delzant=delzant,
        fano=fano,
        fano_constant=constant,
        fano_translation=translation,
        redundant=redundant,
        strict_redundant=strict,
        monotone_ready=monotone_ready,
        notes=tuple(notes),
    )


def structure_to_json(report: StructureReport) -> dict:
    return {
        "bounded": report.bounded,
        "empty": report.empty,
        "simple": report.simple,
        "generic": report.generic,
        "delzant": report.delzant,
        "fano": report.fano,
        "fano_constant": None
        if report.fano_constant is None
        else format_rational(report.fano_constant),
        "fano_translation": None
        if report.fano_translation is None
        else [format_rational(x) for x in report.fano_translation],
        "redundant": list(report.redundant),
        "strict_redundant": list(report.strict_redundant),
        "monotone_ready": report.monotone_ready,
        "notes": list(report.notes),
    }
