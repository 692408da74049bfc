"""H-representation polytopes with exact vertex enumeration and structure tests.

A polytope is the solution set of ``<a_i, x> + b_i >= 0`` for integer
normals ``a_i`` and rational offsets ``b_i``.  All geometry here is done
in exact rational arithmetic; there is no floating point.

A presentation's relation rows ``Gamma`` (a saturated basis of the integer
relations among the normals, m = n - k rows when the normals span), with
the index det L of the normal lattice from the same HNF, its offsets over
their common denominator and ``Gamma`` applied to them are computed once,
on first use, as cached properties of ``HPolytope``; the quadric system
reads them from there.  ``Gamma`` is stored in a canonical form so equal
presentations give bit-equal rows: the Hermite normal form computed with
pivot columns sought from the last inequality backwards ("slack-ordered").
Appended slack inequalities, like the redundant inequalities of the
simplex families, then own their pivot row, which keeps the per-row
invariants aligned with the natural presentation of those families.

The vertices are enumerated once, and every predicate reads its answer
from that result.  Vertices come from basis solving on the side
with the smaller square systems: the inequalities' k x k bases when
k <= m, else m-subsets B of the Gale dual ``Gamma s = Gamma b, s >= 0``.
On the primal side the first feasible k-subset, in lexicographic order,
starts a walk along the edges: at each vertex every basis of its active
set is one elimination that gives the rates of all slacks along its edge
directions, and a ratio test gives each neighbour, so only the start scan
tries subsets that are not vertex bases.  For m = 2 (the
paper's twisted products and redundant simplices) no pair is solved: a
pair of columns of ``Gamma`` is a feasible basis exactly when ``Gamma b``
lies in its cone, a sign rule on three 2 x 2 determinants, and Cramer's
rule gives its slacks.  Either side's budget is the C(n, k) = C(n, m)
subsets, counted up front.  Boundedness, the feasibility
of a rank-deficient system and the redundancy of an index on an empty
polytope or one with an implicit equality are each one exact LP on
``Gamma`` (``linalg.simplex``); otherwise redundancy is read off the
vertex-facet incidence.

A vertex is recorded by its slack vector ``s = A^T x + b``, the point of
the slack embedding that the quadric system ``Gamma u^2 = delta`` is built
on (``u_j^2 = s_j``), and never by its point x: the structure predicates
read only its tight set and index, and the oracle samples slack vectors.
As the normals span, ``x -> A^T x + b`` is injective, so the slack vector
names the vertex.  Both enumerations stay in integers: a Gale basis solve
gives the slacks as integer numerators over ``d = |det|`` of its basis
matrix, a primal edge step is an integer update of the slacks over one
denominator, and feasibility, the ratio test, deduplication and the
vertex order are decided on integers.  A simple vertex has exactly one
basis, so its index, that of its active normals' sublattice in the normal
lattice L, comes from that solve: it is
``|det A_S| / det L`` on the primal side and the m x m minor
``|det Gamma_B|`` on the complement B of its active set on the Gale side,
which are equal for a saturated ``Gamma``.  A degenerate vertex takes the
index of its first basis in lexicographic order on either side.
"""

from __future__ import annotations

import functools
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
    """A subset search, or an LP's bases, would exceed the configured budget
    (for an LP stage ``requested`` is ``budget + 1``, the first basis past it)."""

    def __init__(self, stage: str, requested: int, budget: int):
        super().__init__(f"{stage}: {requested} is over the budget of {budget}")
        self.stage = stage
        self.requested = requested
        self.budget = budget


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

    @functools.cached_property
    def _lattices(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(relations, normal_lattice_det)``; the relations are the HNF of the
        kernel of the reversed normals, so its pivots are sought from the last
        inequality backwards (the rows come back reversed).  When a greedy basis of the
        normals is unimodular, as at a Delzant vertex, ``unimodular_kernel``
        gives a kernel basis and det L = 1; else ``image_and_kernel`` gives the
        HNF kernel and, as its image, L's basis.  The HNF basis is unique."""
        if not self.dim:
            return tuple(map(tuple, linalg.identity(self.n))), 1
        matrix = self.matrix()
        kernel = linalg.unimodular_kernel(matrix)
        if kernel is None:
            image, kernel = linalg.image_and_kernel([row[::-1] for row in matrix])
            det = linalg.lattice_det(image)
        else:
            kernel, det = linalg.row_basis([row[::-1] for row in kernel]), 1
        return tuple(tuple(row[::-1]) for row in reversed(kernel)), det

    @property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        """``Gamma``: the normals' saturated relation basis (Z^n when k = 0), slack-ordered HNF."""
        return self._lattices[0]

    @property
    def normal_lattice_det(self) -> int:
        """det L, the index in Z^k of the lattice L the normals span (when they span R^k)."""
        return self._lattices[1]

    @functools.cached_property
    def integer_offsets(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, e)``: the offsets are ``e / scale``, with ``scale`` the lcm
        of their denominators."""
        offsets, scale = linalg.scale_to_integers(self.offsets)
        return scale, tuple(offsets)

    @functools.cached_property
    def relation_values(self) -> tuple[int, ...]:
        """``Gamma e``: the slack vectors ``s = A^T x + b`` of the points x,
        scaled by ``scale``, are the solutions of ``Gamma s = Gamma e``."""
        offsets = self.integer_offsets[1]
        return tuple(linalg.dot(row, offsets) for row in self.relations)


@dataclass(frozen=True)
class Vertex:
    """The slack vector ``s = A^T x + b`` of a vertex x as ``slacks / den``
    (lowest terms, ``den > 0``), and the indices tight at it, its zero slacks.

    ``index`` is the index, in the normal lattice L, of the sublattice
    spanned by the k normals S of the vertex's first basis in lexicographic
    order, read off that basis solve: ``|det A_S| / det L`` on the primal
    side, where the edge walk eliminates the k-subsets of the active set in
    that order, and ``|det Gamma_B|`` for the complement B of S on the Gale
    side.  A simple vertex has exactly one such basis, its active set.
    """

    slacks: tuple[int, ...]
    den: int
    active: tuple[int, ...]
    index: int


def _vertex(slacks, den: int, active, index: int) -> Vertex:
    """A ``Vertex`` with ``slacks / den`` brought to lowest terms."""
    g = math.gcd(den, *slacks)
    return Vertex(tuple(x // g for x in slacks), den // g, tuple(active), index)


@dataclass(frozen=True)
class VertexSet:
    """The vertices of a presentation, with its emptiness and boundedness flags."""

    vertices: tuple[Vertex, ...]
    bounded: bool
    empty: bool
    pointed: bool


@dataclass(frozen=True)
class StructureReport:
    """The structural verdicts and the one vertex enumeration they were read from."""

    vertex_set: VertexSet
    simple: bool | None
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


def load_json(text: str | bytes):
    """``json.loads`` with a malformed document, or one nested deeper than
    the parser's recursion limit, refused as a ``PolytopeFormatError``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolytopeFormatError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise PolytopeFormatError("malformed JSON: nested too deeply") from None


def parse_polytope(text: str | bytes) -> HPolytope:
    """Parse the polytope JSON schema ``{"A": [[...]], "b": [...]}``.

    ``A`` is row-major (k rows, n columns; column i is the normal a_i) and
    ``b`` holds n rationals as integers or ``"p/q"`` strings.  Arbitrary
    precision integers may be given as decimal strings.
    """
    data = load_json(text)
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


def _check_budget(stage: str, n: int, size: int, budget: int) -> None:
    requested = math.comb(n, size)
    if requested > budget:
        raise SubsetBudgetError(stage, requested, budget)


def _simplex(stage: str, budget: int, rows, rhs, cost=None):
    """``linalg.simplex`` with its basis budget reported as a ``SubsetBudgetError``."""
    try:
        return linalg.simplex(rows, rhs, cost, budget)
    except linalg.PivotBudgetError:
        raise SubsetBudgetError(stage, budget + 1, budget) from None


def _bounded(poly: HPolytope, budget: int) -> bool:
    """Whether a pointed presentation has no recession direction d != 0.

    The values ``y = A^T d`` of the normals on the directions d are the
    solutions of ``Gamma y = 0``; a recession direction is one with y >= 0,
    and y != 0 because the normals span, so it scales to ``1 . y = 1``.
    """
    rows = [*poly.relations, [1] * poly.n]
    rhs = [0] * len(poly.relations) + [1]
    return _simplex("boundedness LP (bases)", budget, rows, rhs) == "infeasible"


def is_bounded(poly: HPolytope, budget: int = DEFAULT_SUBSET_BUDGET) -> bool:
    """Exact boundedness: full-rank normals and no recession direction (one LP)."""
    return len(poly.relations) == poly.n - poly.dim and _bounded(poly, budget)


def _first_vertex(normals, offsets, k: int):
    """``(d, slacks)`` for the first k-subset S, in lexicographic order, whose
    solve ``A_S y = -e_S = N / d`` has no negative slack ``<a_i, N> + d * e_i``;
    None when there is none."""
    for subset in combinations(range(len(normals)), k):
        solved = linalg.solve_square([normals[i] for i in subset], [-offsets[i] for i in subset])
        if solved is None:
            continue
        nums, d = solved
        slacks = []
        for a, e in zip(normals, offsets):
            value = sum(x * y for x, y in zip(a, nums) if x) + e * d
            if value < 0:
                break
            slacks.append(value)
        else:
            return d, slacks
    return None


def _primal_vertices(poly: HPolytope, budget: int) -> list[Vertex]:
    """Vertices by a walk along the edges from the first feasible k-subset.

    With e the offsets scaled by their common denominator, a point
    ``y = N / D`` has the slacks ``<a_i, N> + D * e_i`` over D, and the walk
    carries only these.  The start is the first k-subset S, in lexicographic
    order, whose solve ``A_S y = -e_S`` (``d = |det A_S|``) has no negative
    slack; an empty polytope tries them all.  At a vertex with active set S,
    each k-subset B of S with nonsingular normals is one elimination of
    ``[A_B^T | A]``: row c holds the rates ``a_j . D_c`` of every slack along
    the direction ``D_c`` that leaves facet ``B[c]`` and keeps the rest of B
    tight, times ``d = |det A_B|``.  ``D_c`` is an edge when no slack in S
    falls along it; the ratio test over the falling slacks outside S, by
    cross-multiplication, finds the neighbour's slacks, and an edge that
    nothing blocks is an unbounded ray.  The vertices of a pointed
    polyhedron and its bounded edges form a connected graph (Balinski,
    1961), and every edge is some ``D_c``, so the walk reaches every vertex.
    A vertex's index is ``d / det L`` for the first nonsingular B, which is
    the first k-subset in lexicographic order that solves to the vertex.
    The budget is still the C(n, k) subsets, counted up front.
    """
    scale, offsets = poly.integer_offsets
    _check_budget("vertex enumeration (k-subsets)", poly.n, poly.dim, budget)
    k, normals, matrix = poly.dim, poly.normals, poly.matrix()
    first = _first_vertex(normals, offsets, k)
    if first is None:
        return []
    lattice = poly.normal_lattice_det
    seen = set()
    stack = []

    def reach(den, slacks):
        # queue slacks / den in lowest terms, unless seen
        g = math.gcd(den, *slacks)
        key = (den // g, tuple(x // g for x in slacks))
        if key not in seen:
            seen.add(key)
            stack.append(key)

    reach(*first)
    vertices = []
    while stack:
        den, slacks = stack.pop()
        active = [j for j, x in enumerate(slacks) if not x]
        index = None
        for basis in combinations(active, k):
            rows = [[normals[i][r] for i in basis] + row for r, row in enumerate(matrix)]
            solved = linalg.solve(rows, k)
            if solved is None:
                continue
            eliminated, d = solved
            if index is None:
                index = d // lattice
            for rates in eliminated:
                if any(rates[j] < 0 for j in active):
                    continue
                # ratio test over the slacks outside S: the least x / -rate is v / w
                v = w = None
                for x, rate in zip(slacks, rates):
                    if rate < 0 and x and (w is None or x * w < v * -rate):
                        v, w = x, -rate
                if w is not None:
                    reach(den * w, [w * x + v * y for x, y in zip(slacks, rates)])
        vertices.append(_vertex(slacks, den * scale, active, index))
    return vertices


def _feasible_bases(cols, rhs):
    """``(B, numerators, d)`` for each m-subset B, in lexicographic order, with
    ``Gamma_B`` nonsingular and ``s_B = Gamma_B^-1 rhs = numerators / d >= 0``,
    ``d = |det Gamma_B|``.

    For m = 2 no pair is solved.  With ``c_j = det(gamma_j, rhs)`` and
    ``D = det(gamma_i, gamma_j)``, Cramer's rule gives ``s_B = (-c_j, c_i) / D``,
    so B is feasible exactly when ``D != 0`` and ``c_i D >= 0 >= c_j D``: the
    cone of the two columns holds ``rhs``.
    """
    if len(rhs) == 2:
        u, v = rhs
        cross = [x * v - y * u for x, y in cols]
        for i, j in combinations(range(len(cols)), 2):
            (a, b), (c, e) = cols[i], cols[j]
            d = a * e - b * c
            if d and cross[i] * d >= 0 >= cross[j] * d:
                sign = 1 if d > 0 else -1
                yield (i, j), (-sign * cross[j], sign * cross[i]), sign * d
        return
    for subset in combinations(range(len(cols)), len(rhs)):
        solved = linalg.solve_square(list(zip(*(cols[j] for j in subset))), rhs)
        if solved is not None and all(x >= 0 for x in solved[0]):
            yield subset, *solved


def _gale_vertices(poly: HPolytope, budget: int) -> list[Vertex]:
    """Vertices from the basic feasible slack vectors of ``Gamma s = Gamma b, s >= 0``.

    Each m-subset B with ``Gamma_B`` nonsingular gives ``s_B = Gamma_B^-1 Gamma b``
    as numerators over ``d = |det Gamma_B|`` and ``s = 0`` off B; it is a
    vertex when the numerators are ``>= 0`` (for m = 2 a sign rule on the
    columns of ``Gamma``, see ``_feasible_bases``), and a degenerate vertex is
    reached from several B, so slack vectors are deduplicated.  The budget is
    the C(n, m) subsets, counted up front for every m.  The slacks are
    scaled by the common offset denominator so the right-hand side is
    integral; the vertex records them over ``d`` times that denominator, in
    lowest terms, the form that also keys the deduplication.
    """
    relations, rhs = poly.relations, poly.relation_values
    n, m = poly.n, len(relations)
    _check_budget("vertex enumeration (Gale m-subsets)", n, m, budget)
    scale = poly.integer_offsets[0]
    cols = [tuple(row[j] for row in relations) for j in range(n)]
    seen = set()
    vertices = []
    for subset, nums, d in _feasible_bases(cols, rhs):
        g = math.gcd(d * scale, *nums)
        slacks = [0] * n
        for j, x in zip(subset, nums):
            slacks[j] = x // g
        key = (d * scale // g, *slacks)
        if key not in seen:
            seen.add(key)
            active = [j for j, x in enumerate(slacks) if not x]
            vertices.append(Vertex(tuple(slacks), key[0], tuple(active), d))
    return vertices


def enumerate_vertices(poly: HPolytope, budget: int = DEFAULT_SUBSET_BUDGET) -> VertexSet:
    """All vertices with their full active sets, in the order of their slack
    vectors, plus emptiness/boundedness flags.

    The enumeration runs on the side with the smaller square systems:
    k-subsets when k <= m, Gale m-subsets when m < k.  A system whose
    normals do not span R^k has no vertices; its feasibility is still
    decided (by one LP on ``Gamma``) and reported through the flags.
    """
    m, k = len(poly.relations), poly.dim
    if m != poly.n - k:
        minimum = _simplex("feasibility LP (bases)", budget, poly.relations, poly.relation_values)
        return VertexSet((), False, minimum == "infeasible", False)
    vertices = _gale_vertices(poly, budget) if m < k else _primal_vertices(poly, budget)
    if not vertices:
        return VertexSet((), True, True, True)
    common = math.lcm(*(v.den for v in vertices))
    vertices.sort(key=lambda v: [x * (common // v.den) for x in v.slacks])
    return VertexSet(tuple(vertices), _bounded(poly, budget), False, True)


def is_simple(vertex_set: VertexSet, dim: int) -> bool:
    """Exactly ``dim`` inequalities tight at every vertex."""
    return all(len(v.active) == dim for v in vertex_set.vertices)


def is_delzant(poly: HPolytope, vertex_set: VertexSet) -> bool:
    """At every vertex the active normals are a basis of the normal lattice.

    Requires a simple presentation whose normals span R^k; its vertices'
    ``index`` is that of their active normals' sublattice.
    """
    if not (vertex_set.pointed and is_simple(vertex_set, poly.dim)):
        raise PolytopeError("Delzant test requires a simple presentation with spanning normals")
    return all(v.index == 1 for v in vertex_set.vertices)


def is_fano(poly: HPolytope):
    """Fano up to translation.

    True iff every normal is primitive and there are ``C > 0`` and rational
    ``y`` with ``b - C*1 = A^T y``, i.e. translating by ``-y`` makes every
    offset equal to ``C``.  Returns ``(flag, C, y)``.

    The image of ``A^T`` is the kernel of the relation rows ``Gamma``, so C
    is read off ``Gamma b = C * Gamma 1``; when ``Gamma 1 = 0`` every C
    works and 1 is reported.  y is unique when the normals span R^k;
    otherwise the solution supported on the pivot columns of their
    elimination is reported.
    """
    for a in poly.normals:
        if math.gcd(*(abs(x) for x in a)) != 1:
            return False, None, None
    ones = [sum(row) for row in poly.relations]
    scale, offsets = poly.integer_offsets
    values = poly.relation_values  # scale * Gamma b
    # C = p / q off the first row with a nonzero Gamma 1, compared by cross-multiplying
    p, q = next(((v, scale * x) for v, x in zip(values, ones) if x), (1, 1))
    if p * q <= 0 or any(v * q != p * scale * x for v, x in zip(values, ones)):
        return False, None, None
    # b - C = (q * e - p * scale) / (scale * q), with e = scale * b
    target = [q * e - p * scale for e in offsets]
    translation = linalg.solve_affine([list(a) for a in poly.normals], target)[0]
    return True, Fraction(p, q), tuple(y / (scale * q) for y in translation)


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
    its vertex-facet incidence.  Otherwise (an empty polytope, or an index
    tight at every vertex) each index i is one LP over the slack vectors
    ``Gamma s = Gamma b``: i is redundant iff the minimum of s_i subject to
    ``s_j >= 0`` for j != i is >= 0, and strict iff it is > 0.  With no such
    s the set stays empty without i (strict); with s_i unbounded below, i is
    not redundant.
    """
    if vertex_set is None:
        vertex_set = enumerate_vertices(poly, budget)
    if not vertex_set.empty:
        if not vertex_set.bounded:
            raise PolytopeError("redundancy analysis requires a bounded polytope")
        flags = _incidence_redundancy(poly.n, vertex_set.vertices)
        if flags is not None:
            return flags
    flags = {}
    for i in range(poly.n):
        # s_i is free: it is split as y_i - y_n
        rows = [[*row, -row[i]] for row in poly.relations]
        cost = [int(j == i) for j in range(poly.n)] + [-1]
        minimum = _simplex("redundancy LP (bases)", budget, rows, poly.relation_values, cost)
        if minimum == "infeasible":
            flags[i] = True
        elif minimum != "unbounded" and minimum >= 0:
            flags[i] = minimum > 0
    return flags


def structure_report(poly: HPolytope, budget: int = DEFAULT_SUBSET_BUDGET) -> StructureReport:
    """Run every structural predicate on one vertex enumeration and assemble the report."""
    notes: list[str] = []
    vertex_set = enumerate_vertices(poly, budget)
    bounded = vertex_set.bounded and not vertex_set.empty
    if vertex_set.empty:
        notes.append("empty feasible set")
    if not vertex_set.pointed:
        notes.append("normals are rank-deficient: no vertices, unbounded if nonempty")
    simple = delzant = None
    if vertex_set.vertices:
        simple = is_simple(vertex_set, poly.dim)
        delzant = simple and is_delzant(poly, vertex_set)
    fano, constant, translation = is_fano(poly)
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
        vertex_set=vertex_set,
        simple=simple,
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
        "bounded": report.vertex_set.bounded,
        "empty": report.vertex_set.empty,
        "simple": report.simple,
        # the active normals of a vertex span R^k, so they are independent
        # (generic) exactly when there are k of them (simple)
        "generic": report.simple,
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
