"""Dimension-count engine for the lifted-Floer spectral sequence.

The first page is the Z2-homology of the universal cover, graded so that a
page-r differential moves degree ``d`` to ``d + rN - 1`` for the candidate
minimal Maslov number ``N``.  Everything must cancel by page
``floor((dim L + 1)/N) + 1``; a conservative per-page lower bound on the
surviving dimensions therefore excludes candidates: whatever survives the
bound can never die.  The engine is sound (never excludes a realizable N),
not sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .polytopes import PolytopeFormatError, load_json, parse_bool, parse_integer


class ProfileError(ValueError):
    """Raised for homology profiles outside the engine's model."""


@dataclass(frozen=True)
class HomologyProfile:
    """Z2 Betti numbers of a compact universal cover, plus dim L."""

    dims: tuple[tuple[int, int], ...]  # sorted (degree, dimension), dimensions > 0
    l_dim: int
    orientable: bool

    @staticmethod
    def from_dims(dims: Mapping[int, int], l_dim: int, orientable: bool) -> "HomologyProfile":
        cleaned = {int(d): int(v) for d, v in dims.items() if int(v)}
        if not cleaned or cleaned.get(0, 0) < 1:
            raise ProfileError("profile must have dim H_0 >= 1")
        if any(d < 0 or v < 0 for d, v in cleaned.items()):
            raise ProfileError("degrees and dimensions must be non-negative")
        cover_dim = max(cleaned)
        if cover_dim > l_dim:
            raise ProfileError("top homology degree exceeds dim L")
        return HomologyProfile(tuple(sorted(cleaned.items())), l_dim, orientable)

    @property
    def cover_dim(self) -> int:
        return self.dims[-1][0]

    def as_dict(self) -> dict[int, int]:
        return dict(self.dims)


@dataclass(frozen=True)
class EngineResult:
    excluded: bool
    witness_degree: int | None


def collapse_page(l_dim: int, n: int) -> int:
    return (l_dim + 1) // n + 1


def _check_model(profile: HomologyProfile) -> None:
    # a contractible cover (tori etc.) means the universal cover is not
    # compact; the counting model assumes sphere-product-like covers
    if profile.cover_dim == 0 and profile.l_dim > 0:
        raise ProfileError(
            "universal cover is contractible (non-compact cover); "
            "the dimension-count model does not apply"
        )


def run_engine(profile: HomologyProfile, n: int) -> EngineResult:
    """Lower-bound propagation for Maslov candidate ``n``.

    Page r sends degree d to d + rn - 1 and receives from d + 1 - rn; the
    lower bound drops by the upper bounds of those two slots, which are
    constant and nonnegative, so it is clipped at zero once, not per page.
    Excluded iff some degree stays positive; the least one is the witness.
    """
    if n < 2:
        raise ValueError("Maslov candidates start at 2")
    _check_model(profile)
    upper = profile.as_dict()
    shifts = [r * n - 1 for r in range(1, collapse_page(profile.l_dim, n))]
    for d, v in profile.dims:
        for shift in shifts:
            v -= upper.get(d + shift, 0) + upper.get(d - shift, 0)
            if v <= 0:
                break
        else:
            return EngineResult(True, d)
    return EngineResult(False, None)


def candidate_verdicts(
    profile: HomologyProfile, n_max: int
) -> list[tuple[int, EngineResult | None]]:
    """Each N in [2, n_max] with its verdict: None where parity excludes it (odd N,
    orientable L), else its one ``run_engine`` result.  No other code decides either."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return [
        (n, None if profile.orientable and n % 2 else run_engine(profile, n))
        for n in range(2, n_max + 1)
    ]


def admissible_maslov(profile: HomologyProfile, n_max: int) -> set[int]:
    """Candidates in [2, n_max] not excluded; odd ones are out for orientable L."""
    verdicts = candidate_verdicts(profile, n_max)
    return {n for n, result in verdicts if result is not None and not result.excluded}


def binomial_lemma(m: int) -> bool:
    """Central binomial dominance: is C(m, m//2) larger than the tails beyond offset 2?

    Exact integer arithmetic.  The inequality holds for 4 <= m <= 14 and is
    false for every m >= 15: the central coefficient grows like 2^m/sqrt(m)
    while the tails keep a constant fraction of 2^m.  See
    ``binomial_details`` for the witnesses and the companion induction
    bound (false from m = 8 on: 2^7 = 128 > C(8,4) + C(8,5) = 126).
    """
    return binomial_details(m)["holds"]


def binomial_details(m: int) -> dict:
    """Exact evaluation of the dominance inequality and its induction bound."""
    if m < 4:
        raise ValueError("the inequality is asserted for m >= 4")
    from math import comb

    half = m // 2
    central = comb(m, half)
    tails = sum(comb(m, i) for i in range(0, half - 2)) + sum(
        comb(m, i) for i in range(half + 3, m + 1)
    )
    details = {
        "central": central,
        "tails": tails,
        "holds": central > tails,
    }
    if m % 2 == 0:
        details["induction_bound_holds"] = (
            2 ** (m - 1) < comb(m, half) + comb(m, half + 1)
        )
    return details


def brute_force_vanishes(profile: HomologyProfile, n: int) -> bool:
    """Independent oracle: does some differential rank assignment kill everything?

    Searches every per-page, per-degree rank profile subject to the
    dimension constraints (rank into a degree plus rank out of it cannot
    exceed its dimension, and a rank is bounded by source and target), and
    asks whether all dimensions can reach zero by the collapse page.
    """
    if n < 2:
        raise ValueError("Maslov candidates start at 2")
    _check_model(profile)
    degrees = [d for d, _ in profile.dims]
    index = {d: i for i, d in enumerate(degrees)}
    pages = collapse_page(profile.l_dim, n)
    shifts = {page: page * n - 1 for page in range(1, pages)}
    # each degree's last page with a partner one shift away, by index: after
    # it the degree is alone in its chain and never changes, so that page must
    # leave it zero; a degree with none can never change at all
    last: dict[int, int] = {}
    for page, shift in shifts.items():
        for i, d in enumerate(degrees):
            j = index.get(d + shift)
            if j is not None:
                last[i] = last[j] = page
    if len(last) < len(degrees):
        return False
    # page r's differential runs along its chains: the maximal runs
    # d, d + shift, d + 2 shift, ... of degrees present, as index tuples
    chains: dict[int, list[tuple[int, ...]]] = {}
    for page, shift in shifts.items():
        chains[page] = []
        for d in degrees:
            if d - shift in index:
                continue
            chain = []
            while d in index:
                chain.append(index[d])
                d += shift
            chains[page].append(tuple(chain))
    masks = {p: [tuple(last[i] <= p for i in chain) for chain in chains[p]] for p in chains}

    def dies(vals: tuple[int, ...]) -> bool:
        # a chain dies in one page iff its ranks telescope to zero
        rank = 0
        for v in vals:
            rank = v - rank
            if rank < 0:
                return False
        return rank == 0

    outcomes_of: dict[tuple, list[tuple[int, ...]]] = {}

    def outcomes(vals: tuple[int, ...], mask: tuple[bool, ...]) -> list[tuple[int, ...]]:
        # every dimension tuple a chain can keep: the rank out of each degree
        # is bounded by what the rank into it left and by the next degree (0
        # past the end); a degree that must die passes on all it has left
        if (vals, mask) not in outcomes_of:
            partial = [((), 0)]
            for v, nxt, must_die in zip(vals, vals[1:] + (0,), mask):
                partial = [
                    (kept + (v - prev - rank,), rank)
                    for kept, prev in partial
                    for rank in ((v - prev,) if must_die else range(min(v - prev, nxt) + 1))
                    if rank <= nxt
                ]
            outcomes_of[vals, mask] = [kept for kept, _ in partial]
        return outcomes_of[vals, mask]

    reached: dict[tuple[int, tuple[int, ...]], bool] = {}

    def reachable(page: int, dims: tuple[int, ...]) -> bool:
        if page == pages - 1:
            return all(dies(tuple(dims[i] for i in chain)) for chain in chains[page])
        if (page, dims) not in reached:
            options = [
                outcomes(tuple(dims[i] for i in chain), mask)
                for chain, mask in zip(chains[page], masks[page])
            ]
            found = False
            for choice in product(*options):
                after = list(dims)
                for chain, kept in zip(chains[page], choice):
                    for i, v in zip(chain, kept):
                        after[i] = v
                if reachable(page + 1, tuple(after)):
                    found = True
                    break
            reached[page, dims] = found
        return reached[page, dims]

    return reachable(1, tuple(v for _, v in profile.dims))


def parse_profile(text: str | bytes) -> HomologyProfile:
    """Parse ``{"dims": {"0": 1, ...}, "L_dim": int, "orientable": bool}``."""
    data = load_json(text)
    if not isinstance(data, dict) or not {"dims", "L_dim", "orientable"} <= set(data):
        raise PolytopeFormatError(
            "profile JSON needs keys 'dims', 'L_dim' and 'orientable'"
        )
    dims_raw = data["dims"]
    if not isinstance(dims_raw, dict):
        raise PolytopeFormatError("'dims' must map degrees to dimensions")
    dims = {
        parse_integer(k, "degree in 'dims'"): parse_integer(v, "entry of 'dims'")
        for k, v in dims_raw.items()
    }
    l_dim = parse_integer(data["L_dim"], "'L_dim'")
    orientable = parse_bool(data["orientable"], "'orientable'")
    try:
        return HomologyProfile.from_dims(dims, l_dim, orientable)
    except ProfileError as exc:
        raise PolytopeFormatError(str(exc)) from None


def profile_to_json(profile: HomologyProfile) -> dict:
    return {
        "dims": {str(d): v for d, v in profile.dims},
        "L_dim": profile.l_dim,
        "orientable": profile.orientable,
    }
