"""References for ``spectral.run_engine`` and ``spectral.brute_force_vanishes``.

``run_engine`` here is the page-by-page propagation: every page rebuilds the
lower bounds, clipped at zero, and the witness is the least survivor.  The
library evaluates the same bound in closed form.

``brute_force_vanishes`` here is the unpruned rank search: every page
rebuilds its chains and walks every per-chain rank assignment, and the
Cartesian product of the outcomes is searched page by page.  The library's
search prunes what cannot change the answer.  ``test_spectral`` requires
each pair to agree.
"""

from __future__ import annotations

from functools import lru_cache

from delzant.spectral import EngineResult, HomologyProfile, _check_model, collapse_page


def run_engine(profile: HomologyProfile, n: int) -> EngineResult:
    """Lower-bound propagation for Maslov candidate ``n``.

    Page r sends degree d to d + rn - 1 and receives from d + 1 - rn; the
    lower bound drops by the (constant) upper bounds of those two slots.
    Excluded iff some degree is still positive at the collapse page.
    """
    if n < 2:
        raise ValueError("Maslov candidates start at 2")
    _check_model(profile)
    upper = profile.as_dict()
    lower = dict(upper)
    pages = collapse_page(profile.l_dim, n)
    for r in range(1, pages):
        shift = r * n - 1
        lower = {
            d: max(0, v - upper.get(d + shift, 0) - upper.get(d - shift, 0))
            for d, v in lower.items()
        }
    survivors = sorted(d for d, v in lower.items() if v > 0)
    if survivors:
        return EngineResult(True, survivors[0])
    return EngineResult(False, None)


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
    degrees = sorted(profile.as_dict())
    start = tuple(profile.as_dict().get(d, 0) for d in degrees)
    pages = collapse_page(profile.l_dim, n)
    index = {d: i for i, d in enumerate(degrees)}

    @lru_cache(maxsize=None)
    def reachable(page: int, dims: tuple[int, ...]) -> bool:
        if not any(dims):
            return True
        if page >= pages:
            return False
        shift = page * n - 1
        chains: list[list[int]] = []
        seen: set[int] = set()
        for d in degrees:
            if d in seen:
                continue
            chain = []
            cur = d
            while cur in index and cur not in seen:
                seen.add(cur)
                chain.append(cur)
                cur += shift
            chains.append(chain)

        per_chain_outcomes: list[list[tuple[int, ...]]] = []
        for chain in chains:
            vals = [dims[index[d]] for d in chain]
            outcomes: list[tuple[int, ...]] = []

            def walk(pos: int, prev_rank: int, acc: tuple[int, ...]):
                if pos == len(vals):
                    outcomes.append(acc)
                    return
                remaining = vals[pos] - prev_rank
                if remaining < 0:
                    return
                if pos == len(vals) - 1:
                    walk(pos + 1, 0, acc + (remaining,))
                    return
                max_rank = min(remaining, vals[pos + 1])
                for rank in range(max_rank + 1):
                    walk(pos + 1, rank, acc + (remaining - rank,))

            walk(0, 0, ())
            per_chain_outcomes.append(sorted(set(outcomes)))

        def combine(ci: int, dims_acc: dict[int, int]) -> bool:
            if ci == len(chains):
                new_dims = tuple(dims_acc[d] for d in degrees)
                return reachable(page + 1, new_dims)
            for outcome in per_chain_outcomes[ci]:
                for d, v in zip(chains[ci], outcome):
                    dims_acc[d] = v
                if combine(ci + 1, dims_acc):
                    return True
            return False

        return combine(0, {})

    return reachable(1, start)
