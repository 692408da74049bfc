"""Pinned SHA-256 digests of the ``analyze`` JSON for a fixed sample.

The sample spans the two catalog families across their parameter grid
(including non-simple twisted products) and seeded random presentations
on both sides of the vertex enumeration choice: boxes with cuts (m >= k)
and simplices with cuts (m < k), with tangent cuts and rational offsets.
Each digest is of the exact text ``delzant analyze`` (or, for three family
instances, ``analyze --oracle --seed 0``) prints, so any change
to a reported byte fails here.
"""

import hashlib
import json
import random
import warnings
from fractions import Fraction

import pytest

from delzant.analysis import analysis_to_json, analyze_polytope
from delzant.families import (
    FamilyRangeWarning,
    gen_product_simplices,
    gen_redundant_simplex,
    parse_family_spec,
)
from delzant.polytopes import HPolytope

PRODUCTS = [
    (4, 6, 0), (4, 6, 2), (4, 8, 2), (4, 10, 0), (6, 8, 4), (6, 10, 2), (6, 12, 0),
    (8, 12, 6), (8, 14, 4), (10, 16, 8), (4, 20, 2), (12, 20, 10),
]  # fmt: skip
REDUNDANT = [
    (5, 2), (7, 4), (9, 4), (13, 8), (17, 10), (21, 12), (25, 20), (29, 16), (33, 20), (33, 30),
]  # fmt: skip


def random_presentation(seed: int) -> HPolytope:
    """A box (even seeds) or simplex (odd seeds) around the origin, plus cuts.

    Every cut keeps the origin strictly inside; a cut whose offset equals
    its reach touches a corner of the base polytope.
    """
    rng = random.Random(seed)
    k = rng.randint(2, 3) if seed % 2 == 0 else rng.randint(3, 5)
    unit = [tuple(int(r == i) for r in range(k)) for i in range(k)]
    if seed % 2 == 0:
        half = rng.randint(1, 3)
        normals = unit + [tuple(-x for x in e) for e in unit]
        offsets = [Fraction(half)] * (2 * k)
        extra = rng.randint(1, 4)
    else:
        normals = unit + [(-1,) * k]
        offsets = [Fraction(1)] * k + [Fraction(rng.randint(1, 3))]
        extra = rng.randint(1, 2)
    while extra:
        a = tuple(rng.randint(-2, 2) for _ in range(k))
        if not any(a):
            continue
        if seed % 2 == 0:
            reach = half * sum(abs(x) for x in a)
        else:
            corners = [[-1] * k] + [
                [-1 + (offsets[k] + k) * (j == i) for j in range(k)] for i in range(k)
            ]
            reach = -min(sum(x * c for x, c in zip(a, corner)) for corner in corners)
        normals.append(a)
        offsets.append(rng.choice([Fraction(reach), Fraction(2 * reach + 1, 2), Fraction(1)]))
        extra -= 1
    order = list(range(len(normals)))
    rng.shuffle(order)
    return HPolytope(k, tuple(normals[i] for i in order), tuple(offsets[i] for i in order))


def sample():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FamilyRangeWarning)
        for params in PRODUCTS:
            yield f"product-simplices{params}", gen_product_simplices(*params)
        for params in REDUNDANT:
            yield f"redundant-simplex{params}", gen_redundant_simplex(*params)
    for seed in range(20):
        yield f"random({seed})", random_presentation(seed)


def digest(poly: HPolytope, **options) -> str:
    text = json.dumps(analysis_to_json(analyze_polytope(poly, **options)), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# computed with the primal k-subset structure layer that tests/primal_reference.py keeps
GOLDEN = {
    "product-simplices(4, 6, 0)": "ab8d7d2672ea51d8b91205abf59a2f09dd56c07012b8257f0518049c5040708d",
    "product-simplices(4, 6, 2)": "4b7f3b289ed5598aee243d6798a88d2e83fd090ec191e1f11e5edf76bd9aca78",
    "product-simplices(4, 8, 2)": "e771a06938c66c5a9f809bd3e4ba94c51533eb2680132abc49f9698f36b3ac84",
    "product-simplices(4, 10, 0)": "f83f71352f0870a80c2f22c06f12e8c9e3f200b652a87026e9f1238a92400d85",
    "product-simplices(6, 8, 4)": "61032179c5e9d60bb2499f0c5541884021b6be48f87ef84733f0ae70f36d8eac",
    "product-simplices(6, 10, 2)": "fbe11eb49bf02b5be61811d3791187258b2a8e0a93e48254b94b3b470eba4bcc",
    "product-simplices(6, 12, 0)": "f6dd80703f3d21996a7e2387d318ee52bda950de2f5719852d331fabd98e7675",
    "product-simplices(8, 12, 6)": "23bde6bfd441ed226062d726491828a6b74849ed46c3f4d9860ec600c5be3eb9",
    "product-simplices(8, 14, 4)": "e4b6a10835a081ba346f1fbf8a1c44c232c1661650a97d5340af13358525c02b",
    "product-simplices(10, 16, 8)": "5f8b5bba42c79fbe4c74fb359669ea81545f15fc7b012840fc55679af214578c",
    "product-simplices(4, 20, 2)": "d7671ed4543e673ea084e2d3cf77b44893b07d0e6ab9828df29710fe876c1acb",
    "product-simplices(12, 20, 10)": "6b3e966d93a8a864cf17d2b0f40a19485b50adedd40676f3e016ec5237eab059",
    "redundant-simplex(5, 2)": "7124d5c26f01541868877690c8f9d39831415f0506e4a89b9988386059ba9b88",
    "redundant-simplex(7, 4)": "8bade103f1b093d7c435d249dd4361adafe02b0d376568f6c93ed41879407564",
    "redundant-simplex(9, 4)": "4b9e9910fcdc0866c2c590e18e2567fe508f1259faa974c21f9645a6a3ec5eac",
    "redundant-simplex(13, 8)": "2717543f9d47322b54cf143846e9f968518de29ec528acb026563e90000318b2",
    "redundant-simplex(17, 10)": "5f732f289c6219cceb30053766ad08dbc2c9685af11ce7d8bc233388bfa5ce31",
    "redundant-simplex(21, 12)": "2001da4213dbf388d9b047133def93041b33769bc096ff97988d071e42e64237",
    "redundant-simplex(25, 20)": "78744dedd429f5d878ef80d06558720d67a46136268932b8c3f9be5506cdb730",
    "redundant-simplex(29, 16)": "c51da66ae1ab587e51302ff50bce7f525798718b39655e615630e9d1221ba401",
    "redundant-simplex(33, 20)": "426984528c6d7f7db1e97c551f2cb3ded1746a16d13f1359727572479a21cc40",
    "redundant-simplex(33, 30)": "fdf6e09754d3a3127fca2e6ae68398798d61d8562000107284680437534af365",
    "random(0)": "ad6748665726f14a5cddff140bed855039db74026b927df81fdbdfb415d0ddc6",
    "random(1)": "9ed1d991a4474b1c312faafb9de6a168d79a8f6e875dc2cdd84f4a16231cac80",
    "random(2)": "31a7efed55900c33bb38f042e3148c55857a0a5dbf2d9211786da94aa2170862",
    "random(3)": "0b0145ab09b03c7de70fb783e2576e48c490fb8b11b3595e9cac0d89cceddb4c",
    "random(4)": "8f3e241575746a7b22d03c5f7060de621bc42de7b52d2c11a7d07bdc1fc4c617",
    "random(5)": "03df21059fb87823e5ab01bf75711510e43b7778b67b5f0181c1273e021f5265",
    "random(6)": "5dc45632d11b03123f25529b136547a63596d94c4eaf96f8a774886f38b215d8",
    "random(7)": "d14ea6b7db70548b2535ca1e3b3145b4f65ea804bef44c2db17e7d10988c4ae6",
    "random(8)": "b7134d48048ab8bd28aae00ac6aea81b6e1614a5ee490947aaf7e9b5beb139ea",
    "random(9)": "1537e0b0b07f5879550c2b11264a60a6cab5e5b3ddce47304f9617202dafe800",
    "random(10)": "25693c622db11d0a9d698cc458dd7a5ab189e6a2d266a1b45d2a7dc8965c2a63",
    "random(11)": "07b68c9bd4d39cc245c003bbcb39b506f75bda4db6e7a409b31368bb8c6dbfb9",
    "random(12)": "114883f2c26c2eb2f822992bff367915aeedcb56aa647b10238bca4448e3c47e",
    "random(13)": "5fa6097904846ac2093de0529e27ec5235056dbbcff5ece39a2de3be0f352210",
    "random(14)": "abdfb699c3cee3fd674de8ae32d6a9938681165103e79f7f72c1df0c011b784e",
    "random(15)": "499910270e5e1c4cf37211ba2302ccd40452fd586c5073c6a6456ebb98dbed14",
    "random(16)": "5a71a86230618cba3dc10ebc68ca208fbd71cbc09e0882679fc58e4d6d44aaf1",
    "random(17)": "d5f2da46a7c63954388170878d3ae1c4bfa5c5b5a84c8114530194f51113c034",
    "random(18)": "dd6f603adc445cb2096109cbc5460681afa16b7eb0e4329fbb4d0338bc64b39d",
    "random(19)": "32de6655c7c8ad26c96b3b9c5bf15f6b6298fc1f0b78038a888aa177e6208c81",
}


CASES = dict(sample())


@pytest.mark.parametrize("label", list(CASES))
def test_analyze_digest(label):
    assert digest(CASES[label]) == GOLDEN[label]


# ``analyze --oracle --seed 0``, computed before ``oracle.oracle_checks`` built
# the records that ``analyze`` reports
ORACLE_GOLDEN = {
    "redundant-simplex:n=5,k=2": "6d6fb4e49f2eae0e796e2addbcb3ee95d7dccf538374c9c61ba6de4f852a8c63",
    "redundant-simplex:n=13,k=8": "dad354442a03447901d5663d83003599ee9d8a4eee11a840aa4d8847d1d7967c",
    "product-simplices:p=4,n=10,k=2": "209c155f7a0be24f892a59aa40389b8728eb03d4eae838fd182827ebb66c1cf0",
}


@pytest.mark.parametrize("spec", list(ORACLE_GOLDEN))
def test_analyze_oracle_digest(spec):
    assert digest(parse_family_spec(spec), with_oracle=True, seed=0) == ORACLE_GOLDEN[spec]
