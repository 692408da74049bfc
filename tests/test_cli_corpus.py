"""Pinned stdout of every ``delzant`` command on a fixed corpus of command lines.

Each entry of ``CORPUS`` is one command line, run in-process through
``cli.main``, with its exit code and the SHA-256 of what it prints on
stdout; stderr is not pinned.  An argument ``@name`` stands for the path of
a file holding ``INPUTS[name]``.  The inputs are catalog members (by spec
and as files), the det L = 2 box, slanted top and diamond, a cut square, a
pyramid with a non-simple apex, Gale-side simplices with cuts, strictly
and non-strictly redundant squares, P(1,1,2), and empty, unbounded,
rank-deficient, k = 0, zero-normal and malformed inputs; the options
include malformed integers.  A refused command pins the empty stdout.
``VERIFY`` pins the whole ``verify`` stdout and exit code, at the default
seeds and at ``--seed 7``.
"""

import hashlib

import pytest

from delzant.cli import main

INPUTS = {
    "product": '{"A": [[1, 0, 0, -1, 0, 0, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0, 0, 0, 0], '
    '[0, 0, 1, -1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0, -1], '
    '[0, 0, 0, 0, 0, 1, 0, 0, 0, -1], [0, 0, 0, 0, 0, 0, 1, 0, 0, -1], '
    '[0, 0, 0, 0, 0, 0, 0, 1, 0, -1], [0, 0, 0, 0, 0, 0, 0, 0, 1, -1]], '
    '"b": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]}',
    # [0, 2] x [0, 3] in the index-2 normal lattice {(2a, b)}
    "box2": '{"A": [[2, 0, -2, 0], [0, 1, 0, -1]], "b": [0, 0, 4, 3]}',
    # the same lattice with a slanted top: a vertex of index 2
    "slanted": '{"A": [[2, 0, -2, 2], [0, 1, 0, -2]], "b": [0, 0, 4, 4]}',
    "diamond": '{"A": [[1, 1, -1, -1], [1, -1, 1, -1]], "b": [1, 1, 1, 1]}',
    # P(1,1,2): the vertex (-1, -1, 2) has a slack numerator 4 over d = 2
    "p112": '{"A": [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -2]], "b": [1, 1, 0, 2]}',
    # [-1, 1]^2 with one corner cut off
    "cut-square": '{"A": [[1, 0, -1, 0, -1], [0, 1, 0, -1, -1]], "b": [1, 1, 1, 1, 1]}',
    "rational-cut": '{"A": [[1, 0, -1, 0, 1, -2], [0, 1, 0, -1, 1, 1]], '
    '"b": ["3/2", "3/2", "3/2", "3/2", "5/2", "7/3"]}',
    # four facets meet at the apex (0, 0, 1)
    "pyramid": '{"A": [[0, 1, -1, 0, 0], [0, 0, 0, 1, -1], [1, -1, -1, -1, -1]], '
    '"b": [0, 1, 1, 1, 1]}',
    # a 4-simplex with one cut: m = 2 < k
    "gale-2": '{"A": [[1, 0, 0, 0, -1, -1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, -1, 1], '
    '[0, 0, 0, 1, -1, 0]], "b": [1, 1, 1, 1, 2, 1]}',
    # a 5-simplex with two cuts: m = 3 < k
    "gale-3": '{"A": [[1, 0, 0, 0, 0, -1, 1, 0], [0, 1, 0, 0, 0, -1, -1, 1], '
    '[0, 0, 1, 0, 0, -1, 0, -1], [0, 0, 0, 1, 0, -1, 1, 0], [0, 0, 0, 0, 1, -1, 0, 1]], '
    '"b": [1, 1, 1, 1, 1, 3, 2, "3/2"]}',
    "redundant": '{"A": [[1, 0, -1, 0, 1], [0, 1, 0, -1, 0]], "b": [1, 1, 1, 1, 5]}',
    "non-strict": '{"A": [[1, -1, 0, 0, 1], [0, 0, 1, -1, 1]], "b": [0, 2, 0, 2, 0]}',
    "empty": '{"A": [[1, -1]], "b": [-1, -1]}',
    "unbounded": '{"A": [[1, -1, 1, 0], [0, 0, 0, 1]], "b": [0, 1, 0, 1]}',
    "rank-deficient": '{"A": [[1, -1], [0, 0]], "b": [1, 1]}',
    "k0": '{"A": [], "b": []}',
    "zero-normal": '{"A": [[1, 0, -1], [0, 0, 0]], "b": [1, 1, 1]}',
    "malformed": "{",
    "float-entry": '{"A": [[1.5, -1]], "b": [1, 1]}',
    "short-b": '{"A": [[1, -1]], "b": [1]}',
    "quadrics": '{"Gamma": [[1, 1, 1, 1, 0], [1, 1, 0, 0, 1]], "delta": ["4", "6"]}',
    "point-quadrics": '{"Gamma": [[1, 0], [0, 1]], "delta": ["1", "2"]}',
    "zero-column-quadrics": '{"Gamma": [[0, 1]], "delta": ["0"]}',
    "inconsistent-quadrics": '{"Gamma": [[1, 1], [2, 2]], "delta": ["1", "3"]}',
    "profile": '{"dims": {"0": 1, "3": 2, "6": 1}, "L_dim": 8, "orientable": true}',
}

PRODUCT = "product-simplices:p=4,n=10,k=2"
REDUNDANT = "redundant-simplex:n=5,k=2"

# (command line, exit code, SHA-256 of stdout), computed before vertices were
# recorded as slack vectors; since then the oracle samples its point from
# their slack vectors, which moved the last digits of some floats outside
# the catalog on the lines marked re-pinned
CORPUS = [
    (f"analyze --family {PRODUCT}", 0, "ca1624bce8b13f5e3d19866ee48f3df9493f03e13c8ce1da67a8e8a386d88ce5"),
    (f"analyze --family {REDUNDANT}", 0, "7124d5c26f01541868877690c8f9d39831415f0506e4a89b9988386059ba9b88"),
    ("analyze --family product-simplices:p=6,n=12,k=4", 0, "2fcb4b8c24a33d4c00ccb82c2301aeac5805ca62127508b2f7c96834f8909ca0"),
    ("analyze --family redundant-simplex:n=13,k=8", 0, "2717543f9d47322b54cf143846e9f968518de29ec528acb026563e90000318b2"),
    ("analyze @product", 0, "f83f71352f0870a80c2f22c06f12e8c9e3f200b652a87026e9f1238a92400d85"),
    ("analyze @box2", 0, "cc63c2fcb757f1ab271241e05108a1396bcc3b92ab6b7e8c3eb2b471b91aec91"),
    ("analyze @slanted", 0, "7ca57a8dff17522c5a1b301f1d3d30454edccf6cbe799435f5a6fb284d946552"),
    ("analyze @p112", 0, "518e2bee655fd8c87231ece8277eb2b42e57d378fd0c495390a1a6c5f5b8257c"),
    ("analyze @diamond", 0, "ce5b534af723840e5a643cb23173212a0d5b87e4140587beba9ab47de46139f3"),
    ("analyze @cut-square", 0, "07430cac7f1f07e560c916d4bee503ed7402762913b72793a747cbfc9fbe5d73"),
    ("analyze @rational-cut", 0, "5524cb2aefdd5fa9412882a4c7747bfa28a1ef83694d6282b339711fa5bfcf1a"),
    ("analyze @pyramid", 0, "bbda3c82b05548769a714ba6dab63a24ad3df25023700e4c63f560bf5ab6c1ad"),
    ("analyze @gale-2", 0, "5d24afc151ad220293731c3f2f1f0066e530e3a8ade25ab1f624699200f77c11"),
    ("analyze @gale-3", 0, "4156dc1ddbfaa4fc52ea12c2ca16e2a8bd4ebe4c6858d198491bb431bee817e0"),
    ("analyze @redundant", 0, "73653e654c8d8d9b9ba3e8daba1257bed769bfa227c75175790d459d600060de"),
    ("analyze @non-strict", 0, "4e74c3fc142daaf9c690c919ab2afc05a086b75d5ce5308ffb9d9d1cae581616"),
    ("analyze @empty", 0, "64764cbbb788892e5a5104068cd36c7a8b52570f3335e99255953d2c590b42c6"),
    ("analyze @unbounded", 0, "ef7ae4f59b8448f0a550eded0f92d8a2e94d859d929f23582b072516e9e7f2fa"),
    ("analyze @rank-deficient", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @k0", 0, "d84fe785687cb53ac3431560efb8bb8d421763fed6dd3aa4833d89bbebd080e1"),
    ("analyze @zero-normal", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @malformed", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @float-entry", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @short-b", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"analyze --family {PRODUCT} --oracle", 0, "209c155f7a0be24f892a59aa40389b8728eb03d4eae838fd182827ebb66c1cf0"),
    (f"analyze --family {REDUNDANT} --oracle", 0, "6d6fb4e49f2eae0e796e2addbcb3ee95d7dccf538374c9c61ba6de4f852a8c63"),
    ("analyze @product --oracle", 0, "642af708cefb74de12d8488d546df03a32a3d0b635e506c7d1c5727e4d39ddd1"),
    ("analyze @box2 --oracle", 0, "ad9832d0816003ae910f0ad4616edf0e3c0acfde55a4f081299f59be376ef123"),
    ("analyze @slanted --oracle", 0, "c6dcf0c17dcb2a60834704901a2ccce3922e86decc816600c0c0f9855b5c22bd"),
    ("analyze @p112 --oracle", 0, "cc25affb9388b09576b96d89c8a39b1388560922d4251b019630b7cf6de68f59"),
    ("analyze @diamond --oracle", 0, "9507b8755363cdeeb5aeee0c095684092c28ae2333a4c897c3e77bf0e6f14567"),
    # re-pinned: oracle floats sampled from slack vectors
    ("analyze @cut-square --oracle", 0, "0a5e8ab6968756027f1007132f3c12a6fbbdd0610bb233fcdf0901590c84e8e5"),
    # re-pinned: oracle floats sampled from slack vectors
    ("analyze @rational-cut --oracle", 0, "71e35a75397853f50c33984b0febf89f952683da395f48fb389903e5471a94e9"),
    ("analyze @pyramid --oracle", 0, "694db61b150b1ed2eb3e4ffff543fa144715bb3c143770b334f31d6684174c05"),
    # re-pinned: oracle floats sampled from slack vectors
    ("analyze @gale-2 --oracle", 0, "d8645784c9551238123929dc0279975cf04d272174ee6aeb8275a89a899ec3ba"),
    # re-pinned: oracle floats sampled from slack vectors
    ("analyze @gale-3 --oracle", 0, "ae39edb73892717f1ace4c956a3787f6ac0f7626a1e2ada38fa23f4cb51394e5"),
    ("analyze @redundant --oracle", 0, "b8711687a788a4c1643fbd42250c1e770b017c88d14beeb606cc48856c44327c"),
    ("analyze @non-strict --oracle", 0, "aa8d0e1cc6989f879621da9c164277714313f15500932fea9110676eda19649e"),
    ("analyze @empty --oracle", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @unbounded --oracle", 0, "6c93e991a14b6d412e3f673de3651772187f21c45a4d63ddb893f07ba41b58d3"),
    ("analyze @rank-deficient --oracle", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"analyze --family {PRODUCT} --oracle --seed 3 --samples 300", 0, "209c155f7a0be24f892a59aa40389b8728eb03d4eae838fd182827ebb66c1cf0"),
    # re-pinned: oracle floats sampled from slack vectors
    ("analyze @diamond --oracle --seed 3 --samples 300", 0, "492eacdbc8723656a49400350f84ddd270257aba00d5e20b1a6dc33f305c210a"),
    ("analyze @cut-square --oracle --seed 3 --samples 300", 0, "74a8dbd11c594c095836db9b4d2cee4a603a2a500b0157ddcadf186b7674120e"),
    ("analyze @gale-3 --oracle --seed 3 --samples 300", 0, "7b7db305cd1cbe186f99525782138c11ce3bcd10bd1afded171df51dae315cd1"),
    (f"analyze --family {PRODUCT} --require-embedded", 0, "ca1624bce8b13f5e3d19866ee48f3df9493f03e13c8ce1da67a8e8a386d88ce5"),
    ("analyze @box2 --require-embedded", 0, "cc63c2fcb757f1ab271241e05108a1396bcc3b92ab6b7e8c3eb2b471b91aec91"),
    ("analyze @pyramid --require-embedded", 2, "bbda3c82b05548769a714ba6dab63a24ad3df25023700e4c63f560bf5ab6c1ad"),
    ("analyze @unbounded --require-embedded", 2, "ef7ae4f59b8448f0a550eded0f92d8a2e94d859d929f23582b072516e9e7f2fa"),
    (f"analyze --family {PRODUCT} --budget 10", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @gale-3 --budget 20", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @cut-square --budget 5", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"analyze --family {PRODUCT} --seed 1_0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"analyze --family {PRODUCT} --samples \u0663", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"analyze --family {PRODUCT} --budget 1.5", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze @cut-square --budget 10", 0, "07430cac7f1f07e560c916d4bee503ed7402762913b72793a747cbfc9fbe5d73"),
    (f"quadrics --family {PRODUCT}", 0, "e89df229c80ef17591fe65bfa8dbb12b181638b786dce167273fbaf0f13f2ba2"),
    ("quadrics @box2", 0, "c9e6c101d5d16a16c6646da56c9860d7df3438ca4b79032dfdd623522a390474"),
    ("quadrics @diamond", 0, "2def485020fe4af40a2c98e5cb9416df878ba8636f46194db29fbe4555430fa5"),
    ("quadrics @rational-cut", 0, "7de483a61fabe8152347648956270a81c13fea04794c25dc033e2e9cac31c46f"),
    ("quadrics @k0", 0, "93f7e124f8e4b4dbf97d6497183456f4ecc485ee01db07235474e0384a30e712"),
    ("quadrics @rank-deficient", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quadrics @malformed", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quadrics @quadrics --invert", 0, "87b9cab8f7db08d20f8bc9e97a94deb5b8f6272ce58db280c2decddb9baaec07"),
    ("quadrics @point-quadrics --invert", 0, "c24a8e10bc274a5188655a3bdd2d34cc1102410638b93117d779b99f06fdc425"),
    ("quadrics @zero-column-quadrics --invert", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quadrics @inconsistent-quadrics --invert", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"family {PRODUCT}", 0, "a8d2d13b7e6c553e9b592584337eda8239444acfc19b5bdf261a1dca761591b9"),
    ("family redundant-simplex:n=7,k=4", 0, "950c3238da2e1390d066ead1e78f63e5cee81237d65a12492bdebf31d0c6c0fb"),
    ("family product-simplices:p=4,n=10,k=2,k=0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"oracle --family {PRODUCT}", 0, "fce3749fe006f517bd0e67e1d0bb84729b61eec050ac7a4949cc092df2c2dd44"),
    (f"oracle --family {REDUNDANT} --seed 3", 0, "4d3f7d15ead96806901fabff6a8c7a8cefcfd57ceebfd747a3a63552541083b5"),
    ("oracle @diamond", 0, "a8cb3f61d5e587589e52bb70f359b8067beb072852316a072636ca106157eca7"),
    ("oracle @cut-square --seed 3 --samples 300", 0, "49b34853dd81766654ab0389870041d1650791f68edc349a4531773db29d4abf"),
    ("oracle @pyramid", 0, "492cdb0e1313b3df93a753dc383927c4d1d262d06d46261c42d7ad5aa9e47242"),
    ("oracle @empty", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle @k0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"oracle --family {PRODUCT} --loop 1,-1", 0, "fe06dfad86a9ebd2e76974b4525ccc37f4064ba58a049784c776028abdabda48"),
    (f"oracle --family {PRODUCT} --loop 1,-1 --samples 1", 0, "fe06dfad86a9ebd2e76974b4525ccc37f4064ba58a049784c776028abdabda48"),
    (f"oracle --family {PRODUCT} --loop 1,-1 --samples 65537", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle @diamond --loop 1,0", 0, "0a8c735dd80f87193f684678998afe315f053d41858000b72fc531e81920fffc"),
    ("oracle @cut-square --loop 0,1,0 --seed 3", 0, "76389e883283a662135a24bfc6295ea64255bafa68456afc443c02fe664c1b93"),
    ("oracle @redundant --loop 0,1_0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("obstruct --family sphere-product:p=4,q=6 --L-dim 10", 0, "8e82a8952358e8030f5a75765d913e3a156f0bcdc21bf9301a9a3a53957c00f9"),
    ("obstruct --family connected-sum-5:p=4", 0, "9ae250218e538eeacd14002374d0794bfdb50832b3535da987073079bfe2555d"),
    ("obstruct @profile --nmax 8", 0, "34d3b5b7b708fa8e95563eecac45790e318e2941f3f213caf24eb0f7cb205a84"),
    ("obstruct --family connected-sum-5:p=4 --L-dim 3", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("obstruct --family sphere-power:p=4,m=3 --L-dim 12", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("obstruct @profile --L-dim 8", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("obstruct --family sphere-product:p=4,q=6 --nmax 1.5", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("obstruct --family sphere-product:p=4,q=6 --nmax 1", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --only binomial", 1, "28666315b557cd9b6fe3b441172482c311fe589ef89fa7c69841aad5ddf53302"),
    ("verify --only area", 0, "c306d7a7f2f0e9fe1846207ddaf7cd8bf534f666f9715b50a4fc0c18749c9265"),
    ("verify --only connected", 0, "db7e8e9cb8db50d6291cf0ae76a412456b0af17dc8d90d7ce9d4541177eb7d08"),
    ("verify --only realization-redundant", 0, "2787f6a8147f8ae84481e1a4611679c96170ea4f17ffaca862d3bde0c8e97491"),
    ("verify --only nonexistent-suite", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def run(capsys, tmp_path, line: str):
    """``(exit code, stdout)`` of one corpus command line."""
    argv = []
    for arg in line.split():
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(INPUTS[arg[1:]])
            arg = str(path)
        argv.append(arg)
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("line, code, digest", CORPUS, ids=[line for line, _, _ in CORPUS])
def test_stdout_digest(capsys, tmp_path, line, code, digest):
    got_code, out = run(capsys, tmp_path, line)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# the whole reproduction suite: exit 1 for the intentional red binomial row
VERIFY = [
    ("verify", 1, "1e2b4fc8998cafa2cbf752d3337b83d78159cea49f9907b85d4ee20a0804fecd"),
    ("verify --seed 7", 1, "e70ad82f94395024a6ddaa8c3c70afc01622073ceb12ac8d4626b5c9ba5470bb"),
]


@pytest.mark.parametrize("line, code, digest", VERIFY, ids=[line for line, _, _ in VERIFY])
def test_full_verify_stdout(capsys, tmp_path, line, code, digest):
    test_stdout_digest(capsys, tmp_path, line, code, digest)

