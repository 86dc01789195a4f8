"""Instance generation draws each base change with its inverse, and builds
piece complexes block-diagonally, without elimination.

``random_unimodular`` is held to three oracles: the products with its
inverse, the exact Smith-form solve, and the draw as it was made before the
inverse was kept (``oracles.unimodular_draw``: the same P from the same rng
calls).  ``_pieces_complex`` is held to the fold of ``oracles.direct_sum``
over its pieces.  The SHA-256 digests below pin the content generation
draws, profile by profile and ring by ring; they were computed before
generation stopped eliminating, so any change to a draw shows here.
"""

import hashlib
import json
import random

from hypothesis import given, settings, strategies as st

from decalage.complexes import FreeComplex
from decalage.instances import (
    _Piece,
    _pieces_complex,
    _small_element,
    generate_instance,
    random_complex,
    random_unimodular,
)
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField, make_ring
from decalage.rmatrix import Matrix, solve_exact
from decalage.serialize import complex_to_json, sheaf_to_json
from decalage.sites import PosetSite

from oracles import direct_sum, unimodular_draw

RINGS = [IntegerRing(2), IntegerRing(3), IntegerRing(5), PolynomialRing(PrimeField(5)),
         PolynomialRing(PrimeField(2)), PolynomialRing(RationalField())]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 6), st.integers(0, 2**32))
def test_random_unimodular_returns_its_inverse_from_the_same_draws(ring, n, seed):
    rng, old = random.Random(seed), random.Random(seed)
    P, Pinv = random_unimodular(ring, n, rng)
    assert P == unimodular_draw(ring, n, old)
    assert rng.getstate() == old.getstate()
    one = Matrix.identity(ring, n)
    assert P @ Pinv == one and Pinv @ P == one
    solved = solve_exact(P, one)
    # repr shows the entry types too (int against Fraction), not only the values
    assert Pinv == solved and repr(Pinv.data) == repr(solved.data)


def piece_fold(ring, pieces, hi) -> FreeComplex:
    """The piece complex as one direct sum per piece, in order."""
    K = FreeComplex.zero(ring, 0, hi)
    for p in pieces:
        ranks = [0] * (hi + 1)
        ranks[p.deg] = 1
        if p.kind == "shell":
            ranks[p.deg + 1] = 1
        diffs = [Matrix.zeros(ring, ranks[i + 1], ranks[i]) for i in range(hi)]
        if p.kind == "shell":
            diffs[p.deg] = Matrix(ring, [[p.c]])
        K = direct_sum(K, FreeComplex(ring, 0, ranks, diffs))
    return K


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 4), st.data())
def test_pieces_complex_is_the_direct_sum_fold(ring, hi, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    pieces = []
    for _ in range(data.draw(st.integers(0, 6))):
        deg = data.draw(st.integers(0, hi))
        if deg < hi and data.draw(st.booleans()):
            pieces.append(_Piece("shell", deg, _small_element(ring, rng)))
        else:
            pieces.append(_Piece("free", deg))
    K, want = _pieces_complex(ring, pieces, hi), piece_fold(ring, pieces, hi)
    assert K == want and hash(K) == hash(want)
    assert complex_to_json(K) == complex_to_json(want)


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


DIGEST_RINGS = {"z": make_ring("z"), "z3": IntegerRing(3), "fp-poly": make_ring("fp-poly"),
                "q-poly": make_ring("q-poly")}

# profile/ring/seed -> SHA-256 of sheaf_to_json, on the sphere; free-any-site
# leaves the site to the draw; complex/ring/seed hashes complex_to_json of
# random_complex(ring, Random(seed), max_degree=4, max_rank=4)
CONTENT_DIGESTS = {
    "free/z/1": "e058eb97db21f2d87a8c354138b509022aa8622e96a74f637fff39b5dc22bcce",
    "free/z/2": "6dbe555a4ab60e5123cc6d808c440fc3b082412ef82aad455259abfd8dc66577",
    "free/z/3": "b7eedc42dc47672fd78a461feeeefbe50989660d7f4bc53664e3806e9504ff06",
    "free/z3/1": "c3981506e4f5f4931172d1481d1aba0bed7ef74843b05d81e8afe4be416ff365",
    "free/z3/2": "42404e8107336cf421d6eed7f947472509830f49daf29ac4578ae2bc16bb2ef6",
    "free/z3/3": "e1c36f707c756c9f536a374f5ccbccc19e4b75a4a42cb6c8268a03947158e47f",
    "free/fp-poly/1": "0c6bb02ae9700c6fbbd9b34bea2f32cc35e198065083181042155bd31224bf88",
    "free/fp-poly/2": "7c6361000274eceffc5f53da95d6b78bf67b3a0467ce783766af17d8624a03de",
    "free/fp-poly/3": "aa3eea7f28f6110aa044a0f031e9f63f5583cd8988b32c9cf5f209ab8d0465c8",
    "free/q-poly/1": "6be5c59b543f0755f549cb251d134cfae618aa10a87c113351f54343b78cab95",
    "free/q-poly/2": "15693dea52a30564d6389d693a5a9273a0892f6fd8825977c7471741a796d836",
    "free/q-poly/3": "476808c3bb4fdf775373221003f4f00c2bcc3f518c116a1ef6e17562c5a1a080",
    "h1/z/1": "a54eeb8e1f31fb45c5dca212896e11a9a558751a43201f1dfa8a2b2db78d1e1f",
    "h1/z/2": "c0a660b49602a791fd9bf7f31e76f9f017aabece15208794a4e87aca918579fd",
    "h1/z/3": "29d16d9861b4f042e01741ba956dcf862f45d73892ab7b74b789cb037e931ed2",
    "h1/z3/1": "3ca8e598fccc903d69d3ecfeb3e22d27d4d4eaf780086be23688e9bfd951f7d8",
    "h1/z3/2": "bfc7490b29e4fceb848bf934c58ed3229c2845ecaefd41831ef4b911104912e7",
    "h1/z3/3": "fc984a20654aec37b3c204f1e46c8f9b5729af68a50af5500c20fc2d09c38b18",
    "h1/fp-poly/1": "5613741c04687285fcff12b90bb89e598fda29bba4511b014161ad47380c43a6",
    "h1/fp-poly/2": "90ffeb621b062e0d04d0d98bdda87c8757000454b0f3a162ece78cc6372c75b8",
    "h1/fp-poly/3": "420d4309871f0cec09b70c450b0ab5da7101bd5f605f41a712c75e53790831a4",
    "h1/q-poly/1": "c77b6adf5b5e08cdb8ebcc1d0d86a0a7a194652c772acb718a2079e391e6d420",
    "h1/q-poly/2": "2ad8e758767cbf175608aef028bbce11ec47dfe8781f9f596c847ecb8c0cbb85",
    "h1/q-poly/3": "c76cd9ab8becc41f2b08af368f28bd43257ff1ca22d95d21cda8dad147322bde",
    "adversarial/z/1": "54a6d93713688c0283c32a889dcd78706ff0f755fc31f6c4ac08190baec3f76f",
    "adversarial/z/2": "f78d5f6b285ddbadb05e01a0142f02dca8a1595b63f45950fa353307e95b0b2b",
    "adversarial/z/3": "e9e2be5608add134cd6e1fe423d51fd17fe7b6a7090c4fbab60ab5621b5b99b5",
    "adversarial/z3/1": "ea595367148e32b0a777467afe95965a7a2180aff52e479bccee37da8a1c4856",
    "adversarial/z3/2": "ab84e1327220c2157c755d8e2c4578caac429afe5a095d1ead47a06380cb5d36",
    "adversarial/z3/3": "d1d77d6a42c6d514b3cbebea7764a0849848b06429f2911a29f95cafa55d2312",
    "adversarial/fp-poly/1": "94e05b3759f41dfabd62c3fd3fc4738429c56136bf76c014aede260de1228585",
    "adversarial/fp-poly/2": "9d0f938be5d3b0d10e5699f21a4d2b068735262ba0a31ae4f46d02f577b7ef1b",
    "adversarial/fp-poly/3": "bb9c1897b18e6cda32367d921ac4956b6ed0b6f834b31e74ba6071fca60697bb",
    "adversarial/q-poly/1": "2116d8cbb1cdeac78fda186861a85a02bd355c4b5670d66b6d8c12e7e9ffcec5",
    "adversarial/q-poly/2": "9739866a7794cf59c148a4dde4567eb850b52a470be161ee02d55377da99f593",
    "adversarial/q-poly/3": "e548347213832b0f0fd94f12b7fadafea5d1becb9369b92444bb8733a0e9e084",
    "free-any-site/z/1": "cc1aed95501b4fea059e7363bf7c244e06cd0dfd60b118f68f9d0a1579712350",
    "free-any-site/z/2": "980d1af7b0e5b1632ccb2ece285b69ba89bdcae34deab599d0284e0ca74ddc4b",
    "free-any-site/z/3": "68b66ee9e5dd198017a2a7550eb294f8d2d4a571efad3cca0c0caecdc37f4b9a",
    "free-any-site/z3/1": "e717611ff3b577de48183bf8e20f80b8ef94bf93c3fe63e3624beca28c2ba6e6",
    "free-any-site/z3/2": "f051924f6d6f776c4b467380b9c51c1ddd2dfdba2b4a9aafe250b10daf5b4026",
    "free-any-site/z3/3": "0b4d40a79eb59c303dfe3cb0d8fc7c49f783ea0a40996682aaeb364d9566f17b",
    "free-any-site/fp-poly/1": "cee76b659d341295106075068edca82ce2792f668badd63679ef6e35871fa06e",
    "free-any-site/fp-poly/2": "daf44dcc361c2d69b7b5b5cdbab809368546165d7da9a916dde0232c14d191ca",
    "free-any-site/fp-poly/3": "828b048ade69dde1ce8e00e67f3efb9d16a539d9b5285cbb0144c3b1337756ae",
    "free-any-site/q-poly/1": "64c05f62c41cd0506541743ce7211b779bf21051127f7e0ab7b0a3b99432f880",
    "free-any-site/q-poly/2": "63eab1ee9c934576d665bccd6694fdbc13a4445e2896d2351a82dd2ed3d29349",
    "free-any-site/q-poly/3": "50174d0e7f4beca0cf05b9e864780ec8d18265a2850a2d8bb883509db2491817",
    "complex/z/1": "99ad39cc5e9ccc763cde214c56e6f5b9ee936d968e45b8a714264a14cf6791cd",
    "complex/z/2": "1075c43c9df2f01858566ddf6be365d46119c345ff72cc830f81b4671a3a59b4",
    "complex/z/3": "282498cafd227da45d8e84e747e3d732f87dd9ec74da95995064721721411456",
    "complex/z3/1": "f1c1c1a63bce5c5ea7653ec05dbb7121c01d4279a612b4c21c8cb009c1f8d0c9",
    "complex/z3/2": "bcff5554eea05cfdd7791301155f164e60fb371ca168e28045bcf2e4dbe16ef2",
    "complex/z3/3": "201b6109366df294678a93be8cfb43d9abd382f4c3d225ce77bf3e07f872f5c2",
    "complex/fp-poly/1": "f116c93dfd8d15a6e0b0035b7190fd27b105d53d9a68178a9cd58bf1ed31e8cd",
    "complex/fp-poly/2": "c16364e9c7dc961aab2fe14a36dbcea61e30da868e09254d1698abc0bd62dccd",
    "complex/fp-poly/3": "21bce15055d6a4d8a23d78fbdb4dc4b2fa130299e16df82aae77ad6ba521e92e",
    "complex/q-poly/1": "cf99409d97caac8869c85f5447fcf42acf2ee7e34a43315ca57875d8167b8b6f",
    "complex/q-poly/2": "6484cc0b080be940dc362104a0121e2a3e8fb354be01c57e25bf850d900a44fc",
    "complex/q-poly/3": "9a63a8a31c5631cad4515a6618021dfb951c51b432c07957868cd585cb94b592",
}


def test_generated_content_is_pinned():
    got = {}
    for rname, ring in DIGEST_RINGS.items():
        for seed in (1, 2, 3):
            for profile in ("free", "h1", "adversarial"):
                F = generate_instance(profile, seed, ring=ring, site=PosetSite.sphere())
                got[f"{profile}/{rname}/{seed}"] = sha256(sheaf_to_json(F))
            F = generate_instance("free", seed, ring=ring)
            got[f"free-any-site/{rname}/{seed}"] = sha256(sheaf_to_json(F))
            K = random_complex(ring, random.Random(seed), max_degree=4, max_rank=4)
            got[f"complex/{rname}/{seed}"] = sha256(complex_to_json(K))
    assert got == CONTENT_DIGESTS
