"""Bit digests of the planar sweeps, on both backends.

`ortho_locus` (every relation tag, every planar family, two base vectors,
resolution 720) and `mine_incomparability` (three relation pairs) are
digested family by family: the sha256 of the float.hex of every result
float, or of the type and text of the error raised.  The expected digests
are those of the per-tag Python residuals that `Program.residual`
replaced; a change of any result bit, on either backend, moves them.
"""

import hashlib

import pytest

from normortho import (
    AlphaBeta,
    Lambda,
    Relation,
    RELATION_TAGS,
    SampleConfig,
    mine_incomparability,
    ortho_locus,
    parse_norm,
)

from conftest import FAMILIES

AB = AlphaBeta(0.3, 0.5)
LAM = Lambda(0.25)
BASES = ((1.0, 0.0), (0.6, -0.8))
MINE_PAIRS = (("birkhoff", "isosceles"), ("rho_ab", "rho_lambda"),
              ("rho_minus", "pythagorean"))

LOCUS_DIGESTS = {
    "l1": "deb36e30eb9a3cba5df501599a975d2ed861a56c6123cba8cd91e4ad630bdc00",
    "l2": "24a71e5ce107a91902f20ba6118d94018f81ce176811abac36d24fac590566bd",
    "linf": "29f51147f985411da30baa5ea42b550dead8d3e4b649886267c7d9079e463909",
    "lp(3)": "a379ad3d4efb006c62d05dc2615e001824bfec9939ed62ed98bb4f348a1c9cd3",
    "lp(1.5)": "30d12d1e2e0ef91826c63bae138afd320778af9ac433d67338aa8f4802b50add",
    "wlp(2; 1, 4)": "4fa9290e570f2de4dadb2b91e03143b417d15313f228779e372fa0ad10ccba96",
    "max(l1, l2)": "deb36e30eb9a3cba5df501599a975d2ed861a56c6123cba8cd91e4ad630bdc00",
    "sum(l1, linf)": "632a39c987dd44160bc433741fb84dc952d769d3fe1b06c954d1d74c3a6badbb",
    "scale(0.7, l2)": "33d5298fe041dd075dc9246121c06c73092fc9eb35bb0e2fabb357502da02d43",
}

MINE_DIGESTS = {
    "l1": "6e4884fd2f97a822a3af9d65d99c636f15718b425fb3d7af8d6c2e59e619a270",
    "l2": "2eac186c42146ead04063b6ec616d0e52397c53dfca20ee3275302a67bafb1f0",
    "linf": "eb5541150bd7cb0f8dc4a61efff8e680681c3b9dae6984302ad713020e771825",
    "lp(3)": "28e8be212f1c6cda3ae28f25fbd8daa1421fac85bf8dbcb3bd1619add1781af1",
    "lp(1.5)": "81d3d95f5f88e9c8d0e13f6209d37d69f5da814339e809235f19fa87a7e6eb1c",
    "wlp(2; 1, 4)": "2eac186c42146ead04063b6ec616d0e52397c53dfca20ee3275302a67bafb1f0",
    "max(l1, l2)": "6e4884fd2f97a822a3af9d65d99c636f15718b425fb3d7af8d6c2e59e619a270",
    "sum(l1, linf)": "7df43bcc1a44fb7fa68d568aef56b8ee3aef7fa87593ff40459a19b046e81863",
    "scale(0.7, l2)": "2eac186c42146ead04063b6ec616d0e52397c53dfca20ee3275302a67bafb1f0",
}


def _relation(tag):
    if tag == "rho_ab":
        return Relation(tag, ab=AB)
    if tag == "rho_lambda":
        return Relation(tag, lam=LAM)
    return Relation(tag)


def _hexes(obj):
    """Every float in obj (nested tuples, None and bools allowed) as hex."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, tuple):
        return "(" + ",".join(_hexes(x) for x in obj) + ")"
    return repr(obj)


def _result_or_error(call, *args):
    """call(*args), or a one-line list naming the error it raised."""
    try:
        out = call(*args)
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return out


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def locus_digest(family):
    ast = parse_norm(family, 2)
    lines = []
    for tag in RELATION_TAGS:
        for u in BASES:
            lines.append(f"{tag} {u}")
            points = _result_or_error(ortho_locus, ast, u, _relation(tag), 720)
            lines.extend(p if isinstance(p, str)
                         else _hexes((p.theta, p.x, p.y, p.residual, p.is_zero_crossing))
                         for p in points)
    return _digest(lines)


def mine_digest(family):
    ast = parse_norm(family, 2)
    lines = []
    for seed, (a, b) in enumerate(MINE_PAIRS):
        cfg = SampleConfig(seed=seed, count=8)
        rep = _result_or_error(mine_incomparability, ast, _relation(a), _relation(b), cfg)
        if isinstance(rep, list):
            lines.extend(rep)
        else:
            lines.append(_hexes((rep.witness_ab, rep.witness_ba, rep.budget_used,
                                 rep.discarded)))
    return _digest(lines)


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("family", FAMILIES)
def test_locus_bits_unchanged(family, package_backend):
    assert locus_digest(family) == LOCUS_DIGESTS[family]


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("family", FAMILIES)
def test_mining_bits_unchanged(family, package_backend):
    assert mine_digest(family) == MINE_DIGESTS[family]
