"""Byte identity of the exact command line outputs.

The digests are SHA-256 of the JSON printed by `torsion --series --order
60`, `torsion-form --degree 20` and `grr-check --degree 26`, recorded when
every series and class coefficient was still stored as its own ConstExpr.
Exact arithmetic has one right answer, so a change in how series and
classes are stored or multiplied must leave every byte as it was.
"""

import hashlib

import pytest

from p1torsion.cli import main

DIGESTS = {
    ("torsion", -2): "3c6ddc3e058caae3ad13b949e44cb175f9594d4e3357f4f47c50ad9956cc047d",
    ("torsion", 0): "5d3235c2d8435cafcfd9b160761bc7fe422f7f6fa6e2de71538e2736f2805c15",
    ("torsion", 3): "911f2fd79c73ef3097cf62a7b1a761712bb678349fad90bde562477e65304d8e",
    ("torsion-form", -2): "45efee985c7dd6347590fa8d200e2507441cffea22bb8c6f7a780aeae50da3a7",
    ("torsion-form", 0): "fe44439fa617bcbf8b87b561f402c299b5d40eb21172c28baab7565efa634875",
    ("torsion-form", 3): "634526fa26d2ec91737daaf0d1701256aa75cdf1558fe62e076fa14c9785284c",
    ("grr-check", -2): "b2554110119dbbc044093754e078eaec66f9a6139513d3e0c579bd7bbccf8ab5",
    ("grr-check", 0): "84d90095457ac022df63261fc990679ac89f11e1fabf994b5135ad5b05cd116b",
    ("grr-check", 3): "ac7ecf903ba841222490472a4b5207abff5f5666d76b613bd441fd342ae610b9",
}

ARGS = {
    "torsion": ["--series", "--order", "60"],
    "torsion-form": ["--degree", "20"],
    "grr-check": ["--degree", "26"],
}


@pytest.mark.parametrize("command, ell", sorted(DIGESTS))
def test_cli_json_is_byte_identical(command, ell, capsys, monkeypatch):
    monkeypatch.delenv("P1TORSION_PRECISION", raising=False)
    code = main([command, "--ell", str(ell)] + ARGS[command])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, ell]
