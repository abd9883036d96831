"""Golden bytes: atlas files and verify output pinned by sha256.

A change that promises the same answers must leave these hashes alone.  The
atlas hashes cover the `save_atlas` bytes of orders 1..9 (certificates and
ringtab blocks); the verify hashes cover the full stdout of each scenario
run against the session atlas directory.
"""

import hashlib
import os

import pytest

from finring import cli, scenarios

ATLAS_SHA256 = {
    1: "cb929b800d4f7530f13d4aefec2722b41c77cc00bdbfdc333b645ea4dc401dad",
    2: "bd2e3a727edf92da691f4dc89376911fce3c7fed56af86166b537d86eb22e756",
    3: "ca76c02193f13da0a385de7fd476faa795818f6f870fd88c867ef6e3891233a6",
    4: "7776313cf7a1f6d93ceb9408d4838e83ef162c4b375468b650aa55e5ff65efe9",
    5: "ca7c6fb5e620ffb328ab2a5ab76804367edf1073953c7560d54995adf0746d87",
    6: "46610367fccf0a185d467224b46d9c49f2ccd7988fdb61d4de7d8bf545a41e68",
    7: "e144ae138b31b4545f85abb475c4ffe82da492f5edd4648fd3a4691ce35e24a8",
    8: "e17b8eba69d96a9e19b1630aea4f1c67a1817282497a41158d9b1a51c0eae4c8",
    9: "be1923a483f0d2547a7a68b92e2194415a9e19a981bbffae08f10d6e4be421e9",
}

VERIFY_SHA256 = {
    "cor1": "b94d99ba7a9dc598c83e491fd13e15539eae66c36110d87830016e8b45290784",
    "prop5": "dd3d8079cec66407dcecd5bc3b1e02175b054c204607d11990897a3ee022bd2b",
    "prop4-counterexample": "c802d94b060fb8bc1f260ae5a173b2a718e4299dd2374840f62f8a9895dcac87",
    "tn4-identities": "0b6af52f5685ce2e0adb43db56039e413b1938870d92da7b6ef973c649b5512e",
    "theorem3-shape": "ea771d54528da7d003d71723635ec4c82fca12887a3608aa6ac453e6bf27f6e4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", sorted(ATLAS_SHA256))
def test_atlas_file_bytes(atlas_dir, n):
    with open(os.path.join(atlas_dir, f"atlas-{n}.txt"), "rb") as fh:
        assert _sha256(fh.read()) == ATLAS_SHA256[n]


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_verify_stdout_bytes(atlas_dir, capsys, monkeypatch, name):
    monkeypatch.delenv(cli.ENUM_CAP_VAR, raising=False)
    code = cli.main(["verify", name, "--atlas-dir", str(atlas_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == VERIFY_SHA256[name]
