"""Frozen digests of the canonical JSON documents of the shipped scenes.

Each entry is the sha256 of the ``--json`` document that ``reduce``,
``kirwan`` or ``fixed-locus`` writes for a scene under ``scenes/``.  A
change that is meant to leave every output alone must leave these digests
alone; a change that alters an output on purpose updates the digest and
says why.
"""

import hashlib

import pytest

from stabred.cli import main

GOLDEN = {
    ("reduce", "a2-hyperbolic"): "e3caec9cad3ef0b7205b38e6a496d63d20c7b915c9d6244f45a5353affd25765",
    ("kirwan", "a2-hyperbolic"): "a17977c4e2e115a8a5efeb4e0151bc93dbf0c5bd4f8389c4752bf2e964774806",
    ("fixed-locus", "a2-hyperbolic"): "ee29c24290afa381a5015cebe92ce79f16e0e3ec810ab8ad13076248d994872a",
    ("reduce", "a2-positive"): "1e3cefc32bbcd1a0c81166300ccb84300c0c276605303c00dd93a5adf78175b4",
    ("kirwan", "a2-positive"): "1a324dc3848dc72692daf789883038984740d9a6d3f8b54697c5c485055b871a",
    ("fixed-locus", "a2-positive"): "ed3126ee6eacc2e2fe6ca14f27d7a7f1f247a3f0af1646aefd24b3c7de0faccd",
    ("reduce", "darboux-x2y2"): "1a0be4351a99f972350659657e8ec15bca33052ed3207b1b9fc07c554e4544c6",
    ("kirwan", "darboux-x2y2"): "4c3b31ed92b61ba49360a1d920504085e55f4a6059627be749c3dd5baa65622a",
    ("fixed-locus", "darboux-x2y2"): "37152026f7f7fd04d643477954f90364012d9605298df2e993c8a7c6571b6dfa",
    ("reduce", "xy"): "3b58e8e475d98bd2df3bfd044d2c9d5bd8e5c9a868694fd528ca272353e20f26",
    ("kirwan", "xy"): "96fd0f24fc235a20b3c4c3f6c7e7ac96f77f1815e90384cf1147913624dfaebe",
    ("fixed-locus", "xy"): "ab7431dd98fed6b8f87fe9a3717be0ca0ecaaec65dafc2f33c85dd754562c463",
    ("reduce", "xy2-x2y"): "8ca4a3071c2fefb60c8cee6c4d4c13d3c14be1845e63a0f7f1409be62c96755c",
    ("kirwan", "xy2-x2y"): "cec6e3262cac4734f0ff7068d8042cb8697692e5d2b8d6b184c036daed43745f",
    ("fixed-locus", "xy2-x2y"): "16872550b6f6351403744dbce391ddc560e0f91e9f74152ffd91e373a5188c1e",
}


@pytest.mark.parametrize(("command", "scene"), list(GOLDEN))
def test_json_document_digest(command, scene, tmp_path, capsys):
    target = tmp_path / "doc.json"
    assert main([command, "--scene", f"scenes/{scene}.json", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[command, scene]
