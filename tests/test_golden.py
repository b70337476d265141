"""Frozen digests of the canonical JSON documents of the shipped scenes
and of the rank-2 trees.

Each entry is the sha256 of the ``--json`` document that a command writes
for a scene under ``scenes/`` (every command on the five shipped scenes),
or that ``reduce`` and ``kirwan`` write for a scene of
``helpers.RANK2_TREES``; ``LEX_GOLDEN`` holds the ``reduce --order lex``
documents of both sets.  Where lex and grevlex print every polynomial
alike, the two digests agree.  The rank-2 trees reach depth 2, carry
exclusions from node to node and have several charts per node.  A change
that is meant to leave every output alone must leave these digests alone;
a change that alters an output on purpose updates the digest and says why.
"""

import hashlib

import pytest

from stabred.cli import main

from helpers import rank2_tree_scene_file, scene_file

GOLDEN = {
    ("reduce", "a2-hyperbolic"): "90cf2d238c9be8bddbda17d127da9a4b427b654f3d5d768b7e30057a54efb859",
    ("kirwan", "a2-hyperbolic"): "a17977c4e2e115a8a5efeb4e0151bc93dbf0c5bd4f8389c4752bf2e964774806",
    ("fixed-locus", "a2-hyperbolic"): "ee29c24290afa381a5015cebe92ce79f16e0e3ec810ab8ad13076248d994872a",
    ("reduce", "a2-positive"): "bf484815693437d523606df571f3eb16cd6223b4cb966722063699dbe1307399",
    ("kirwan", "a2-positive"): "1a324dc3848dc72692daf789883038984740d9a6d3f8b54697c5c485055b871a",
    ("fixed-locus", "a2-positive"): "ed3126ee6eacc2e2fe6ca14f27d7a7f1f247a3f0af1646aefd24b3c7de0faccd",
    ("reduce", "darboux-x2y2"): "9a60ee5a0ec209f877023a82dba375c8168ccdf9804046dac879a91bab7a7425",
    ("kirwan", "darboux-x2y2"): "4c3b31ed92b61ba49360a1d920504085e55f4a6059627be749c3dd5baa65622a",
    ("fixed-locus", "darboux-x2y2"): "37152026f7f7fd04d643477954f90364012d9605298df2e993c8a7c6571b6dfa",
    ("reduce", "xy"): "4dee2447bd7de3933c1c149aff50411b10e53d1a0fa91df1160b1d0bbe658a9a",
    ("kirwan", "xy"): "96fd0f24fc235a20b3c4c3f6c7e7ac96f77f1815e90384cf1147913624dfaebe",
    ("fixed-locus", "xy"): "ab7431dd98fed6b8f87fe9a3717be0ca0ecaaec65dafc2f33c85dd754562c463",
    ("reduce", "xy2-x2y"): "932d769932ca098be28c37dcead0aa3ea3236815a74cc7030b6985cf16bd2fcb",
    ("kirwan", "xy2-x2y"): "cec6e3262cac4734f0ff7068d8042cb8697692e5d2b8d6b184c036daed43745f",
    ("fixed-locus", "xy2-x2y"): "16872550b6f6351403744dbce391ddc560e0f91e9f74152ffd91e373a5188c1e",
    ("validate", "a2-hyperbolic"): "c10937a51fc800185701d628470c3238503de2dc73ff77476a7a227a40442b0f",
    ("validate", "a2-positive"): "0e965dd7a3ce72412e63a4ab983ff1fad54f99aab78400cc6cfeea41dd3d3c4b",
    ("validate", "darboux-x2y2"): "6b6ce3c43766808f0fb5c1253426f8e16ce667a7e8eaba7c9a6562fadc1964b6",
    ("validate", "xy"): "d0ba6df0bbd921eb4f631084568244b322e76f30ae3f4ab726b7325771a80419",
    ("validate", "xy2-x2y"): "4dccc9f20cec32baa84c43e07b39ebdd9066dd911a09f4d59be30b46a88614ad",
    ("pi0", "a2-hyperbolic"): "75eb1e4d2699c1458169b49a63470366fbdcd0374c815e02ba8e32370e194676",
    ("pi0", "a2-positive"): "11f82c75b9d7dea17d2d25ad5b18fe6ebe5cafabb2cec44edeb9793e2cf6e66c",
    ("pi0", "darboux-x2y2"): "8de8169c69d225fce3d51fde4752b52aaab2a2edc6e204c5c0ef31566f758513",
    ("pi0", "xy"): "24ed495e67f88af25825921f89706eb22e9d965b753f93e2b463c1c6ed5f8ac6",
    ("pi0", "xy2-x2y"): "0b4ec28bc37ebc08f8b3f15c9dd3f034e2f02b5f26e90697b757b180f2b566ce",
    ("rees", "a2-hyperbolic"): "b8b7de17207f37dc874f8fa82e10173c6971cf5b5be69ca20a8a05ec762f6b94",
    ("rees", "a2-positive"): "8a585e7f97ec2a206136664d59f64a8c739181d65db5274d1d356b43e7edbdaf",
    ("rees", "darboux-x2y2"): "7ccada079d04027fb6ea993ffda770380dee5edd1dd402a56bf7839016abf898",
    ("rees", "xy"): "bb81dae140b9d5070a0bf9e4e2b6fae721137964f800c789fa0260ad23f393cf",
    ("rees", "xy2-x2y"): "dbd0cfb9bb1241e1966d56e7ca23d3e7efc41eee23d01f4697898ea8217d3c5f",
    ("blowup", "a2-hyperbolic"): "5561100dafaf88e72f5df9f563f0445b32e8776c83ea158cbd6347e2b173771e",
    ("blowup", "a2-positive"): "aca471805c685007aaa5d73e2c43396ffb67aeccb5f4bfd2d06a3a631bb9e1a5",
    ("blowup", "darboux-x2y2"): "bec10bd310e4216cbd6c360c1c75f4cf080e694b3ca3a74d754863e5a5f0e8e9",
    ("blowup", "xy"): "1da87bad072ee7c9c87872a9a88c9bcc0cda1f70680f007b29dc312e49702049",
    ("blowup", "xy2-x2y"): "ee12d94d10a5470ba7151131786f9e0226f6d0a09f560110bc5f2c59b615e231",
    ("report", "a2-hyperbolic"): "4b8e4747c6c8347d9c52cebe303297336e6970fe4c6c0ad523aa423dfc835d78",
    ("report", "a2-positive"): "c3540e7b2f30b28693adc9c8a4cd10c73bb1a0d6ddd8880f5d92118d77d91989",
    ("report", "darboux-x2y2"): "d6a7985bae19d0124e596e0c479866089fd32c8946c9e1ef351f639026e53dd5",
    ("report", "xy"): "cebf962011707a43e7306ca8b01d8270c16ed27ea044b6472fa5e11cc719ead5",
    ("report", "xy2-x2y"): "50727c0af88bb9ba2fb0d41bd3f8511e57f98efb6232137233a5b82dbf0754df",
    # the seeded corpus-r1 scene r1-014 of bench/scenes.py (seed 20260815),
    # whose truncation basis holds y^2 + 1/3*y*z: the one digest that prints
    # a coefficient that is not an integer
    ("reduce", "r1-014"): "9ba47fe602758ba8cab30ddf2c394ffd1c0ea4fb48e29d5cdefdb6f1e233aaab",
}


@pytest.mark.parametrize(("command", "scene"), list(GOLDEN))
def test_json_document_digest(command, scene, tmp_path, capsys):
    target = tmp_path / "doc.json"
    assert main([command, "--scene", f"scenes/{scene}.json", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[command, scene]


RANK2_GOLDEN = {
    "crit-abcd+ab": "5842d5c577f0ca875574c0a5cae28266d68daabf32dc523634ae1a3a4cfbdd45",
    "crit-ab+cd-1": "82c8d82fa6eb1624995361315f4113ef20e4c47cf6fa87086df97494dde44551",
    "crit-a2b2+cd": "0baeef1f7bfff7d1de2ce2d5ee201429ff608f3e68183c0bd6ff7339913d6512",
    "crit-ab+cd-skew": "18d8ac51b768a916b38928f7e02f2c6835d3ef3f06cfe2b5b19833e71cc50007",
    "hyp-ab-1": "aeade8a461333d70efb22f4f8fd90efea78213d3e9ed6d09cdee2e5a04a81a9f",
}


@pytest.mark.parametrize("scene", list(RANK2_GOLDEN))
def test_rank2_tree_reduce_digest(scene, tmp_path, capsys):
    path = rank2_tree_scene_file(scene, tmp_path)
    target = tmp_path / "doc.json"
    assert main(["reduce", "--scene", str(path), "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == RANK2_GOLDEN[scene]


# ``kirwan`` of the rank-2 trees: the rank-2 saturation ideals of the root
# witnesses, printed under ``saturation``
KIRWAN_RANK2_GOLDEN = {
    "crit-abcd+ab": "4233c59809a50ef806f36735592f0b83b221f68593b3b9fc033911e677abb052",
    "crit-ab+cd-1": "1f292cd10e4be3aa1e059599fc359ba0b2316c5650c2f1e1756b5451f87a8865",
    "crit-a2b2+cd": "d2fdd32b887275c4537df6741d34b0317aab2d56de9767fd94bc4051a260f8bd",
    "crit-ab+cd-skew": "88230b95f17050d5d6c3d1fc869cf5f5d1e45d9a0000320618bfe2031b820483",
    "hyp-ab-1": "510fb5fa320bc9a50e1fcd85baa00387d9f77c43be48e1b2809ee759ddb899a4",
}


@pytest.mark.parametrize("scene", list(KIRWAN_RANK2_GOLDEN))
def test_rank2_tree_kirwan_digest(scene, tmp_path, capsys):
    path = rank2_tree_scene_file(scene, tmp_path)
    target = tmp_path / "doc.json"
    assert main(["kirwan", "--scene", str(path), "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == KIRWAN_RANK2_GOLDEN[scene]


# ``reduce --order lex`` of the shipped scenes and of the rank-2 trees
LEX_GOLDEN = {
    "a2-hyperbolic": "90cf2d238c9be8bddbda17d127da9a4b427b654f3d5d768b7e30057a54efb859",
    "a2-positive": "bf484815693437d523606df571f3eb16cd6223b4cb966722063699dbe1307399",
    "darboux-x2y2": "9a60ee5a0ec209f877023a82dba375c8168ccdf9804046dac879a91bab7a7425",
    "xy": "4dee2447bd7de3933c1c149aff50411b10e53d1a0fa91df1160b1d0bbe658a9a",
    "xy2-x2y": "932d769932ca098be28c37dcead0aa3ea3236815a74cc7030b6985cf16bd2fcb",
    "crit-abcd+ab": "d1026976fada621ba2ab49c94f588d659904b5415d9930dae42d8f5157fff325",
    "crit-ab+cd-1": "c4d65b86e10e45d3355dc6301007ca1a777f89931c19d5ae560929896812fc97",
    "crit-a2b2+cd": "01a8813f55749a458c10ad23790ee73d27f34406a9ca6fe63364087c0ff8cd2f",
    "crit-ab+cd-skew": "47f31dfe77ff643119c71f095b8f938b3052e7ce74ff896fb6bdf4ed236b862b",
    "hyp-ab-1": "aeade8a461333d70efb22f4f8fd90efea78213d3e9ed6d09cdee2e5a04a81a9f",
}


@pytest.mark.parametrize("scene", list(LEX_GOLDEN))
def test_lex_reduce_digest(scene, tmp_path, capsys):
    path = scene_file(scene, tmp_path)
    target = tmp_path / "doc.json"
    assert main(["reduce", "--scene", str(path), "--order", "lex", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == LEX_GOLDEN[scene]
