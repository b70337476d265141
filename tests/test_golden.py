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
    ("reduce", "a2-hyperbolic"): "be134b40bfb0f343b6e6f7e6c57cb4304f0ce96be0e1f464a62e6938bd6de8ba",
    ("kirwan", "a2-hyperbolic"): "13baf25a78a438e1597e0072520317190cb1858e340f006cf204699a591cd1bf",
    ("fixed-locus", "a2-hyperbolic"): "ee29c24290afa381a5015cebe92ce79f16e0e3ec810ab8ad13076248d994872a",
    ("reduce", "a2-positive"): "951dec73c281a9729c49305d00eaab51de69c81fe5b92bdc14309e5e829468b3",
    ("kirwan", "a2-positive"): "4347c98c536d3a072b0fe7abe3f02057741592f1637aacaf12c56b1cd8660c8b",
    ("fixed-locus", "a2-positive"): "ed3126ee6eacc2e2fe6ca14f27d7a7f1f247a3f0af1646aefd24b3c7de0faccd",
    ("reduce", "darboux-x2y2"): "f1075daf345386cb2eca2a0c3febc57f0edb35c3f8cecec8f2e09955993819ba",
    ("kirwan", "darboux-x2y2"): "2e43636375506267c266852804047b314fb1002192d475c03aa4e729d94881a0",
    ("fixed-locus", "darboux-x2y2"): "37152026f7f7fd04d643477954f90364012d9605298df2e993c8a7c6571b6dfa",
    ("reduce", "xy"): "8cf3102d4ee4d10fd15e0c1f32b94be7622f5806c05c0df3af5d747ab0fe546a",
    ("kirwan", "xy"): "9771acd699c3ee2eb61ec582be1bb1fa7cc88b24e0dd403bc79881f551fe1d06",
    ("fixed-locus", "xy"): "ab7431dd98fed6b8f87fe9a3717be0ca0ecaaec65dafc2f33c85dd754562c463",
    ("reduce", "xy2-x2y"): "9e90a5f687192d40e04e56c95a0094e6c56b372253f1fee5463fa6de64b3c722",
    ("kirwan", "xy2-x2y"): "c928f402bde753cccba9239b83f3c1747e126053ec132568de774861341de28d",
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
    ("blowup", "a2-hyperbolic"): "0b444cbdb1d13baa639ed4ae73bfd9f3b22c64a716df134882d0813d6e3e1d44",
    ("blowup", "a2-positive"): "dd50abd3e8a7e662a53d9fdbd50a0f69eb794a622d3b46f5ffdb7d81849212d6",
    ("blowup", "darboux-x2y2"): "9998eb005729fab180d3abf93a9f8d30063a921a10e1c7687741de41c9318190",
    ("blowup", "xy"): "7a43ce5962f4baa98c325e095b74a55206e4366cd8e743cc9a7af4d7b6e8f42c",
    ("blowup", "xy2-x2y"): "6b3158e5443b22f45e77e7729f2ba8d28ecf23e458e24db8098cf82786eed18a",
    ("report", "a2-hyperbolic"): "9424b247fd611f14acfd317fc349496315c941c04e8bde4000cdbd89504c271d",
    ("report", "a2-positive"): "cb08df0ddd8eed5bfb5d99cb1f68cded19836221c801f801e8a55e27b3fb9bec",
    ("report", "darboux-x2y2"): "ddd169c0bc1feeb6c1930750b44040bf6676f7795176d2d4698fc5056d4ad82b",
    ("report", "xy"): "806955cfc318c478c448deafbc6c3ed582398a85531013385b925602f01b6a7f",
    ("report", "xy2-x2y"): "4a5b215dc30ffb111339b0fa14cbde161217133f30d9c76e927b80bd762e1ccf",
    # the seeded corpus-r1 scene r1-014 of bench/scenes.py (seed 20260815),
    # whose truncation basis holds y^2 + 1/3*y*z: the one digest that prints
    # a coefficient that is not an integer
    ("reduce", "r1-014"): "01921a7589c0d6a7b6cd0560d428e5ac13958ae2fc429269532a2b7ada471b74",
}


@pytest.mark.parametrize(("command", "scene"), list(GOLDEN))
def test_json_document_digest(command, scene, tmp_path, capsys):
    target = tmp_path / "doc.json"
    assert main([command, "--scene", f"scenes/{scene}.json", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[command, scene]


RANK2_GOLDEN = {
    "crit-abcd+ab": "70d5aa80bfebfad22415774b9f34d24e0dd8e544f79be5957fd0c9471e680c43",
    "crit-ab+cd-1": "15d0cbdd7a360b91b5e04295ecb45cfcd1aeea020cb02467b6f2e57dc85710c9",
    "crit-a2b2+cd": "6bcfd799cd4be3405c992277d76965f25fdbb123b16af963f1235aead7d8cf05",
    "crit-ab+cd-skew": "151d54f3b9688883a55550e85b61a4a3983ec1c4d09586301b0e14a173ad2700",
    "hyp-ab-1": "a9f8f088d695dece98563ee77b3d1425c616ecf6cdd9a3540b635682c173af63",
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
    "crit-abcd+ab": "ccc7004b20d50796e8740450f7c402e9324db0f4ce70e8fda2b1c16e22456a89",
    "crit-ab+cd-1": "5c96a07ebc08d7ff2e87cd551c5d68878afd4d704515e9ff8869a07980e2673d",
    "crit-a2b2+cd": "46f0aae075756c15a873186c461e8d21f07770b393243f9ce6ec67f1fef5a947",
    "crit-ab+cd-skew": "e335c22fe8f19ca3492c14c408ddf21e152a2390b14d992096369b529db54832",
    "hyp-ab-1": "8268fd032e250472b34333cf01e0c7455995774ac5b1172300bd326b7c21ee58",
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
    "a2-hyperbolic": "be134b40bfb0f343b6e6f7e6c57cb4304f0ce96be0e1f464a62e6938bd6de8ba",
    "a2-positive": "951dec73c281a9729c49305d00eaab51de69c81fe5b92bdc14309e5e829468b3",
    "darboux-x2y2": "f1075daf345386cb2eca2a0c3febc57f0edb35c3f8cecec8f2e09955993819ba",
    "xy": "8cf3102d4ee4d10fd15e0c1f32b94be7622f5806c05c0df3af5d747ab0fe546a",
    "xy2-x2y": "9e90a5f687192d40e04e56c95a0094e6c56b372253f1fee5463fa6de64b3c722",
    "crit-abcd+ab": "3ada08f5985ca67407f42604d04d0c941fba074944699b1ddbf519ecebf192c6",
    "crit-ab+cd-1": "d36c219e9b3ff1c781b8aab47e2641da0e4cc9c276032a8c48820cd0c79969a9",
    "crit-a2b2+cd": "f9c4d241d37464ccf06e708ef558bc81424a4091670c5e2fa3af0ffcc2cec7cd",
    "crit-ab+cd-skew": "4fba660cf2e61f74f873bf3ecea5c5bf0fc422aea8032cf842ee447b4d9fe7b0",
    "hyp-ab-1": "a9f8f088d695dece98563ee77b3d1425c616ecf6cdd9a3540b635682c173af63",
}


@pytest.mark.parametrize("scene", list(LEX_GOLDEN))
def test_lex_reduce_digest(scene, tmp_path, capsys):
    path = scene_file(scene, tmp_path)
    target = tmp_path / "doc.json"
    assert main(["reduce", "--scene", str(path), "--order", "lex", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == LEX_GOLDEN[scene]
