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
    ("reduce", "a2-hyperbolic"): "9c09a5e0ac6d5df5cf91f9090c8dc576e064efce10cb8de4611b7398b20e3ded",
    ("kirwan", "a2-hyperbolic"): "5992f7355e1e6e8ea2ec904d17d75523b76d540840ea79ff8cfeeb204ec7da32",
    ("fixed-locus", "a2-hyperbolic"): "ee29c24290afa381a5015cebe92ce79f16e0e3ec810ab8ad13076248d994872a",
    ("reduce", "a2-positive"): "d1a3414144f76a1b2c68665219d847181fba4b7cb147490c2a1e2773b33bd7be",
    ("kirwan", "a2-positive"): "3d1152d728d900720eb22d0c171f65defa8ec8eca94ad59d585607aa6317fab1",
    ("fixed-locus", "a2-positive"): "ed3126ee6eacc2e2fe6ca14f27d7a7f1f247a3f0af1646aefd24b3c7de0faccd",
    ("reduce", "darboux-x2y2"): "21ff7d0eaba6a4794b686f9f72f073e67839381aa8ce3a0196b4aef67255445e",
    ("kirwan", "darboux-x2y2"): "b56503abee0857fd092b7df8a5ba7b77478dbab9577057e276e5a8a2037f5333",
    ("fixed-locus", "darboux-x2y2"): "37152026f7f7fd04d643477954f90364012d9605298df2e993c8a7c6571b6dfa",
    ("reduce", "xy"): "6dd556e19947c301f8fbae8307e2138baf738c7d97ce5e8334d5270d0d6f5633",
    ("kirwan", "xy"): "b8560d50ba19321820b0ff3879db572fec20ff4f7c543bebdc13dd1655f284fd",
    ("fixed-locus", "xy"): "ab7431dd98fed6b8f87fe9a3717be0ca0ecaaec65dafc2f33c85dd754562c463",
    ("reduce", "xy2-x2y"): "681ccfbf534bfbfb8938e647e9d7709c023c9c6276178596cb3b9329e90e5083",
    ("kirwan", "xy2-x2y"): "68e040f0d613e3c2168683b53d78a43cc137567d6d4260f1714b670300d26f20",
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
    ("blowup", "a2-hyperbolic"): "151a8bf7e9bae2c781363d08f7ed81eb30063038be108472d54a3cd8ba781d4e",
    ("blowup", "a2-positive"): "2c6699d302a982fca977d19b4a417788d03fe6d9c6bcf8bed6830525ed3417a9",
    ("blowup", "darboux-x2y2"): "cc672982272ed40eefd2ed0da3f4dbeaeb4c35f691a83ed40238c288387b964a",
    ("blowup", "xy"): "f4936ae982abd0478f970c17e8c4bda091eb5831bb463d5fb1ff856132aadcf3",
    ("blowup", "xy2-x2y"): "3455136437c74dc1e6e84740fc30ea9c1951738be3148bdd099909e8348cc3f1",
    ("report", "a2-hyperbolic"): "bbf8ed16826fab860815c8635057ca3d197989b5db80cb0b17cad0e899b66b63",
    ("report", "a2-positive"): "cb08df0ddd8eed5bfb5d99cb1f68cded19836221c801f801e8a55e27b3fb9bec",
    ("report", "darboux-x2y2"): "d17ea9466bf694433e3518605426a71ee6a97dbe32bb612cb9a93693b081e03e",
    ("report", "xy"): "dbdd5420ab9557d481ed5ab25f3d64e022c539430d909f0e8c4cbd8e1ebd7fc2",
    ("report", "xy2-x2y"): "69a167628ddcb8ee91e40a0a343cfc53a97235b6cb539babb4913865805fc9cb",
    # the seeded corpus-r1 scene r1-014 of bench/scenes.py (seed 20260815),
    # whose truncation basis holds y^2 + 1/3*y*z: the one digest that prints
    # a coefficient that is not an integer
    ("reduce", "r1-014"): "80146b1a916ed9c40089dee354d56d714ff08c9075663baebc5f48df19ad0f9a",
}


@pytest.mark.parametrize(("command", "scene"), list(GOLDEN))
def test_json_document_digest(command, scene, tmp_path, capsys):
    target = tmp_path / "doc.json"
    assert main([command, "--scene", f"scenes/{scene}.json", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[command, scene]


RANK2_GOLDEN = {
    "crit-abcd+ab": "55bd19d12f6d070f982037d08a4d1c564c511a5e8a3967007d062b80853b9899",
    "crit-ab+cd-1": "e0207abed3e7bbd32bf60ba17619199a0b66f48cc28f6263bdd779a4b1b9d33e",
    "crit-a2b2+cd": "df7e8b42623acedc674390643c1c3cad6caf5f6db06312613603f4e2bf929ab1",
    "crit-ab+cd-skew": "8b6bba343c1eba1fb40008fbbbddf9028d7652c4bf6722d9db113a476292914a",
    "hyp-ab-1": "ea905cc68b0cde0568fe8a948df503c655210e9bedb4aa90e484b4799631f08d",
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
    "crit-abcd+ab": "6513b53b4db5ae9b5f69a2319f835e503775c4136f1717ac11dd752213fa3d81",
    "crit-ab+cd-1": "98a58e9aa0b1f424efd11d0492a40811751e819e526161382d76f7123183f86d",
    "crit-a2b2+cd": "9574789fb5f85b52bc5e3f6908e17609b2ab096136c11695e5d2e601926362b0",
    "crit-ab+cd-skew": "58ca7e1d132a040a34ed765a7f705c65f66c52c765fb9470087d1d113e477b45",
    "hyp-ab-1": "5c78af94b3daea33131255f014732222c8c16346e6d8fed2242358eb5d82bb36",
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
    "a2-hyperbolic": "9c09a5e0ac6d5df5cf91f9090c8dc576e064efce10cb8de4611b7398b20e3ded",
    "a2-positive": "d1a3414144f76a1b2c68665219d847181fba4b7cb147490c2a1e2773b33bd7be",
    "darboux-x2y2": "21ff7d0eaba6a4794b686f9f72f073e67839381aa8ce3a0196b4aef67255445e",
    "xy": "6dd556e19947c301f8fbae8307e2138baf738c7d97ce5e8334d5270d0d6f5633",
    "xy2-x2y": "681ccfbf534bfbfb8938e647e9d7709c023c9c6276178596cb3b9329e90e5083",
    "crit-abcd+ab": "e75d69836ba0530419c241423d48578ccebed8158c783b6b33eda1420be1f268",
    "crit-ab+cd-1": "e0207abed3e7bbd32bf60ba17619199a0b66f48cc28f6263bdd779a4b1b9d33e",
    "crit-a2b2+cd": "363cb40b845cb3b57ad9801ac1ba42252ce1b2cdf8f585dd611e2b0c29dd1032",
    "crit-ab+cd-skew": "8b6bba343c1eba1fb40008fbbbddf9028d7652c4bf6722d9db113a476292914a",
    "hyp-ab-1": "ea905cc68b0cde0568fe8a948df503c655210e9bedb4aa90e484b4799631f08d",
}


@pytest.mark.parametrize("scene", list(LEX_GOLDEN))
def test_lex_reduce_digest(scene, tmp_path, capsys):
    path = scene_file(scene, tmp_path)
    target = tmp_path / "doc.json"
    assert main(["reduce", "--scene", str(path), "--order", "lex", "--json", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == LEX_GOLDEN[scene]
