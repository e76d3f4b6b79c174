"""Golden stdout bytes for every subcommand.

Each case maps one argv to the SHA-256 of its stdout and its exit code, as
the CLI printed them before its handlers were reduced to payload builders.
An argv entry "@name" becomes the path of a file holding FILES[name]; the
path is plumbing, so it never reaches a configHash. The table covers JSON,
``--format csv`` wherever a table exists, and at least one domain-error
envelope per input path. A leaf of the parser tree without a case fails
`test_every_leaf_is_pinned`, so a new subcommand cannot skip the pin.
"""

import argparse
import hashlib
import json

import pytest

from sidonlab import cli
from sidonlab.cli import run

FILES = {
    "ints": "[1, 2, 3, 4, 7]",
    "neg": "[-1, 2, 5]",
    "seq": json.dumps(list(range(1, 40))),
    "sparse": "[1, 2, 5, 10, 11, 13, 20, 30, 31, 45, 60, 61, 80]",
    "ruzsa5": json.dumps({"status": "ok", "payload": {
        "elements": [3, 14, 16, 17], "modulus": 20}}),
    "fam": json.dumps([[7, 7, 1, 13, 8], [17, 7, 6, 6, 8],
                       [8, 7, 18, 8, 8], [11, 7, 4, 5, 8]]),
    "cert": json.dumps({"coreValues": [7, 8], "petalIndices": [0, 2, 3, 1],
                        "typeSet": [2, 5]}),
    "mixed": "[[1, 7, 2], [3, 7]]",
    "cert2": json.dumps({"petalIndices": [0, 1], "typeSet": [2],
                         "coreValues": [7]}),
}

MODEL = ["--gamma", "7/11", "--m", "2", "--modulus", "5",
         "--residues", "1,2,3"]

# (argv, sha256 of stdout, exit code)
CASES = [
    ("construct erdos-turan -p 7",
     "8e7143203bf5442961332d818b445fab2a12473fb0500d6e12af30ef2eb61b4e", 0),
    ("construct erdos-turan -p 7 --format csv",
     "373edf7feba0eb54e5507e788833ca89d0bcbc61b643e9f1d6954c79f57a173e", 0),
    ("construct erdos-turan -p 9",
     "46d24b0def09bc450a41c36c674bb71a8d432c3b361e2c4d57ddce5f5b1f23db", 1),
    ("construct ruzsa -p 13",
     "66b20e795599656870db7439880456beec4cb2757f138dd33fbc523a53f9d8ac", 0),
    ("construct ruzsa -p 13 -g 6 --format csv",
     "739028b3451c7b8827a4f51a745f759f33304a904eec393718257392c2e8e512", 0),
    ("construct ruzsa -p 15",
     "3606574802f5c7becae5b06516729cfac779370e4880e3eb7c7d567876e4bd18", 1),
    ("construct ruzsa -p 15 --format csv",
     "3606574802f5c7becae5b06516729cfac779370e4880e3eb7c7d567876e4bd18", 1),
    ("verify sidon --in @ints",
     "8b96008f203b6b6f0f31f4f6f0ad0276ffdfbe576ce2c85769a41b350cb7f26d", 0),
    ("verify sidon --in @ints --format csv",
     "9a6eb42b7db9cb9b6f2ccfa3650ed331c5ea5dd7228d01419b87611d53e379bd", 0),
    ("verify sidon --in @ruzsa5 --mode cyclic",
     "078b36157eb0d661ac5bfb5c90d8db5972f77af4658e21e6ea418610b74dab91", 0),
    ("verify sidon --in @ints --mode cyclic --modulus 0",
     "d061b129214dac3c9ebcca4f70156d4abe2ee295d32cc584a73f055b172a32c2", 1),
    ("verify b2g --in @ints",
     "2e6f7efcaeed0f6526fc95ba1969f4ab4f587a40cd99ab4b515d1f578c71c083", 0),
    ("verify b2g --in @ruzsa5 --mode cyclic --modulus 7",
     "9b0992638b1e281f1ad72a5bd5dc7cacb49d5bfec12d657709ab1e56f60384bf", 1),
    ("verify basis --in @ruzsa5 --order 3",
     "4f0eb104980bedde042cb9c216fe7a9730c3281b8ca71dae6fe53ac0e86262f0", 0),
    ("verify basis --in @ruzsa5 --order 2 --repetition forbidden --format csv",
     "f8b64bc6af1d7fa2d691e9b312fb653e203aab6a37d7277b8aa75c0c2550076e", 0),
    ("verify basis --in @ints --modulus 0 --order 2",
     "0f47e12ba24ad6c0fe63fe440d88e1f07b9e2f4a9c9a3735b99389b679cc1b40", 1),
    ("curve count -p 13 -b 3 --lam 5",
     "945ea75c1961d429aafac3eae28996b99a148badb737fddf35eaf5534f067517", 0),
    ("curve count -p 13 -b 3 --lam 0",
     "bdd64afa4fea9d629fda40b8907dd4aea0b1bfd17ea30277f8bbfaa65bb21118", 1),
    ("curve identity -p 11 -g 2 -a 3 -b 4",
     "680d2dc2143fde2cb31d72d9bafe9a696d648e3717e09f2c07f2615ff7867c3f", 0),
    ("curve identity -p 11 -a 3 -b 4",
     "680d2dc2143fde2cb31d72d9bafe9a696d648e3717e09f2c07f2615ff7867c3f", 0),
    ("curve identity -p 13",
     "8ca5e5f6cc9a7c5bbb63eb736e4c61431e8338485f705d2da54796db3fca0d35", 0),
    ("curve identity -p 13 -g 6 --format csv",
     "9a0bbd2fbd14a4f5ea17a4aa1dd37eb429eb990a32ad30db33f48e2305fb0a8c", 0),
    ("curve identity -p 15 -g 2",
     "0a0bc9217787e99832d276b2b3656e2abab1b8d579ccbc187f1b0316bfa5a6ad", 1),
    ("curve identity -p 15",
     "345316ac8563cc972155991713c419bb0e22f4429fa0acaac52f93228b63bb6e", 1),
    ("curve identity -p 7 -g 2",
     "726fe4c756f546f6106f0776d83623ff05bc8c74a7a979cc9e4ec3267e43bbc8", 1),
    ("curve identity -p 11 -g 2 -a 30 -b 4",
     "bd642734b33d8e1a25c3a04276cf26ec42b4e861d37f3f1434eb1f4d1833995e", 1),
    ("curve quadric -p 13 --r1 1 --r2 2",
     "2e01ce22338daae817821c7d2dea08e36b2549adb07a3796a0333def2537770e", 0),
    ("curve quadric -p 13 --r1 1 --r2 2 --format csv",
     "c06119e4bfa643b15c3aff74ecfcc8ca724d596e76a6ab6bda22be6968abdcce", 0),
    ("curve quadric -p 13 --r1 13 --r2 2",
     "277bb0639c2ce67975febb91e605a0b4f745470c3477eb12b62298172984ce3f", 1),
    ("curve coverage -p 101 --r1 1 --r2 2 -k 2",
     "d7976914919ede42677fc22899aafd5aa442cc6ce7e1bea3f3275cac6e1f79b9", 0),
    ("curve coverage -p 101 --r1 1 --r2 2 -k -1",
     "4b8952d950b62a15e21b70a5e0057d9adc36d516e4765d1df7113af789b6a7a7", 1),
    ("decompose ruzsa3 -p 13 -a 5 -b 7",
     "0da093b7238b36dd69b4d4fe51df7fad1ef60aa0df3e4933425ae66c3f326e82", 0),
    ("decompose ruzsa3 -p 13 -a 5 -b 7 --distinct -g 6",
     "537e0a7185e860dc7e56857f77da6587e206da5b6a301486d251179005c87ead", 0),
    ("decompose ruzsa3 -p 12 -a 5 -b 7",
     "085aa869239f46614fdedc8a2711a460ee1daa3cfa00fb0eeffa914f35e16947", 1),
    ("decompose ruzsa4 -p 13 -a 5 -b 7",
     "e9ca858b68d6f80f267c99f55c7191575430c759511bb2d0628c0ab699608ef7", 0),
    ("decompose ruzsa4 -p 13 -a 5 -b 7 --format csv",
     "c8157a87f524531733ab14f0083606e4ba6bb121c641b184afec158719f46e7f", 0),
    ("decompose zn -N 700 -n 100",
     "14d574642779cbe1e604e292991996b159b123e25c1e027b7bfef4a98114e58b", 0),
    ("decompose zn -N 700 -n 123",
     "b9b3f7005904826075e0860ea2a6d13e56cc52e7e94fa6e86464c9fc0e1e72c9", 1),
    ("decompose zn -N 700 -n 100 --search box",
     "09b55d64b6b6bb0b8117740a465e8ca079b51a2c77a1fa2663c8ee850e7b22b8", 1),
    ("sample --gamma 7/11 --m 3 --horizon 400 --seed 9",
     "b7b6729422f4b58e1aede48a0344c0e0de04a4562f833a0222a14df4e722c998", 0),
    ("sample --gamma 7/11 --m 3 --horizon 400 --seed 9 --format csv",
     "71485ea22c79e2099a2a6295853cdfbe9de81d015094a396668a3442b69dcd82", 0),
    ("sample --gamma 7/11 --m 100 --ruzsa-p 13 --horizon 2000 --seed 5",
     "16991605a39197c00a0ac1afe2a35836b663742bd461ad63642a6e104152e248", 0),
    ("sample --gamma 0 --horizon 10",
     "dfc2ffbf7333ce865a659092533661c8656e2d0512e924583f4a6529bfc2efb4", 1),
    ("sample --gamma 7/11 --ruzsa-p 15 --horizon 10",
     "af510729dc7895a2ca57460b1463453994e05e90bcc0dbdec76013975c077234", 1),
    ("sample --gamma 7/11 --horizon -5",
     "cc6ac99085250340c479baa854b6d6e4506eb7d06c1bfd55d38601442c301b79", 1),
    ("lift sidon --in @sparse",
     "e1eb7073b03b41d61c002a7a4ccc2adf05d04cf25e1c5ca1187ac332e9dfcb71", 0),
    ("lift sidon --in @sparse --format csv",
     "fc156da70873f615f48537490e07c276bfe19ae09bd883c519f046c5475001be", 0),
    ("lift b22 --in @sparse",
     "d59dc88bdd435fbe73005d0b94d0bc5bcafd8474f8cddec4a69b47436e7fa1b1", 0),
    ("lift b22 --in @neg",
     "78ad57379fa33548f09c2da11c7fe6902a3811e7c2bc2838de244d37ebe12606", 1),
    ("lift sidon --in @ruzsa5",
     "353241c3aadbdff228520a875ff0e013736c333e993737f3ae21c209b8e36cb1", 0),
    ("family enumerate --in @seq --kind Q --target 60",
     "7111c20b32a9a67454795b5ba8365497492ee944d193565de96b40a6b87dcb0f", 0),
    ("family enumerate --in @seq --kind Q --target 24 --format csv",
     "d27fdb67eea9b116cf089a045d195d0e6171484f152f5e522b0603ca2f8811a3", 0),
    ("family enumerate --in @seq --kind R --target 90 --epsilon 1/2",
     "26c21ab0cbad68e705e097c88c9118bb2e3c5bf5be9fcbe0ed3bad76309c7542", 0),
    ("family enumerate --in @seq --kind U2 --target 16 --modulus 5",
     "74b8300a8dc067bed2478407553dc67c9697fa79a7aa2aa9b3c715f782ae15c2", 1),
    ("family enumerate --in @neg --kind Q --target 10",
     "201f2f611a47326634fe904298d5376f0ec6a5f3ecafb0ee318a4ff28bb6046c", 1),
    ("sunflower find --in @fam -k 4",
     "1bd9feb2df8147d7552e1106dcbea2ba201ef18b9b90a5aa053fa47ea6eb68df", 0),
    ("sunflower find --in @fam -k 5",
     "52f9795cd4f3c8cff9f725aa42a139131915458b562acd82853834a25d646f51", 0),
    ("sunflower find --in @fam -k 4 --format csv",
     "af74fe2fc9617631326e558869caa06d1e3d7d7dbe05285c42f88ea941eb7c93", 0),
    ("sunflower find --in @fam -k 0",
     "00129a871b10b44df77bc19cc321d186aea122b5e0096deca6ea0285bf6fc19d", 1),
    ("sunflower check --in @fam --cert @cert",
     "4fc756d3c463e25516a49fe0e05671dc73df2a6b9f91b704791e20de2db124bb", 0),
    ("sunflower check --in @fam --cert @cert2",
     "221cb7a322c50e4cf674c231cd1b137e44ea70315249282d9802962513dc52fd", 0),
    ("sunflower check --in @mixed --cert @cert2",
     "9da2601d850f36cff3dad64f3bb7c1d9bdcebc603e82dbd3d0f7a28065188b62", 1),
    ("analyze sigma --alpha 1/2 --beta 1/2 -n 4",
     "7a3f2b8e3387ee09a5869907694c2a0846ead8c6ef3a3136793976611ca2998d", 0),
    ("analyze sigma --alpha 7/11 --beta 7/11 -n 10 --m 2 --format csv",
     "78e55f1a9d6a81a92264b89fcab8902ae9b3696dc799a19d3d0e6ece7c4cf4c8", 0),
    ("analyze sigma --alpha 7/11 --beta 7/11 -n -1",
     "44986a734af38d9ef61d1bea5728f75fc20458bebb02598790b88b2766bf6e12", 1),
    ("analyze tau --alpha 7/11 --beta 7/11 -n 10 --m 2",
     "96f6b3cdf9e33fff250c21eebbd17618480295543dd7d9e87e5dbbff2b0d031a", 0),
    ("analyze tau --alpha 7/11 --beta 7/11 -n 10 --tol 1/1000 --format csv",
     "667b70234931e48c51be6e312051c9065185b641d2ffdf671ef16c85ea12c588", 0),
    ("analyze tau --alpha 1/4 --beta 1/4 -n 10",
     "8e21747e22457f077d8c5514ecf95766992c62b67bdbd06f8b2e543e80f934db", 1),
    ("analyze lemma-ab --alpha 7/11 --beta 7/11 --grid 30:0,100:5",
     "fc9af39fec664be8932844528841212d66c6bf8baa2121a9b2883fec80f5e0d4", 0),
    ("analyze lemma-ab --alpha 7/11 --beta 7/11 --grid 30:0 --format csv",
     "65ce17484f0ac400e9b98a3bc4aac08d40e0201161b596c1ed39445ff00d6dd9", 0),
    ("analyze lemma-abab --gamma 7/11 --pairs 2:5,3:4",
     "b01414fbca22cb874937f640a8aa3b7e30d1805a0c088fb6281e9b4712e8bc9b", 0),
    ("analyze lemma-abab --gamma 7/11 --pairs 2:5 --format csv",
     "51f719c55d66401637e7963e7c45a12d5aba7ec69ca6437380435f2a719730d5", 0),
    ("analyze lemma-abab --gamma 1/2 --pairs 1:1",
     "feffb3af6e7b503b2178e68e970e2b9f261214fb149139c4403615351166c144", 1),
    ("analyze lemma-abab --gamma 7/11 --pairs 1:1 --tol 0",
     "23d2f79afaded39637c79c8264114147d6752914d0fc9df4e495629ad25fbe2f", 1),
    ("analyze expectation %MODEL -n 45",
     "df85c8f6a4b89c363124c8b871aa8f1d126937f62abea010c6821b5dea2f3001", 0),
    ("analyze expectation --gamma 7/11 --m 3 -n 200 --engine transform",
     "c06af8fc5b1f9138cb552d697c2c4e6c8bb02101133a0135efdf7ae38eb3bec1", 0),
    ("analyze expectation --gamma 0 -n 45",
     "f9bb59295bb6ffe9d595a8c8309f4d603fab4bb4451dd6e8b0f451739ff8b3ce", 1),
    ("analyze delta %MODEL -n 45 --engine loop",
     "1cede7e1862ce4584c5ee04bfec416d1a837c8cbba0ca46a41f848c24b85ddfd", 0),
    ("analyze delta --gamma 7/11 --m 3 -n 200 --engine transform --format csv",
     "8874984bc68e51a2b46f5594580dccc202d6f70cdee58b12747171a41994e7c0", 0),
    ("analyze delta --gamma 7/11 --ruzsa-p 13 -n 500",
     "7037d4989ce82ad164e2e96ce3a4b74694d3c92d1684ded4b4a82259ef6fdab0", 0),
    ("analyze montecarlo %MODEL --kind U2 --targets 30,41 --horizon 80 --trials 4 --master-seed 77",
     "9baabc1da32832df0b1e49859c232ec6b18a8053c657f2a0cdc61620e866561e", 0),
    ("analyze montecarlo --gamma 7/11 --m 2 --kind T --targets 30,41 --horizon 80 --trials 3 --master-seed 7 --format csv",
     "7392b2566d13bf26eb7747e61d4a0e3de719f4b9bd2a34754266aaccf80448fb", 0),
    ("analyze montecarlo --gamma 7/11 --kind Q --targets 30 --horizon 80 --trials 0",
     "49dd145de5b39b43850c25fed8a57c03159d18ee6da808024ea52ad8157bc658", 1),
    ("audit destruction --in @seq -n 30",
     "1cedb06de1ea2e28300e215776b635da201f957c7806a502da3912afdbfc21a0", 0),
    ("audit destruction --in @sparse -n 41 --format csv",
     "9d2aaebb6ce0ff27af7a61fde0dfaa46874dc9617f8a9bcb88a114bda3b0652a", 0),
    ("audit destruction --in @seq -n 40 --mode sidon --format csv",
     "a4f8422545df9e566e2901fd77f314c04eeed9408c9bd0a1b2fb95d4a24fba34", 1),
    ("audit destruction --in @seq -n 30 --mode b22 --epsilon 1/2",
     "fdcc0c7c206cc8d530d33b2777ffb3c7cc01122ef0893154bbbaa954b370be74", 1),
    ("audit destruction --in @seq -n 60 -N 7 --mode sidon --epsilon 1/2",
     "818f458fef4d9fb3052a62c42a0fb82d43a3270f51598424cd86e242eb69de10", 0),
]


def _argv(case: str, tmp_path) -> list[str]:
    argv = []
    for word in case.split():
        if word.startswith("@") and word[1:] in FILES:
            path = tmp_path / f"{word[1:]}.json"
            path.write_text(FILES[word[1:]], encoding="utf-8")
            word = str(path)
        elif word == "%MODEL":
            argv += MODEL
            continue
        argv.append(word)
    return argv


@pytest.mark.parametrize("case, digest, code", CASES,
                         ids=[case for case, _, _ in CASES])
def test_stdout_bytes(capsys, tmp_path, case, digest, code):
    assert run(_argv(case, tmp_path)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _leaves(parser: argparse.ArgumentParser):
    cmd = parser.get_default("_cmd")
    if cmd is not None:
        yield cmd
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _leaves(child)


def test_every_leaf_is_pinned(tmp_path):
    parser = cli._build_parser()
    pinned = {parser.parse_args(_argv(case, tmp_path))._cmd
              for case, _, _ in CASES}
    assert set(_leaves(parser)) <= pinned
