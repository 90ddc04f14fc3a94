"""Byte-identity gate for the solver.

Pins the sha256 of the sorted-key JSON of solve(...).as_json_dict() on three
point sets: every divisor pair (N, r) with N <= 32 under PLAIN,
NON_COSEMISIMPLE and NSP; the paper's NSP exclusion scans N = t*r for
r in {2, 3, 5} and t <= 21, infeasible points with their refutation traces
included; and (45, 3), (36, 3), (75, 5), (100, 5) under all three regimes.
Points are grouped by (regime, N); one digest covers the certificates of
every r of the group, in increasing r.  The digests were recorded before the
solver's node and budget accounting was reworked for speed; a change that
only makes the solver faster must leave every verdict, witness, node count,
close count and refutation trace, and so every digest, unchanged.

A second table, SLACK_DIGESTS, pins the small group orders past N = 32
under NON_COSEMISIMPLE, where most supports close on their budget slack
and most of the solver's time goes: r = 1 for 33 <= N <= 46 and r = 2 for
34 <= N <= 60.  Its digests were recorded before the R4, R5 and R11
verdicts were hoisted out of the per-node work and phase 2 was rewritten
over the slack.

A third table, WIDE_DIGESTS, pins wide grids: (600, 30) and (800, 40) under
NON_COSEMISIMPLE and NSP, and (900, 30) under NSP.  With max_d 15 to 20
each level has 120 to 210 branching units, most of them closed at every
include step, which is where counting closes by group bitmask departs most
from walking the groups one by one.  Its digests were recorded before the
include steps counted their closes by bitmask and phase 2 ran once per
distinct cost.

A fourth table, TRACE_DIGESTS, pins the order of refutation traces: NSP
(330, 30) and (399, 21), infeasible with 14 and 12 refuted coradical cases.
Its digests were recorded before the search took the cases in witness
order, the reverse of the order the trace lists them in.

`python tests/test_solver_golden.py` prints the four tables as Python source,
so that new points can be recorded on a chosen commit (from a checkout
without installing, `PYTHONPATH=src python tests/test_solver_golden.py`).
"""

import hashlib
import json

from blocksieve import solver
from blocksieve.blocks import NON_COSEMISIMPLE, NSP, PLAIN
from blocksieve.solver import FeasibilityProblem, solve

FLAGS = {"PLAIN": PLAIN, "NON_COSEMISIMPLE": NON_COSEMISIMPLE, "NSP": NSP}


def golden_points() -> dict[str, list[tuple[int, int]]]:
    """'REGIME:N' -> the (N, r) points of that group, in increasing r."""
    points = set()
    for name in FLAGS:
        points |= {(name, N, r) for N in range(1, 33) for r in range(1, N + 1) if N % r == 0}
        points |= {(name, N, r) for N, r in ((45, 3), (36, 3), (75, 5), (100, 5))}
    points |= {("NSP", t * r, r) for r in (2, 3, 5) for t in range(1, 22)}
    groups: dict[str, list[tuple[int, int]]] = {}
    for name, N, r in sorted(points):
        groups.setdefault(f"{name}:{N}", []).append((N, r))
    return groups


def slack_points() -> dict[str, list[tuple[int, int]]]:
    """'NON_COSEMISIMPLE:N' -> the r = 1 and r = 2 points of SLACK_DIGESTS, in increasing r."""
    points = {(N, 1) for N in range(33, 47)} | {(N, 2) for N in range(34, 61, 2)}
    groups: dict[str, list[tuple[int, int]]] = {}
    for N, r in sorted(points):
        groups.setdefault(f"NON_COSEMISIMPLE:{N}", []).append((N, r))
    return groups


def wide_points() -> dict[str, list[tuple[int, int]]]:
    """'REGIME:N' -> the wide-grid points of WIDE_DIGESTS, in increasing r."""
    points = [("NON_COSEMISIMPLE", 600, 30), ("NON_COSEMISIMPLE", 800, 40),
              ("NSP", 600, 30), ("NSP", 800, 40), ("NSP", 900, 30)]
    return {f"{name}:{N}": [(N, r)] for name, N, r in points}


def trace_points() -> dict[str, list[tuple[int, int]]]:
    """'NSP:N' -> the infeasible points of TRACE_DIGESTS."""
    return {"NSP:330": [(330, 30)], "NSP:399": [(399, 21)]}


def digests(groups: dict[str, list[tuple[int, int]]]) -> dict[str, str]:
    out = {}
    for key, pts in groups.items():
        flags = FLAGS[key.split(":")[0]]
        certs = [[r, solve(FeasibilityProblem(N, r, flags)).as_json_dict()] for N, r in pts]
        text = json.dumps(certs, sort_keys=True)
        out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


DIGESTS = {
    "NON_COSEMISIMPLE:1": "ee8ba51ffb80d6de78af5e5c797e4ec712471f471222a552179fe2e9e0bb643c",
    "NON_COSEMISIMPLE:2": "27097c3c4499853a23157225f9542240cb2b9ab77564c7a87f7bae5907eb9d10",
    "NON_COSEMISIMPLE:3": "00e4e7bc69c92ae094dd8b8e73f812e5a0103a92cbab0906e6e7abb6edc6860f",
    "NON_COSEMISIMPLE:4": "afa2ac4953b63ee8cadb4dc119c8e8abde2d0de02cbbfb0249dde11d8d6ba117",
    "NON_COSEMISIMPLE:5": "a936bcb9cbd3bffd7eadaddccd7895fdbb2195847a689f44e8a51d8adb94312f",
    "NON_COSEMISIMPLE:6": "f12b602f5ef0f0c77920c54d22b6b3d4808e89727e02db8d915d20d5479ee6bc",
    "NON_COSEMISIMPLE:7": "67cadea327da00fe0e59a6cd01c461c6114e522566f62c8bc6e259a695d62fec",
    "NON_COSEMISIMPLE:8": "9983779d5e5f09946afd23dbcada88e7bf66b3a23626907e1a3ebce8a50cff19",
    "NON_COSEMISIMPLE:9": "5560a25abb4dd3b37b00e42623bf66a1479851fa0a042e9a8807bb251b9f7376",
    "NON_COSEMISIMPLE:10": "6153dbd38e4a3ccf7ad819b0350c2c2b300c9ba3f94685b8e6bcbcdb208c7a1a",
    "NON_COSEMISIMPLE:11": "ee4a258e1b730eb9b9766c0b018d5f317ecf9ea03aa381108eaafeb1a07a6b79",
    "NON_COSEMISIMPLE:12": "d51107a38cab2c2be2997357d0ef87974bf0d681de23efcd1eaabb17c57e89a7",
    "NON_COSEMISIMPLE:13": "7a2ed6d7e21bb79bc72e693b60bbcffb5a2b72d0e3694ee850f552fceb75348e",
    "NON_COSEMISIMPLE:14": "2282b4a40eb4441f46abbc081bce249e38ad3ecef20817def8e6b62bcdd4e7be",
    "NON_COSEMISIMPLE:15": "d4509656f69709b605f13534082e198daa2ba001565144804b076e6b8c128c74",
    "NON_COSEMISIMPLE:16": "520c18130d7f2719aefbe51ed01faaba695d9996298834488c6f33d61885f416",
    "NON_COSEMISIMPLE:17": "43f25d6cb977b78fbf683386049060cd912245eb3c119f1420407c222a0a3def",
    "NON_COSEMISIMPLE:18": "723cce84110260c36f9dafb44dc3f1165fc5ebcb1db37d917da6c4366355eaf0",
    "NON_COSEMISIMPLE:19": "154bfde3534a0cf313549455a1ee0492a0c838acc3c0720d6ca9191d0f3b73b1",
    "NON_COSEMISIMPLE:20": "e17faac8e015e6f8c8f052ed76609e338b957c126066069e3fb8c515f2436122",
    "NON_COSEMISIMPLE:21": "9af3ea4c03d343b38c0db065b03cf4040e03d352d73b3545e895bdfe3d7bfe20",
    "NON_COSEMISIMPLE:22": "19d36287fc94dd1ed2604cc77edeb15d4f0e05e6662db0028a07d2a9db580436",
    "NON_COSEMISIMPLE:23": "3319bddb585cda2b114c812a1dc8b040dcfdb9d6c9814fd2183b3a860f5344bd",
    "NON_COSEMISIMPLE:24": "5890deebaf02b7a121b44309516f987da6ae5b276553b306d844c612fc44fb57",
    "NON_COSEMISIMPLE:25": "0663130bad8b320c501903dd5c11d056c3ac61a6447c90e14a0489153ab1495e",
    "NON_COSEMISIMPLE:26": "2edeeb4d5fbc30e507967354173e334291f68b622240a6e4f1ba5b281af5e9ec",
    "NON_COSEMISIMPLE:27": "92671dc93ac6cfce8251fbf67551d74a63646b9886fba1a72e8ad61c392bf657",
    "NON_COSEMISIMPLE:28": "ba2bbb4cf1f6da9d684ed510103867ba86da4452531e1c3d4d4fc1e64ef09d86",
    "NON_COSEMISIMPLE:29": "80dc5d5dc36ea19d1d59f295269ab6383b18efa7367160afe6e79894fc1df4b6",
    "NON_COSEMISIMPLE:30": "5c7364dd94907d667a00bd611042eb2fc4462ed07c6f2c8ff99ae6228d1a834a",
    "NON_COSEMISIMPLE:31": "203d499c203c8aafe55d979b7bb454f2dca03ae402e3f6ce62f5142cb0b4cb84",
    "NON_COSEMISIMPLE:32": "904daeff0780c4520aa7170311fe3de5487c35b32f959fad4d77160140bd90b3",
    "NON_COSEMISIMPLE:36": "d5e49c989e5088aa1c5a29a7e64fa86e8256ca11644170b13336994689c0fe85",
    "NON_COSEMISIMPLE:45": "e9d943cd278493858dd1fc68dcbd0bd9bcaaa382f28d53e2a05e60369b187c98",
    "NON_COSEMISIMPLE:75": "680914179389fc983eedb6029000c346ca5cf2f9dda53d41741fee07b0849e28",
    "NON_COSEMISIMPLE:100": "7aa8e9df8c7c11d6bcf3247b155fd6a77421f9e63d05e933550c640633f570b7",
    "NSP:1": "f81d3a4f2958d3b9499c3050c0f6afb8113d9b105438c05cc770522bae9d99cf",
    "NSP:2": "5366e7e5eeeec2d8dbc428cd471e3185a035493872492970c0709b84be274023",
    "NSP:3": "2e52f8e43f3fdd50433f482e013d51767e336d75506d0d088ffc612e03155c30",
    "NSP:4": "3a5267c787cd12da95e9dad2c7877260fc6d2fc617e168ce6b19715d319442e8",
    "NSP:5": "18917767c677b9874a61337756d3c6f2fd2e3b61ea66c4c15f59273730ea27a1",
    "NSP:6": "fca222dc45e01b7e1d5e8d3e2a413f71998ee49a9ecb7b3dc00a60d1af90e305",
    "NSP:7": "12adfcaa1fb9df3ef8c778daf11d8cf8c0b2edbd182f9ca951f4f163c51d55c4",
    "NSP:8": "459ad756d32f595f14bfa4b6fc84cee274fcb3f7403c13a47fb89928ae514e3a",
    "NSP:9": "b66360479ff7d507098fd3701673812c48ec1e230613d3c470d74f44b729f1ac",
    "NSP:10": "a9fc9a37741b56ba9dd744ea6682351cf2ab3a864816567520ebf3fc73796059",
    "NSP:11": "27d7622388b4cf83ecffd5f2eb09be6ee06b034a6d1644a67d6f1bce0cc7e3c0",
    "NSP:12": "ab04613b6d885c7c4736d21743117352005d74f90791364f65c1dce9a6864e63",
    "NSP:13": "9dab12ff4da0136eca58cd92282fde43ac3d4e973c18ba583cfd9a24395feb8d",
    "NSP:14": "436a4f196f666c8296a9c99c7f290cc970db1f8532e473b30745588920e6f116",
    "NSP:15": "6f13fecb56778724787764caa2ba7771666866ff11eefc33fc507a76f3210c31",
    "NSP:16": "fd4969711a35c87d849d5edb25d733a0cd16f9b7c7b02a6e729be31dd420c8b8",
    "NSP:17": "fc0fd8718dd1b2977a426996da9964264ca51ba4e3ed4e10611ce40e8abef2f1",
    "NSP:18": "bf9e279a3c686763ec90da35e2b7ac54ddbb003b944a24a78e905e33c006bf41",
    "NSP:19": "a41b1297bed1db06e4726276189ab76cf9f0d6c34210eae1ce822b3afe5bb943",
    "NSP:20": "fa593f5353fa10fac466c5d2a052e8666e6ac2cdbb89278d6a0fd3533d4b7c1a",
    "NSP:21": "ada67711e4c6e5d58e1864689d372aaa0e9e3d9704a964d48951725ca07b0026",
    "NSP:22": "8088f354d4f3256830c694e413a774043acc4979efadedcf9d201e54d0348503",
    "NSP:23": "138c164476993eca23bbb4c721697028c42c7690ace45b6821125e950635011d",
    "NSP:24": "0a4f0a3d4ff2ffd00cdf11fd27447384b0add604171976b0c729a294d9bff07a",
    "NSP:25": "651150c3e8eddcf3d71256d8bc7d971de1fadb4086cbba99370dbc44c9d68c0b",
    "NSP:26": "6817b6a9b35786b1d5736d4537c2ebcae447970d2e8b78b2c74533702eed4e49",
    "NSP:27": "94dbf851e88e6d7e8faf65839af962323b41c0178254fd778cd2e561665e27d7",
    "NSP:28": "30b9728f0155ed7f9f0abab10d53042a771d0f2538a652751aa43157c04e9c06",
    "NSP:29": "e8b1ee6bb1686403a483edbf6621ff574d2c0f28658e0ab30bca1985c8a2cd18",
    "NSP:30": "4a8c3af497af9999915a1dddcf6fc7e1e3ffd00e9625364085a243718c2f3852",
    "NSP:31": "8943c277e709d9267ecf7ce2ba07a523cabf33d1724ec6df40a60eb7b4202ed3",
    "NSP:32": "32d9b1182a1bb2f40f409798a16ba58494b74e622a4b7e089d5e302142c0b299",
    "NSP:33": "5cafb068c1c234c958ce8952325d4e63cd60c31638c25aefd0d7915161b54468",
    "NSP:34": "6929995d0de9342cbeca3e790777990b289ca249e246b7a091929fe455a579eb",
    "NSP:35": "b708f0f81ec6407d3317adc1c66f3213584729c18246e73f40a0eef01c4d62ab",
    "NSP:36": "2276c1130a160a0e2c66a091a6c9a842a0a26085213c2baa43bb8cbde5765d48",
    "NSP:38": "b5180f8106c2ba734feb3dd45027030a18ba2c070a9d834c8558d01c2e578dfd",
    "NSP:39": "48c1cb623d08ee953a774422d8aa41056a335934ff0e9f57ae7b655eb556ed5f",
    "NSP:40": "78aa47eadddb22cc152f327f130955e5f39ebfe21e6cf37f36299f56e78ee34b",
    "NSP:42": "5db64a9de972abf25df59a7c050354f02ef0d90cf0ebddfc1c359f9a165e371b",
    "NSP:45": "081515c8dec8bee510f8c6b2ecf49fe203915cfcf253c6cc8b0bb2d0a0550e00",
    "NSP:48": "69691c450f46ebfe4c8ff290c7bee434aecf8e726ce237ca61000ef03afc4bc3",
    "NSP:50": "843bf849384e87017e58c57217471a922a458c325dbe388ebad3eb0b249c6440",
    "NSP:51": "ee7b46713f621062e455a356d83dbce4f55c14c6ecd590fccaf0bd170fedeafb",
    "NSP:54": "3670f8af37183ce6a0528332b848a41f32bd87b559d99c90be7b917c38eac40e",
    "NSP:55": "b6fb12a2667d452dd5c6b24172f7899a754bdac4771759d53066c12d88b18f0c",
    "NSP:57": "c7a93c5f9f2a8c33d4334dd83ac2731936895f1a64bca781e77320403c33fdd5",
    "NSP:60": "b5674ec5d11af0c89446e4ae34c89a6acedeb161271493b08ec2d101a0b5c79d",
    "NSP:63": "59bbf2b4419a14ec58c12f4ae65a2fee0a18ffc8edeb19abfd5eeb7f66d4a645",
    "NSP:65": "bdc62776c7fe7ef3b7ea5d9f7e6fe2f1894dbd83cfedca91817e41d5e7839cad",
    "NSP:70": "3a2a137749ac9755cd77a04a5c8971b39bb244ae03b9f3a6af2d0ef11f79bb99",
    "NSP:75": "bebb9b7cfe4cc26fe06190cd6c71492c51a31942fce9842606dd2872406c086a",
    "NSP:80": "1aae0d75fdcc572c85dae7e9e43451f5ad5ae3a97028dc7ac51916ef0387ad63",
    "NSP:85": "327a231fd970f56ec987b9cdf6b254d8f06ff24565e1fc2a9c0e0496aefa0b12",
    "NSP:90": "e6ef62639382dea78b98dda7fbe13eccf760258b3bb2fdcb09abf5f5947cd7f6",
    "NSP:95": "810a9c168bb551ea5ee7b2ce25be68ede55aa290afbe02775508cbe71e7931a0",
    "NSP:100": "3e4ef2da214d3c87070bc0fce470d5eabb05d37e22f93093330cf0c994917139",
    "NSP:105": "0ab64916d4184cebe5eacb5e914af4cf549737ebb2ca26aafd2bd3b1ed6ba038",
    "PLAIN:1": "9931c79a600bcafdcbd8fb0450a1e884030c2b7a4e8f27cc953886b9bfd86413",
    "PLAIN:2": "95d01d9d0c2c923594d242a32923720af6fb62d09a205d5e42a6e6a36265f2f8",
    "PLAIN:3": "4d2dd9f3d42531fc008dfa3469aea4dcf974ec3f4f410f0a0d14cc4d3addefae",
    "PLAIN:4": "242cba8db1fc5f908cbb7d8b2797919c85f0a09f1752684e99a3710dde02fcf1",
    "PLAIN:5": "2408bb45e58078ddea3959ada740ee362f076526ce33b0f12a5afd6c97383d2a",
    "PLAIN:6": "74e6f0462090f233efaaed4cde1314d22925ad6c84d1eb5d99b54fa807004746",
    "PLAIN:7": "ec44c532a9873638dc00364dfd83b663e257f7dd3ead2c457712ad3dd781b997",
    "PLAIN:8": "3b12433aa06f2f45af942503def46887f27cb33f9f8645c4c2e3b8b08887d1c6",
    "PLAIN:9": "7d9b835238b01254bba0e0ba5c664800cbf3ed09ede86bfaf8c585419f3b3470",
    "PLAIN:10": "5e89e691f1660228d1a172b7225b368f18119c559ff3121dbddf2d07348e121d",
    "PLAIN:11": "03e44ad2f828566924ffd56de7eb112d98ef1567a86c65afdd87726c5031217f",
    "PLAIN:12": "e10874d43756af18f985a392be6ceb62fec9028183a2454c614b025439b341ae",
    "PLAIN:13": "3acf2386e0f566299dc694b7407026f08d3cbb365584698725661bc7b3da2f3f",
    "PLAIN:14": "9a74e528dac23a5bba8ca2e43326d57b0ab590f93a3af2dfd7b2b115cfb6fbe2",
    "PLAIN:15": "4a249ad18cf3f2b0d203f439778d74d47853e23b026266f0fb0f7db323773533",
    "PLAIN:16": "3f79d65aa9bd67e6a2395c81edbd15ed7b4756aed9490846cc1187c928ebd43f",
    "PLAIN:17": "d403f44e3f1f6c3ce7f0f7b58cebf013dae2f85ee2f0c57f38233243327713eb",
    "PLAIN:18": "75c089d996f0de9025c6a92229fecd05e9bc54a5e0a90ff0f51cd1bb3924e821",
    "PLAIN:19": "76819c6c15c04a48ab9aa1523dafebd5da04923708f2c3a99cd687257a2d5b84",
    "PLAIN:20": "446f6118f871d88655c22796f2b7402665201b86f71433057ffa390d2eb0c7ca",
    "PLAIN:21": "8c7fc8d97b0519cddbfd0f63917f5c9bb8bcb371753c8d58c3a0ec39b235eb04",
    "PLAIN:22": "be51746bebd8ead293efb02a848bed2cd9306b9e2456092a3f5bd481e729d748",
    "PLAIN:23": "3580f55486a42379db69fb8d90e6fd29e04e5f7c568cad207f70bd412e1c39b2",
    "PLAIN:24": "9deeedc98c6e136e8040180bc9d58b1a4a4d09a0dec95adf52101f71b3d62a30",
    "PLAIN:25": "80560d13282ca18a63197d1accea9f62999acd30c0fea7887f6c4f5ab9afde07",
    "PLAIN:26": "81e29c4397744c6bf3b080fcbb4cad780fa88d9bb2fa2409a5c550dafccffe4f",
    "PLAIN:27": "9d9cfb8a3bd94ff5b2275c167d514fdd728fcc9a590a7cc992cf2d5ea7d2d1ba",
    "PLAIN:28": "0d44494027c266a19fe70048011e859002bcc02efdb8327d713e53ce3ce3803a",
    "PLAIN:29": "ccd4948822433fd21fd1e7128a41136731ec7ed4a034c76df8ea15253bb172e9",
    "PLAIN:30": "774848534571435a395c0fad97a3b554a31b7436bd9e388f074a00adbacb6544",
    "PLAIN:31": "2a7fe316bc9fdaddba741cdb069b8be8f1396cd124f587529020a851a3e3d28d",
    "PLAIN:32": "b4dc4d7ff79df4bb5e414b947f8367ceb7e49fcd3058f02c7d13a5913b2b9c7e",
    "PLAIN:36": "faeef287d6f703f177fa3f296f270a62d45c278688d22a6f2567f33d7fd752a2",
    "PLAIN:45": "eac99f7c6015adb3ace6f87526508921381e260bd4c23f1e2e21897003af444d",
    "PLAIN:75": "5d71fe8070d88e47c9bee9253e645d4d721f0c0473e9200a0b11d31c8e68db6e",
    "PLAIN:100": "6a51bf34ba9618a9fa8d833dd4a468f84665d61b21ed8a14e73f4b195e7026e0",
}


SLACK_DIGESTS = {
    "NON_COSEMISIMPLE:33": "fef4622ea8be594dc05201e77ba76a31383b090f992768cb76e3e905f00bfed9",
    "NON_COSEMISIMPLE:34": "2fad8b343409a98b6afc8565aa92a47a8928ba8e0655ce1d2520003ac87e8a7a",
    "NON_COSEMISIMPLE:35": "5d89edf4dfd7e7a3fc0b21dfc196ec459eb2ad239dbee872bcd3f87b280d9965",
    "NON_COSEMISIMPLE:36": "7a79c52567f054606f6169e6b75162674141bf19001b61480541b840e8ae9df3",
    "NON_COSEMISIMPLE:37": "954270f72e3582934c1c77950b3962e19d29beee5e073c7f7557f03b2b9c387a",
    "NON_COSEMISIMPLE:38": "4a354aa35dd6a8d0abadcea09564bbfe76bc20b04136404465a782ebf45db285",
    "NON_COSEMISIMPLE:39": "85e42cc6007642f6558748a73cd7965c7bbf40ddffb2558fe82a6e6c9b8d9479",
    "NON_COSEMISIMPLE:40": "03905392d648ee07ed1cf197cef571f81feb9fc47d7d434b5a22a53eedc4b154",
    "NON_COSEMISIMPLE:41": "7faaf6759db5f5f66f45937971d5be1fa68e5a2c15b438396b2583f6b144d872",
    "NON_COSEMISIMPLE:42": "7ffb8499c53e167b9d2cbd129fc69c736217e857d52678f54cad405e2f84933b",
    "NON_COSEMISIMPLE:43": "ec17d4d029a5426f3317e3079b7bc4e085e3009fe00ba57564842c0db8481e52",
    "NON_COSEMISIMPLE:44": "7ae6d2e35e40bd4151bb02bf6b9738241717709e54676c0cbcd0b104aa0b9e8f",
    "NON_COSEMISIMPLE:45": "313eedacb83e530038917af1c9b4f410568e2ec9230445635888f07460a20069",
    "NON_COSEMISIMPLE:46": "311e8b44119fbe64b5953e9b091b22b046f48c31ac4ced78dc4b57aff0f26eb9",
    "NON_COSEMISIMPLE:48": "2c9dbf74e9833e8f254c5dd0dd0a1781ad15ceaa513ab96a9c090b62c745347f",
    "NON_COSEMISIMPLE:50": "c9c6445a4cae0ca3ceedfeff47667551cee5416a75a1d3e52e4ad15b7a3a5171",
    "NON_COSEMISIMPLE:52": "ee76bb5361112c4718d2a192a39bc79c1c171e31b63f94a433586e56b2568cee",
    "NON_COSEMISIMPLE:54": "c0fe1a30caacce3dd86c6c9b292d4b87571987821c40a63ec098fcd109a2a1f5",
    "NON_COSEMISIMPLE:56": "1dc448a49f612f6288b07b3c72b766ffdfe9bf9afedd95cdedd8bbea14cda7c0",
    "NON_COSEMISIMPLE:58": "061e8e311c9264b03e1ea3951b3178851e7a440e779b38f2f8333fa7dc087c06",
    "NON_COSEMISIMPLE:60": "dd8c73ce0b8e2460a1253c50f524c78003a70c2d75718b092d24b29847d7a621",
}


WIDE_DIGESTS = {
    "NON_COSEMISIMPLE:600": "3a65ea87f9ff67e4baa4f1d2e393e9cc9f00fe24c7c37f032a6c1703a0ac8878",
    "NON_COSEMISIMPLE:800": "6f651aef68ac40ac4ad3310735ae7374f03a6b5141f4a73c4decbb44c604c3f0",
    "NSP:600": "34c33b8184519f1af3476dffe1636d88ddbedb03b6dfbdc8adf569c789c4e5d2",
    "NSP:800": "28310ac5071e0df14645a2a0453b402869fea5956684caf1348d4d78b6143512",
    "NSP:900": "a3dcbd8b259f2546de1257fe99ce733d312bba760a0917aa5522b83a9eec7a7e",
}


TRACE_DIGESTS = {
    "NSP:330": "28612e06760ff822a4a4e2751ade484b1b59fd66ff62610b3fbf8e9ed20b4fed",
    "NSP:399": "1ab1cc96b64ed47e5e239cfeb95cb99baa1e9bcbe1a81e4b5ff4f88da3223c08",
}


def test_solve_output_matches_recorded_digests():
    assert digests(golden_points()) == DIGESTS


def test_small_group_orders_match_recorded_digests():
    assert digests(slack_points()) == SLACK_DIGESTS


def test_wide_grids_match_recorded_digests():
    assert digests(wide_points()) == WIDE_DIGESTS


def test_refutation_traces_match_recorded_digests():
    assert digests(trace_points()) == TRACE_DIGESTS


def test_trace_cap_keeps_the_first_cases(monkeypatch):
    # the first refuted cases, the largest d first, then one marker line
    monkeypatch.setattr(solver, "_TRACE_CAP", 4)
    assert solve(FeasibilityProblem(330, 30, NSP)).refutation_summary == (
        "coradical support {(0,1,1)}: closed by RNC (57 nodes)",
        "coradical support {(0,1,1), (0,10,10)}: closed by RNC (57 nodes)",
        "coradical support {(0,1,1), (0,6,6)}: closed by RNC (57 nodes)",
        "coradical support {(0,1,1), (0,5,5)}: closed by RNC (135 nodes)",
        "... further cases elided",
    )


def test_trace_marker_only_past_the_cap(monkeypatch):
    # (330, 30) refutes 14 cases: all fit a cap of 14, one is elided at 13
    full = solve(FeasibilityProblem(330, 30, NSP)).refutation_summary
    assert len(full) == 14
    monkeypatch.setattr(solver, "_TRACE_CAP", 14)
    assert solve(FeasibilityProblem(330, 30, NSP)).refutation_summary == full
    monkeypatch.setattr(solver, "_TRACE_CAP", 13)
    assert solve(FeasibilityProblem(330, 30, NSP)).refutation_summary == (
        *full[:13], "... further cases elided")


def test_non_cosemisimple_traces_name_the_rnc_close():
    # a trace line names the close of its case's level-0 leaf, which has no
    # block above level 0, so under NON_COSEMISIMPLE and NSP it is RNC
    lines = []
    for key, pts in golden_points().items():
        flags = FLAGS[key.split(":")[0]]
        if flags.non_cosemisimple or flags.no_skew_primitives:
            for N, r in pts:
                cert = solve(FeasibilityProblem(N, r, flags))
                if not cert.feasible:
                    lines += cert.refutation_summary
    assert lines
    assert all(": closed by RNC (" in line for line in lines)


def _print_table(name: str, table: dict[str, str]):
    print(f"{name} = {{")
    for key, digest in table.items():
        print(f'    "{key}": "{digest}",')
    print("}")


if __name__ == "__main__":
    _print_table("DIGESTS", digests(golden_points()))
    print()
    _print_table("SLACK_DIGESTS", digests(slack_points()))
    print()
    _print_table("WIDE_DIGESTS", digests(wide_points()))
    print()
    _print_table("TRACE_DIGESTS", digests(trace_points()))
