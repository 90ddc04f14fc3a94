"""Byte-identity gate for the analyzer.

Pins the sha256 of the sorted-key JSON of analyze(...).as_json_dict() for
the six corpus coalgebras and three seeded random-basis variants of each,
under PLAIN, NON_COSEMISIMPLE and NSP.  The digests were recorded before the
analyzer's simple-component stage was reworked for speed; a change that
only makes the analyzer faster must leave every one of them unchanged.

The corpus has at most four simple components, so a second table pins
inputs with many: tensor products of grouplike, comatrix, Sweedler and
S3-dual coalgebras (up to 24 components), two seeded random-basis variants
of g3 (x) g4, and 40 grouplikes, under PLAIN and NSP.  Those digests were
recorded before the simple-component stage moved to integer arithmetic.
"""

import hashlib
import json
import random

from blocksieve.analyzer import analyze
from blocksieve.blocks import NON_COSEMISIMPLE, NSP, PLAIN
from blocksieve.coalgebra import change_basis, parse_coalgebra, tensor_product
from blocksieve.corpus import (
    grouplike_coalgebra,
    matrix_coalgebra,
    s3_dual_coalgebra,
    sweedler_coalgebra,
)

from conftest import random_change_of_basis

FLAGS = {"PLAIN": PLAIN, "NON_COSEMISIMPLE": NON_COSEMISIMPLE, "NSP": NSP}
VARIANTS_PER_ITEM = 3

DIGESTS = {
    "grouplike_c3:PLAIN": "b50aa8da6a06f9f6539e81a527f2034229e50241fd8fe29e84f3d2a2bd49b8ff",
    "grouplike_c3:NON_COSEMISIMPLE": "5217f51146f0aa349c536d44eaa943d00116bcf899439de681ca159345987a42",
    "grouplike_c3:NSP": "c6c5afa8ec8bc2658f238ea674a1711d334d451e87975e2ea1324b9c0cbdb599",
    "grouplike_c3#0:PLAIN": "ed9db92d562e0bd174359467fc576a559d9096bce9a0d8589e47589f4bbdd59e",
    "grouplike_c3#0:NON_COSEMISIMPLE": "9f3413e86c7b61175ed9d6e95768be4f1cc235f6c260d4eab91f8912d02522d6",
    "grouplike_c3#0:NSP": "9c9ce1da60332ca5545559abf3711ae201b97b2e5f8650b9a841ef0b376584a8",
    "grouplike_c3#1:PLAIN": "194884766450bfccfa77e3035356312ba6f49b1640622c07053571c296fe676c",
    "grouplike_c3#1:NON_COSEMISIMPLE": "7314fb4f0013434122e4db8fb6bc23fcf93a15158d16fd06d594fc72fd670903",
    "grouplike_c3#1:NSP": "e544823d8849ee2a1e1fe7a23ff68b058a669705338a7a7e7babbe725d838e3d",
    "grouplike_c3#2:PLAIN": "58b8921c9b25130550ad0c3ac581b7ab8388e7cc6e89cda7a422969f68193978",
    "grouplike_c3#2:NON_COSEMISIMPLE": "ed5aa03ca16d2ef7115308b5ec72aaa49b0a4927317b66dacc899444b9e9b045",
    "grouplike_c3#2:NSP": "c0b7822bf7bd202db15a537f7d1c1f649a243c3570036c1b9aa0dc9a276dbbf7",
    "grouplike_c4:PLAIN": "f16375336bfae697259c95a6297c9c1d04cd84659030fa656f516a869f7d8f8c",
    "grouplike_c4:NON_COSEMISIMPLE": "ffe98651ea3e0f70888fb4f86604345480d4a22edad304618ae1ea7115682d65",
    "grouplike_c4:NSP": "5da2f08ace4c1ece766c2cb599c1dacf8b051f7e5e1ff4e7b96f20fd249c24af",
    "grouplike_c4#0:PLAIN": "a379c2705157a6c094c247004df7e918152e1064222295e1586b383a970292e3",
    "grouplike_c4#0:NON_COSEMISIMPLE": "19afb90446fe8c46065c91c299fc73f6b762af7d39b7bf2276862a04a3a09f2e",
    "grouplike_c4#0:NSP": "22c1dc2544f68caa9edbeb3961e948ee092260b8c9df3af1850bb0370f91e7cc",
    "grouplike_c4#1:PLAIN": "a3f28493d24a88492bd20f927e373386dfa1dffe41b5b04e2efd81ba5f72a969",
    "grouplike_c4#1:NON_COSEMISIMPLE": "103ec338f1e8ce21425e72b185eccbc3790ec89ec5158c8c1f5cb57eff4e8220",
    "grouplike_c4#1:NSP": "339ea96e0fe0a7e21dcc7b46198e144eb41fda3f18aed94f65d2bc489d88bee2",
    "grouplike_c4#2:PLAIN": "0418f3c103dc5865d70654edd8308d0a42f0f554d9fcbf6aa4a93e272de37286",
    "grouplike_c4#2:NON_COSEMISIMPLE": "729fb4c9d34fea32b97004d9b71aa009098cf3423c9fc7ef714db6de40a1f2a1",
    "grouplike_c4#2:NSP": "ed97c031d1e665970c1cb6105d472cf8b5ae3649b0704e7489e5f18198b75d35",
    "matrix2:PLAIN": "9ed4ed157d44dce9328db66d0acc58b41eb41d3dc3fa315eac8930cfb3372918",
    "matrix2:NON_COSEMISIMPLE": "b69d07148d23dd05578630f4dc61a44acc1fc4b2710cd217605dc559b4461916",
    "matrix2:NSP": "e1eb28880661182781270b928eef3c92f6c2380e47d2f6cdeddc557ac0e75aa1",
    "matrix2#0:PLAIN": "3f916229f3df6827f964616570e2bd98c01cb804be9461f2df530a30c8cdb430",
    "matrix2#0:NON_COSEMISIMPLE": "0fcd20273c7df4bb37a7994ffd29098bd9793b51dafa44f37a41b0db3c3a6c16",
    "matrix2#0:NSP": "bb51a99aed1dd6f40037ccf89a04f2108d5bcbaecd297fb1911300aaf9f3a3a8",
    "matrix2#1:PLAIN": "a1195bcdbac8321d15777e98f430a2b5f5a262773bb7f84e5322449a8ecef27b",
    "matrix2#1:NON_COSEMISIMPLE": "b894574c4a1a0a7ca1030e11eb40ec621ad2147ca08e633f075a8081ce6d397b",
    "matrix2#1:NSP": "476b9bf34c3928dae963101c87dd75b5ffb1de0fac4171c8ad23735103b9c346",
    "matrix2#2:PLAIN": "9ed4ed157d44dce9328db66d0acc58b41eb41d3dc3fa315eac8930cfb3372918",
    "matrix2#2:NON_COSEMISIMPLE": "b69d07148d23dd05578630f4dc61a44acc1fc4b2710cd217605dc559b4461916",
    "matrix2#2:NSP": "e1eb28880661182781270b928eef3c92f6c2380e47d2f6cdeddc557ac0e75aa1",
    "s3_dual:PLAIN": "5eb936f38f8d4e297a6a2cc583bde8be98b9f75fd0f4ac53972588929b26928b",
    "s3_dual:NON_COSEMISIMPLE": "f4d9b3b13cb6c7eba63772bb15e47751ae24372e71c73a3facd347c446b633f6",
    "s3_dual:NSP": "93e7ac7dc6c3e73020f6603e0c4534bcf3d07e42f81baaa7e872e2ce19799be8",
    "s3_dual#0:PLAIN": "a0c033313e50e8d697f0a1695da8d47f4779071c4fb9d3a048a672ddbf2efb22",
    "s3_dual#0:NON_COSEMISIMPLE": "de7d96a90b81830caa4b2070990008e27de075baa3a4bea6dd0163d972784c3d",
    "s3_dual#0:NSP": "28e91ae09b4c47798891d18d128e03044f9589c839970d54530e649f65fa4ed0",
    "s3_dual#1:PLAIN": "4f61fb56e75954ce3eb3a89bacc0887d191df09c51d4f992e7894c1f40480f51",
    "s3_dual#1:NON_COSEMISIMPLE": "5414a8d702ac3c049152ee56ec43bce3f9363f308466d710f727b27ff5eb123c",
    "s3_dual#1:NSP": "2e74966bb438dcb04454871526b6fb99b48bf52babf253240b0cb41bab65f62e",
    "s3_dual#2:PLAIN": "2db19ed718b75d903ddbe897bbf9749e2a3c95f281bfcf29e0395a1eb0b95ef1",
    "s3_dual#2:NON_COSEMISIMPLE": "8d227ca94ed9a9101d8fcecab58f314a438e9e5a4bad3d8079e64b297d8fd42e",
    "s3_dual#2:NSP": "eaa3b4ba2438bafcf7498c6105324bb9b8ecd225c53211ab8818dc8bab5a459e",
    "sweedler4:PLAIN": "9efcd956baebc3b22b7804a63ff5ba171f9f1ac4b762d6b356c504532fd29f40",
    "sweedler4:NON_COSEMISIMPLE": "9efcd956baebc3b22b7804a63ff5ba171f9f1ac4b762d6b356c504532fd29f40",
    "sweedler4:NSP": "d2e316939fb6c86e17c965bc1e10e0ffd16964b6bdbff673f53c147e33e1132d",
    "sweedler4#0:PLAIN": "549750f5dff539feb77220afc02a2593626b8807a5db70bca71933c88a23e787",
    "sweedler4#0:NON_COSEMISIMPLE": "549750f5dff539feb77220afc02a2593626b8807a5db70bca71933c88a23e787",
    "sweedler4#0:NSP": "66b40b09ec945f31d6172d2f281e6487a02704f1a1a25f2ca02b457d571fa5e0",
    "sweedler4#1:PLAIN": "56fcf8f11a7940fe6ca04afd8847eed15bc5d387cb5c769c1f7924d0a64d00c3",
    "sweedler4#1:NON_COSEMISIMPLE": "56fcf8f11a7940fe6ca04afd8847eed15bc5d387cb5c769c1f7924d0a64d00c3",
    "sweedler4#1:NSP": "94d62252b45f1d4f76e35daaf3730a7c4f7c67c93167d74d50151ed8eafa4e9b",
    "sweedler4#2:PLAIN": "37eadb3588a19321a8b0a7402eef07db1886450265e6233f6ddaac48b5f17370",
    "sweedler4#2:NON_COSEMISIMPLE": "37eadb3588a19321a8b0a7402eef07db1886450265e6233f6ddaac48b5f17370",
    "sweedler4#2:NSP": "c594f0e201d79d3025de4d0f666131baa8375a6c9f479808f3fa89d3606efb6d",
    "sweedler4_tensor_square:PLAIN": "32e187bcacf7b90a85408aa0c6de1e7a67dab3b88cbb042ec25cbe50884c3e8e",
    "sweedler4_tensor_square:NON_COSEMISIMPLE": "32e187bcacf7b90a85408aa0c6de1e7a67dab3b88cbb042ec25cbe50884c3e8e",
    "sweedler4_tensor_square:NSP": "d2e2a32088c4b0ac161496b9098fabadc93c26aea5921d6c186c71d72c65587c",
    "sweedler4_tensor_square#0:PLAIN": "03977d411d4643258bb79bf7af94c16f52f670671a05306cd8cefe41bdc65303",
    "sweedler4_tensor_square#0:NON_COSEMISIMPLE": "03977d411d4643258bb79bf7af94c16f52f670671a05306cd8cefe41bdc65303",
    "sweedler4_tensor_square#0:NSP": "198c3809fbe0ffeb526e593f2d81f357210b070f7622c7c3b8f3bc8c7947ed3b",
    "sweedler4_tensor_square#1:PLAIN": "d4da505b71db54bf2f75af8dfda8aa1185c34df2bff8e3320b935531f5e7faf5",
    "sweedler4_tensor_square#1:NON_COSEMISIMPLE": "d4da505b71db54bf2f75af8dfda8aa1185c34df2bff8e3320b935531f5e7faf5",
    "sweedler4_tensor_square#1:NSP": "71a61c83604053c65210a19ff0b58fb167d0698fc9746f0a4bc4ac0bf87e6132",
    "sweedler4_tensor_square#2:PLAIN": "abc3be0c0f6463593045b03159f2c248bb727d2c1a1c9a1b657ca3eb7fb286fe",
    "sweedler4_tensor_square#2:NON_COSEMISIMPLE": "abc3be0c0f6463593045b03159f2c248bb727d2c1a1c9a1b657ca3eb7fb286fe",
    "sweedler4_tensor_square#2:NSP": "86028afdc0c26eb083c80d5eebefc8997e82304673e61e3113272d86a2a132af",
}


def test_analyze_output_matches_recorded_digests(corpus_dir):
    rng = random.Random(2018)
    got = {}
    for path in sorted(corpus_dir.glob("*.json")):
        c = parse_coalgebra(path.read_bytes())
        cases = [(path.stem, c)] + [
            (f"{path.stem}#{b}", change_basis(c, random_change_of_basis(rng, c.dim)))
            for b in range(VARIANTS_PER_ITEM)
        ]
        for name, coalgebra in cases:
            for flag_name, flags in FLAGS.items():
                text = json.dumps(analyze(coalgebra, flags).as_json_dict(), sort_keys=True)
                got[f"{name}:{flag_name}"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DIGESTS


MANY_COMPONENT_DIGESTS = {
    "g2*g3*g4:PLAIN": "ba7c89bbd6f91227bb46dff8f480567bb03e40b8675a31b177e6039cdcc22f59",
    "g2*g3*g4:NSP": "08067039d6f943f01a54a3b2bf58c6bca8d42ed304752142ba676da5b3e484e2",
    "g4*s3_dual:PLAIN": "35ad865dbd0b047d367db39bf03fad1884718fe2876a39893694dbde50ff1106",
    "g4*s3_dual:NSP": "af106fc03ae0ff47a4f36dd16af4d84f5ba892a00a41d090b8d513c93849e7b8",
    "matrix2*s3_dual:PLAIN": "f256f56299990f52a6d8ed766e95563c63733e96bbf86e07ff47b2e999bb8c91",
    "matrix2*s3_dual:NSP": "2f7eec4bc79dee6948804d54e0c8fca12f4727ee39dbcf80aab0dd60a0ac59e0",
    "sweedler4*s3_dual:PLAIN": "acbb76d4d52adf9957c9f550b610ff06fc127da28cb017c311801f92fccc2699",
    "sweedler4*s3_dual:NSP": "c95551c328900e4cf9ad5163468303ce6f30c8f2e0f7c4cb933a6c9b974ce64b",
    "g2*g3*sweedler4:PLAIN": "1e1e2421be7e170970f18ae8a8cab5f78f5316269f1aec123d0d7ca294ca9633",
    "g2*g3*sweedler4:NSP": "49981ce65c7ffa571ad7d57e2352d0faf5097e7104b6af4c920c4f2cd5f100f6",
    "g3*g4#0:PLAIN": "0550b62a57afdf3d9c8260882dabe9db5a802b3bf8d42f35700b8b94317f2c76",
    "g3*g4#0:NSP": "bc2db8a310ec0db4954b0045de3844f59383c24bfa18dbd210ec3a745fce6e8c",
    "g3*g4#1:PLAIN": "e5d509d7922875d0cda81e044c19d127fd6e81dd67cb32f977b0c2103010b44a",
    "g3*g4#1:NSP": "028f3b9baab4dc84b83bc076eea2ff1383e968b935d0100f2a8094b820f025f3",
    "grouplike40:PLAIN": "f60455df886f6f25d1474ba2066093b37ee615d669a2f7df91d402c6b6b46e97",
    "grouplike40:NSP": "4262b399b34ee4d9287eb0cda0be3a6890b0a163f5fe5a17e0cdcbaf3a25f33a",
}


def many_component_cases():
    g = grouplike_coalgebra
    rng = random.Random(2018)
    g3_g4 = tensor_product(g(3), g(4))
    return [
        ("g2*g3*g4", tensor_product(tensor_product(g(2), g(3)), g(4))),
        ("g4*s3_dual", tensor_product(g(4), s3_dual_coalgebra())),
        ("matrix2*s3_dual", tensor_product(matrix_coalgebra(2), s3_dual_coalgebra())),
        ("sweedler4*s3_dual", tensor_product(sweedler_coalgebra(), s3_dual_coalgebra())),
        ("g2*g3*sweedler4", tensor_product(tensor_product(g(2), g(3)), sweedler_coalgebra())),
    ] + [
        (f"g3*g4#{b}", change_basis(g3_g4, random_change_of_basis(rng, g3_g4.dim)))
        for b in range(2)
    ] + [("grouplike40", g(40))]


def test_many_component_outputs_match_recorded_digests():
    got = {}
    for name, coalgebra in many_component_cases():
        for flag_name in ("PLAIN", "NSP"):
            text = json.dumps(analyze(coalgebra, FLAGS[flag_name]).as_json_dict(), sort_keys=True)
            got[f"{name}:{flag_name}"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == MANY_COMPONENT_DIGESTS
