"""Golden bounds pin: the exact static brackets of the zoo and candidates.

Each case records, for one compiled program, the ``repr`` of every
cycle figure of its :class:`~repro.verify.bounds.BoundsReport` (lower,
upper, critical path, engine-serial and bus floor), the ``binding``,
the ``repr`` of the per-category ``breakdown`` (insertion order
included, since ``to_dict`` and ``repro bounds --json`` emit it in that
order) and a sha256 of ``repr(path_cids)``.  Rewrites of how the
bracket is derived -- where its durations, queue edges and binding
chain come from -- must reproduce these bit for bit; the cases cover the
six zoo models under the four paper configurations plus the golden
autotune candidates of ``tests/compiler/test_compile_golden.py``.
"""

import hashlib

import pytest

from repro.compiler import compile_model
from repro.models import ZOO
from repro.verify import BoundsReport, compute_bounds

from tests.compiler.test_compile_golden import CANDIDATE_GOLDEN, _BASES, _graph, _npu
from tests.sim.test_scheduler_equivalence import CONFIGS, _program_for

ZOO_BOUNDS = {
    ('InceptionV3', '1-core'): ('4019973.874487229', '4019973.8972614333', '4019973.874487229', '2939467.7122580586', '1229257.2744791599', 'bus', "{'dma': 2857806.1062580636, 'compute': 1162167.7682291667}", '61c2eda90ea4fa167769b69a8545fbfcc74088e0235972ec9728dc2d43921fde'),
    ('InceptionV3', 'Base'): ('2576182.0335965785', '3698703.0301339277', '2576182.0335965785', '1730652.4049999989', '1529761.741874961', 'bus', "{'dma': 1507404.2668554967, 'compute': 705777.7667410716, 'sync': 363000.0}", '5e3c4aa7a23bfca4f9b08b67e2a9186b429a963f96ec4cf662d2fdb25cca36bf'),
    ('InceptionV3', '+Halo'): ('2466402.8196511082', '3512445.6030505947', '2466402.8196511082', '1617029.1430612237', '1381440.4130624689', 'bus', "{'dma': 1421130.5786175118, 'compute': 720130.6090029763, 'sync': 316800.0, 'halo': 8341.632030612243}", '5661232ede52e9fb703b41180ffb57cd0cec6d3ec56bdf46ebcc213fb4bf2090'),
    ('InceptionV3', '+Stratum'): ('2458205.697879548', '3474619.4780505956', '2458205.697879548', '1609571.7969387744', '1376896.7478124688', 'bus', "{'dma': 1427257.558801185, 'compute': 714311.457217262, 'sync': 310200.0, 'halo': 6436.681861092824}", '5c0b885962852b65793a2c2393bb98b828b118c417c451292d53bc1c25684bb4'),
    ('MobileNetV2', '1-core'): ('1025922.1031001346', '1025922.119035619', '1025922.1031001346', '656805.5325806456', '347885.65756249864', 'bus', "{'dma': 981379.2098709686, 'compute': 44542.893229166664}", '93828a7ff41a16db521bfe2b6f436c1847162eed603edd6859ee91c367ec8ec3'),
    ('MobileNetV2', 'Base'): ('683722.8382694873', '1135463.6953124998', '683722.8382694873', '330857.9336734696', '379837.63831250044', 'bus', "{'dma': 429961.17271889444, 'compute': 29361.66555059524, 'sync': 224400.0}", 'eac83dd39f2c0419331205904fe5280d487fb2afe2cd1fc4580e0f787419f7de'),
    ('MobileNetV2', '+Halo'): ('590096.1190262919', '952040.9140625', '590096.1190262919', '257386.51153061233', '281230.980499997', 'bus', "{'dma': 333527.68720868987, 'compute': 37702.71763392857, 'sync': 217800.0, 'halo': 1065.7141836734693}", '4c186c7e014df96049788e1d39f8a190399fc71fe77711499d5d10ecaae5aee9'),
    ('MobileNetV2', '+Stratum'): ('589525.6600467002', '948958.4140625', '589525.6600467002', '256457.9402040817', '280745.6472916636', 'bus', "{'dma': 333535.4424127715, 'compute': 38190.21763392857, 'sync': 217800.0}", '21247dee202c00ea567f2407be14531dbf299386c6fd7270a6deb5aa41776348'),
    ('MobileNetV2-SSD', '1-core'): ('1982264.4002533588', '1982264.420446913', '1982264.4002533588', '1333428.3649032267', '701139.7999166794', 'bus', "{'dma': 1850711.850774193, 'compute': 131552.5494791667}", '902b52bbad280aa729e11bd72a3aef37de198b29a794367203dc049117af62b8'),
    ('MobileNetV2-SSD', 'Base'): ('1211525.0190332623', '2005636.2284226187', '1211525.0190332623', '664469.7616326532', '764970.1093958514', 'bus', "{'dma': 882548.1243159977, 'compute': 58376.8947172619, 'sync': 270600.0}", '8f467e4a94b4ac8d06bb5b2ca08e26f0178f54f71facdde116f54a9c26d6d809'),
    ('MobileNetV2-SSD', '+Halo'): ('1041358.1551499893', '1681429.7202380947', '1041358.1551499893', '542297.9315306116', '598815.6160625281', 'bus', "{'dma': 708082.403390389, 'compute': 68266.0744047619, 'sync': 264000.0, 'halo': 1009.6773548387097}", '1048eb2b41eed93293f11c6dc80f3d3db1ac46c26ce4075a06bb5bfde6858adc'),
    ('MobileNetV2-SSD', '+Stratum'): ('1041044.4637467634', '1678517.1577380947', '1041044.4637467634', '541291.8091836729', '598165.6161875281', 'bus', "{'dma': 708079.951842002, 'compute': 68964.5119047619, 'sync': 264000.0}", '93642fa454ac4fb502e52edddae78e9abe4152cdee95dca2456e62e4a10c8211'),
    ('MobileDet-SSD', '1-core'): ('2225768.74672043', '2225768.7647849424', '2225768.74672043', '1379819.2025161292', '628990.9448750155', 'bus', "{'dma': 1428041.788387096, 'compute': 797726.9583333333}", '73cf20b5500277400ad545119bfdb7fb7ec94b08fbe0eb5d38d26f9dcce503e6'),
    ('MobileDet-SSD', 'Base'): ('1314881.6979919914', '1983067.4032738085', '1314881.6979919914', '698833.8437755089', '711491.5869791916', 'bus', "{'dma': 610043.1593015143, 'compute': 407838.53869047604, 'sync': 297000.0}", '7748414c33207280a95d665f80d51444f58ddd516dfe55d07dc9f82132a986a4'),
    ('MobileDet-SSD', '+Halo'): ('1108367.4155058167', '1564907.8690476178', '1108367.4155058167', '530222.4215306115', '463603.59468751407', 'compute', "{'dma': 398731.78542758425, 'compute': 432287.4672619047, 'sync': 264000.0, 'halo': 13348.16281632653}", 'a6dab8da5fe0ad2a580962e6a9e7a6f1206f689ca90f9d27356045073fbaf49c'),
    ('MobileDet-SSD', '+Stratum'): ('1097888.8037609186', '1549471.2976190464', '1097888.8037609186', '525277.523673469', '460003.59489584714', 'compute', "{'dma': 390771.54075411486, 'compute': 441273.18154761894, 'sync': 264000.0, 'halo': 1844.0814591836734}", '09887d38ac8dff6908f15ba0f4da46fa4bb26b4e3331b79e9e0b250d962ca677'),
    ('DeepLabV3+', '1-core'): ('22424145.71713531', '22424145.7528771', '22424145.71713531', '14119698.278838743', '7887744.889771034', 'bus', "{'dma': 14963459.577161347, 'compute': 7460686.13997396}", '8945c0ba83a9a44431693fb2c33817ebca06b95768abf094e0d3771f800d8745'),
    ('DeepLabV3+', 'Base'): ('10613230.903709374', '16723217.429036463', '10613230.903709374', '7976074.0304081915', '8553556.74400034', 'bus', "{'dma': 9817328.10785746, 'compute': 518702.7958519345, 'sync': 277200.0}", 'cf0385f79630809a48a882c9b15c62aeea1d7e78d6f6f29cb80d1e50ce3bcdec'),
    ('DeepLabV3+', '+Halo'): ('10356528.662987908', '16521014.92978051', '10356528.662987908', '7765911.177244931', '8675519.745521186', 'bus', "{'dma': 9587671.04943318, 'compute': 406622.1853608631, 'halo': 137835.42819387754, 'sync': 224400.0}", '105666fd16109ed52961a08531d25a7e1a1c7d70ea9cde66ca471736dac0780a'),
    ('DeepLabV3+', '+Stratum'): ('9928725.860568903', '15706979.464936757', '9928725.860568903', '7306141.997857174', '7939798.999416961', 'bus', "{'dma': 9155034.766545424, 'compute': 411455.6658296131, 'halo': 137835.42819387754, 'sync': 224400.0}", '4394b4c631a8b0806af266491ad6fabc37e8dc0465ad113c9c76ae0534ad03e2'),
    ('UNet', '1-core'): ('58810931.38098917', '58810931.400537394', '58810931.38098917', '49222511.58333331', '10499024.804250283', 'compute', "{'dma': 10587435.46432257, 'compute': 48223495.91666665}", 'fb92ba6d6766e0e0368ad95fa3fc35573cb7f744ffe76d78a53880cfecc0cdfe'),
    ('UNet', 'Base'): ('27871438.12122265', '31862506.869047485', '27871438.12122265', '22900206.607142877', '11474111.458250357', 'compute', "{'dma': 5363186.966460825, 'compute': 22363051.154761933, 'sync': 145200.0}", '779de00d7b7dee89765fb945e9cb9e51094a462c7a827b65d7c5bc7de69f6202'),
    ('UNet', '+Halo'): ('27777739.662511867', '31006221.48809516', '27777739.662511867', '22901106.607142903', '11610116.789146185', 'compute', "{'dma': 5189346.147654697, 'compute': 22361100.535714317, 'halo': 148092.97914285713, 'sync': 79200.0}", '545a19d458d76b52bb8d4f669926bc3d042cf58ce33f1704ac0ad68c22b8d091'),
    ('UNet', '+Stratum'): ('27491180.35415473', '30177164.809523776', '27491180.35415473', '23313767.857142907', '9048233.299458666', 'compute', "{'dma': 4381435.3750118455, 'compute': 22913171.999999996, 'halo': 117372.97914285713, 'sync': 79200.0}", '07fea713fca30997d46de7e669845f4c3d0ea4db330b730867f23e0766fbe812'),
}
CANDIDATE_BOUNDS = [
    ('588181.3739242512', '946960.4140625', '588181.3739242512', '259252.22530612253', '282089.6466666635', 'bus', "{'dma': 331741.15629032266, 'compute': 38640.21763392857, 'sync': 217800.0}", 'c84b9f69fbdd426e51a32681ab5c85329d7fd98daba31471d0d127ad481fe90d'),
    ('590884.1188327435', '951808.9140625', '590884.1188327435', '257386.51153061233', '281230.9803958303', 'bus', "{'dma': 333827.68701514154, 'compute': 38190.71763392857, 'sync': 217800.0, 'halo': 1065.7141836734693}", 'dbce838421ebfc0a5caf1d19a46bc5ba2c2a6b20c308488ff7f3160d6836a682'),
    ('685984.0009640233', '1139024.5703124998', '685984.0009640233', '323487.7301020409', '378357.63847916666', 'bus', "{'dma': 431728.08541343024, 'compute': 29855.91555059524, 'sync': 224400.0}", 'adce7bed0c4b0f969354003a05bca82c38b60b594a5df5cc11b29653553645bf'),
    ('28166551.908440437', '30954374.05952373', '28166551.908440437', '23560240.892857183', '10727551.459896239', 'compute', "{'dma': 4898908.679297555, 'compute': 23064470.25000005, 'halo': 117372.97914285713, 'sync': 85800.0}", 'ee572faa54615ee37ef4e717f2d0f6939424fc33fcfe8af43baafd91e720358e'),
    ('28457233.23887594', '31907108.392857045', '28457233.23887594', '22159335.178571492', '11586906.122687852', 'compute', "{'dma': 5226261.152590182, 'compute': 23003679.10714289, 'halo': 148092.97914285713, 'sync': 79200.0}", 'b46c1b49c79fc8c94759a2bfc7fac9e2d7a01177d3f964358bd0acaadec538d6'),
    ('27618788.1088486', '30368884.52380948', '27618788.1088486', '23156610.71428576', '9937596.462667042', 'compute', "{'dma': 4636057.415420008, 'compute': 22755437.7142857, 'halo': 148092.97914285713, 'sync': 79200.0}", '1e2fe97c53dba6fb402d8233c694d26943ea85fae2bd3e4e992f81b9b2058cd0'),
]


def _row(report: BoundsReport):
    return (
        repr(report.lower_bound_cycles),
        repr(report.upper_bound_cycles),
        repr(report.critical_path_cycles),
        repr(report.engine_serial_cycles),
        repr(report.bus_floor_cycles),
        report.binding,
        repr(report.breakdown),
        hashlib.sha256(repr(report.path_cids).encode()).hexdigest(),
    )


@pytest.mark.parametrize("options", CONFIGS, ids=[o.label for o in CONFIGS])
@pytest.mark.parametrize("model", [m.name for m in ZOO])
def test_zoo_bounds_are_pinned(model, options):
    program, machine = _program_for(model, options)
    assert _row(compute_bounds(program, machine)) == ZOO_BOUNDS[(model, options.label)]


@pytest.mark.parametrize(
    "case,expected",
    list(zip(CANDIDATE_GOLDEN, CANDIDATE_BOUNDS)),
    ids=[f"{m}-{b}-{i}" for i, (m, b, _, _) in enumerate(CANDIDATE_GOLDEN)],
)
def test_candidate_bounds_are_pinned(case, expected):
    model, base, overrides, _ = case
    options = _BASES[base]().with_overrides(**overrides)
    program = compile_model(_graph(model), _npu(), options).program
    assert _row(compute_bounds(program, _npu())) == expected


def test_pin_covers_zoo_grid_and_candidates():
    assert len(ZOO_BOUNDS) == len(ZOO) * len(CONFIGS) == 24
    assert len(CANDIDATE_BOUNDS) == len(CANDIDATE_GOLDEN)
