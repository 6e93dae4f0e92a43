"""Golden compile pin: the exact command streams the compiler emits.

Each case records the :func:`program_fingerprint` (a content hash of the
whole command list) of one compile on ``exynos2100``.  Optimizations of
the compiler's shape arithmetic (memos, skipped re-measurements) must be
decision-preserving, so these hashes must never move unless a change
means to alter the compiled programs -- and then the new values are
re-recorded deliberately, with the reason.
"""

import functools

import pytest

from repro.analysis.compare import paper_configurations
from repro.compiler import CompileOptions, compile_model
from repro.hw.presets import exynos2100_like
from repro.models import get_model
from repro.sim.memo import program_fingerprint

ZOO_GOLDEN = {
    ("InceptionV3", "1-core"): "e086a822e01cf72921fda3cedbdd0b3cf6005e62445b192c0f8e41aa7d09b96d",
    ("InceptionV3", "Base"): "f6a175faabfdf7d768a28cc9bde0de62189403a364e730eff8fbc11f120618af",
    ("InceptionV3", "+Halo"): "6cb6679c781ea68c16871ad3c9359105ae19077f04e367f7e6973624460c8c5f",
    ("InceptionV3", "+Stratum"): "29bfcb7fabfef92a4c2f5a16229d8e4738d5145c18cf14fe260cd08cbc33c69e",
    ("MobileNetV2", "1-core"): "08dbda47dbf43eee3199d99c42807ff405eebb932779b84b470122a21919762f",
    ("MobileNetV2", "Base"): "3ebff275b2d5c56e2508a6972434d6409914b4ccdd52cd3bd292850a6abe4340",
    ("MobileNetV2", "+Halo"): "dc2dd14df9cc7a54ee04896ba118a318232881e22656c748e089b464e4447f1d",
    ("MobileNetV2", "+Stratum"): "01058ec9b9d88e9575b52a8ad0508c63b0ae0681a1442026a9cc7340eee55bc4",
    ("MobileNetV2-SSD", "1-core"): "4045b49ab244e59b005a5640d2a4f98f3c7d9b7ee9a79f151079044be0e6a7ad",
    ("MobileNetV2-SSD", "Base"): "c8061503825af80cf6b8e3b4a7f272088d196339244d020380042c277b98638e",
    ("MobileNetV2-SSD", "+Halo"): "fd0db182f49030d8776658ee5f00668902d32f073e197ef5e43ed96309e643b7",
    ("MobileNetV2-SSD", "+Stratum"): "24653780250cdf8eae9de7d739dc7b61c3897ae1c13223cb405824c46c5e021d",
    ("MobileDet-SSD", "1-core"): "7cf2b231c1926a969e516203523eab0580351836b0584628446e02b3525897d5",
    ("MobileDet-SSD", "Base"): "cea362bdab137bfc0ff9daa126c101158a1b67542157d457c9f588a0beb1094e",
    ("MobileDet-SSD", "+Halo"): "8ca0e040e28797852becaa666826657460c0c02ed5b26204f001ed1b7720abff",
    ("MobileDet-SSD", "+Stratum"): "bb7a65b90a09119169065ce22216657be1f514a67ce726aadbbf0ab6ef1d6b64",
    ("DeepLabV3+", "1-core"): "523bbc0f4f70231e15ca540aa1e0be38b8c4d7e2d061e64978e85d6eba92d448",
    ("DeepLabV3+", "Base"): "825cd7808ab02bccdff83eaff0d97dd0f324f58c99ad0e01ad59f04f489dc59a",
    ("DeepLabV3+", "+Halo"): "374bc2bdc97ae4e2d3c3fbf744934636d2173c860e0d131d94dfcb7f1087b351",
    ("DeepLabV3+", "+Stratum"): "4816ce1c81c6f11088c4150c253e09502732f2946dbfb172efd57b5c1635f3a4",
    ("UNet", "1-core"): "dbd236f4e0961036fb2f9b659efd4dbfb3461d2e2ab9b051be316a85ddaa0430",
    ("UNet", "Base"): "ff423ee907beed35d6049b4899fd1c658b99a124b93c3da723dac87bc8be5eda",
    ("UNet", "+Halo"): "ecab30aa0232613db17d8a7d9bfad60060a6ac14f9ecb0efa65d7a3b76a892a3",
    ("UNet", "+Stratum"): "fcf77fcc08d50926b82bdb8692b1ae8029cf7e4160b1ded05403a34e54dcf92d",
}

_BASES = {
    "base": CompileOptions.base,
    "halo": CompileOptions.halo,
    "stratum": CompileOptions.stratum_config,
}

#: Autotune-style candidates: direction, tile-count and stratum-block
#: pins on top of a paper configuration.  Each one compiles to a program
#: different from its unpinned configuration, so the pins are live.
CANDIDATE_GOLDEN = [
    (
        "MobileNetV2",
        "stratum",
        dict(
            directions={"block3_dw": "channel", "block5_expand": "spatial"},
            tiles={"block1_expand": 2, "block4_dw": 8},
            blocks={"block2_add"},
        ),
        "660b8363eb7827059476d8d973569c93a7b46fbbc76dd169bf4ef2d6f4a194a5",
    ),
    (
        "MobileNetV2",
        "halo",
        # 64 tiles is beyond block6_expand's axis capacity: the cap binds.
        dict(directions={"block1_dw": "channel"}, tiles={"block0_dw": 6, "block6_expand": 64}),
        "c4bcb3b5dca3da58e416177229956cee3a46e1090e5b0c5fca21ff12269d57b1",
    ),
    (
        "MobileNetV2",
        "base",
        dict(directions={"block10_project": "none"}, tiles={"block8_expand": 6, "block12_dw": 2}),
        "d31e677958db9f97f21fc651c1cc56aebb063f2e05137686f63ce98e25edc5bc",
    ),
    (
        "UNet",
        "stratum",
        dict(
            directions={"enc1_conv0": "channel", "dec2_conv1": "spatial"},
            tiles={"enc0_conv1": 2, "dec0_conv0": 8},
            blocks={"enc0_conv0", "dec1_concat"},
        ),
        "dbf2b8551117f6827fd21e59b5a496ede275505122f687f988227bd4947ec1cc",
    ),
    (
        "UNet",
        "halo",
        dict(directions={"bottleneck_conv0": "none", "dec3_concat": "channel"}, tiles={"enc2_conv1": 5}),
        "33212ddd8f6ada7bf9059eea46dc2b363b5eac112c562734db3779fdb6e8119e",
    ),
    (
        "UNet",
        "stratum",
        dict(tiles={"enc3_conv1": 4, "enc0_conv0": 3}, blocks={"enc2_pool", "dec0_conv1"}),
        "55862a162de0f19ccbae3a6a53ee1114070d8fc25ef0200e7d6a35c40d3f87ac",
    ),
]


@functools.lru_cache(maxsize=None)
def _graph(name):
    return get_model(name)


@functools.lru_cache(maxsize=None)
def _npu():
    return exynos2100_like()


@pytest.mark.parametrize(
    "model,label", sorted(ZOO_GOLDEN), ids=lambda v: str(v)
)
def test_zoo_configuration_program_is_pinned(model, label):
    (options,) = [o for o in paper_configurations() if o.label == label]
    program = compile_model(_graph(model), _npu(), options).program
    assert program_fingerprint(program) == ZOO_GOLDEN[(model, label)]


@pytest.mark.parametrize(
    "model,base,overrides,expected",
    CANDIDATE_GOLDEN,
    ids=[f"{m}-{b}-{i}" for i, (m, b, _, _) in enumerate(CANDIDATE_GOLDEN)],
)
def test_autotune_candidate_program_is_pinned(model, base, overrides, expected):
    options = _BASES[base]().with_overrides(**overrides)
    program = compile_model(_graph(model), _npu(), options).program
    assert program_fingerprint(program) == expected


def test_golden_covers_the_paper_grid():
    labels = {o.label for o in paper_configurations()}
    models = {m for m, _ in ZOO_GOLDEN}
    assert set(ZOO_GOLDEN) == {(m, lbl) for m in models for lbl in labels}
    assert len(models) == 6
