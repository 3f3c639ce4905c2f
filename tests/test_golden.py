"""Golden digests of run artifacts for configurations the benchmark never runs.

Each case is written with run_to_dir and the sha256 of trace.csv,
summary.json and (when decision particles are designated) decisions.csv is
compared with the digests recorded below. A refactor that keeps these bytes
keeps every engine path they exercise: epsilon-greedy exploration, the
nearest-peer pursuit, round-robin scheduling with both and with neither (at
M=40), a lone particle, the PSO velocity memory term, the bundled presets, and
the cell-list sensing above the dense crossover at M=300 (a sparse swarm with
exploration and pursuit, round-robin, and a PSO swarm collapsing into one cell).

Two PSO cases pin the bounding-box bound of ``core.neighbor_counts`` (a swarm
whose bounding-box diagonal is below epsilon counts M - 1 neighbours for every
particle without measuring a distance): in ``pso-small-world`` every one of
the 30 ticks takes it at each seed, and in ``pso-small-epsilon`` the swarm's
collapse crosses it mid-run, so ticks 0-24, 0-24 and 0-23 (seeds 0, 1, 2)
measure distances and the remaining 35, 35 and 36 of the 60 take the bound.
Both were recorded before the bound existed.

``mql-overflow`` pins the summary's non-finite floats: with a reward scale
near the largest float, a learning rate of 1 and no discount, the q-table
updates overflow. At seed 0 the final q-tables hold 12 NaN entries and the
cumulative rewards 4 -inf, so summary.json holds both ``NaN`` and
``-Infinity``; seed 1 holds 13 NaN and 3 -inf, and seed 2's tables are all
finite. It was recorded before the q-table writer wrote from the engine's
array.

``mql-negzero-world`` pins the sign of zero in the trace's coordinates: its
world's lower bounds are -0.0, so a particle clamped to a lower wall sits at
-0.0 and its cell reads ``-0``. Its traces carry 65, 95 and 69 such cells
(seeds 0, 1, 2). It was recorded before the trace writer carried a
coordinate's text from one tick to the next.

To re-record after a deliberate output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from qswarm.config import config_from_dict
from qswarm.harness import preset, run_to_dir

SEEDS = (0, 1, 2)

CASES = {
    "mql-explore": dict(swarm_size=12, iterations=30, snapshot_ticks=[0, 5, 30],
                        decision_particles=[0, 1, 2], mql={"explore_rate": 0.3}),
    "mql-recover": dict(swarm_size=10, iterations=40,
                        mql={"recover_lost": True, "init_span": 70.0}),
    "mql-explore-recover": dict(swarm_size=10, iterations=40,
                                mql={"explore_rate": 0.3, "recover_lost": True,
                                     "init_span": 70.0}),
    "rr-explore-recover": dict(swarm_size=8, iterations=60, decision_particles=[3],
                               mql={"schedule": "round_robin", "explore_rate": 0.2,
                                    "recover_lost": True, "init_span": 50.0}),
    "rr-plain": dict(swarm_size=40, iterations=200, mql={"schedule": "round_robin"}),
    "mql-single": dict(swarm_size=1, iterations=20, snapshot_ticks=[0, 20]),
    "pso-canonical": dict(algorithm="pso", swarm_size=10, iterations=30,
                          snapshot_ticks=[0, 30], pso={"canonical_velocity": True}),
    # above the dense-sensing crossover, so on the cell-list path
    "grid-explore-recover": dict(swarm_size=300, iterations=20, snapshot_ticks=[0, 20],
                                 world={"x_max": 200.0, "y_max": 200.0},
                                 mql={"explore_rate": 0.2, "recover_lost": True,
                                      "init_span": 180.0}),
    "grid-rr": dict(swarm_size=300, iterations=30, snapshot_ticks=[30],
                    mql={"schedule": "round_robin"}),
    "grid-pso": dict(algorithm="pso", swarm_size=300, iterations=20,
                     snapshot_ticks=[0, 10, 20]),
    # a world whose diagonal is below epsilon: every tick's neighbour counts
    # come from the swarm's bounding box
    "pso-small-world": dict(algorithm="pso", swarm_size=12, iterations=30,
                            snapshot_ticks=[0, 30], world={"x_max": 6.0, "y_max": 6.0}),
    # a sensing radius of 1: the swarm's bounding box falls inside it mid-run
    "pso-small-epsilon": dict(algorithm="pso", swarm_size=20, iterations=60,
                              snapshot_ticks=[0, 30, 60], mql={"epsilon": 1.0}),
    # a world whose lower bounds are -0.0: particles on those walls write "-0"
    "mql-negzero-world": dict(swarm_size=12, iterations=60,
                              world={"x_min": -0.0, "y_min": -0.0, "x_max": 6.0, "y_max": 6.0},
                              mql={"epsilon": 3.0, "init_span": 6.0}),
    # q-table updates that overflow to NaN, and cumulative rewards to -inf
    "mql-overflow": dict(swarm_size=6, iterations=200,
                         mql={"reward_max": 1.7e308, "learning_rate": 1.0, "discount": 1.0}),
}

PRESET_RUNS = {
    "fig3-compare-mql": ("fig3-compare", 0),
    "fig3-compare-pso": ("fig3-compare", 1),
    "fig4-individuals": ("fig4-individuals", 0),
}


def _configs():
    """{run id: SwarmConfig} for every golden run."""
    runs = {}
    for name, data in CASES.items():
        for seed in SEEDS:
            runs[f"{name}-s{seed}"] = config_from_dict({"algorithm": "mql", **data,
                                                        "seed": seed})
    for name, (preset_name, arm) in PRESET_RUNS.items():
        cfg = preset(preset_name)[arm]
        runs[f"{name}-s{cfg.seed}"] = cfg
    return runs


def _digests(cfg, out_dir) -> dict[str, str]:
    paths = run_to_dir(cfg, out_dir)
    return {key: hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
            for key in ("trace", "summary", "decisions") if key in paths}


GOLDEN = {
    'fig3-compare-mql-s7': {
        'trace': '843082db6957632802c614b312a0dcedbf04435505519dab6ec52969ba570eeb',
        'summary': '970cc2726eb6acac236f65385bddae60332f09e34765ef6853c83f5a786954aa',
    },
    'fig3-compare-pso-s7': {
        'trace': 'aad8ef5c5fe40b8b74a09f2df2dd85f19007c42dc930081b154a66840f252bb5',
        'summary': '488cd7a9cc7f2246adbb1cc3a08124e0d4905cdf52cf14237b28dceb779013d9',
    },
    'fig4-individuals-s7': {
        'trace': 'fa48df03e4c4366ffa060e35ffa5e850dc9a2b68d6931578f8db082d94562fb3',
        'summary': '779fe207df55c2896b5bddf9875fe93b60983c69db8eb3a699e8f2088340b768',
        'decisions': '4ae2ee227bacac9afff123c319d51c697a609f30edeb1f2add55b59e85e9172a',
    },
    'grid-explore-recover-s0': {
        'trace': '7411c006799a30f5c92c3be4a7e1a5ca58b4144060d2645dbe7fb0b0f12204d7',
        'summary': '91bcbb22e14d360764b38305f6eebe27a197587f5df9f4ff0a5cccf4c034fe60',
    },
    'grid-explore-recover-s1': {
        'trace': '23329050ca02db1028d0a6ee08265e64b5709dfe9222b8a4956ac4a19eed1ace',
        'summary': 'b661f3126519fa19367dde3c8d762c20307cedffc5ac94bd158237cd1d3ed96a',
    },
    'grid-explore-recover-s2': {
        'trace': '0ddc31600080888516391baf4e5aea9b80812c8f5aab4f7c982adaedf70287b5',
        'summary': 'a3fbdb2dbe3d2b3615f5889c237f56ff9929608c8157994b0fd4a5feacf0ff7e',
    },
    'grid-pso-s0': {
        'trace': '826de3703b7b647ec9c03b12ef504454a045b833792df74d43b365dfeb58da8f',
        'summary': '8839cfb97c0ec6b51e3615c412fc3810f1a5d78add734792ecab6d0c57d9bd5a',
    },
    'grid-pso-s1': {
        'trace': '592dc7c036ba8b9cdb2265049cf39d4813d2d51c6ac5185bbd5ef4feb4cc9e57',
        'summary': '7063e8b62f7f4dd6945450eaf766cb8bb025277f6654cb45718a4b1673644fcb',
    },
    'grid-pso-s2': {
        'trace': '28eed2e3685bf8d3b770ec7e4bf1337034dbb1b7a6fe3fbb89033bd7a6377cef',
        'summary': '06c9c9caa21e3fc2053af73e02d98a7931b96cb7d8275724f1f677f76048c0a8',
    },
    'grid-rr-s0': {
        'trace': '389a6611a85831a6c88cc215551e86c479ee0c63aba48111a7649e03ab0aad8b',
        'summary': '8fb3aa15ed5fdda19f7ada01ad6f7f03baa59b1c677fb5a4b2ccaae06eb339ae',
    },
    'grid-rr-s1': {
        'trace': 'db0865162c2cfe4e4454585a4a783b3e755ed46289fca69ec40c67b2df2e73f9',
        'summary': 'a6eee26e078d8bd917bb6d7ac5b28ad1055e0dd5bc32d422bb622982d4bd5370',
    },
    'grid-rr-s2': {
        'trace': 'a8d3f7ccd69932f3e7cc2e96b2f334fed7bbd27c5475a438871f726385c3026c',
        'summary': 'f609a6f499418b7c05b7a8c4a8aa655a5d601b4ca8eae302e3dadaf12784a8c8',
    },
    'mql-explore-recover-s0': {
        'trace': '9c6414eb81735b3a0d697255831bed17f293dcdc4d35071f97c1807975172fe6',
        'summary': 'acd5767ec56a38cdf81dcdf3fbd77180e657682adce6f7a615754da7e5532831',
    },
    'mql-explore-recover-s1': {
        'trace': '187b57a15cd77f54c1945ea5784bdd1a44f2f7bcc8ce65d0d7a32ed80919df5b',
        'summary': 'b91fc4dd74a2824bf9c6cf80c379097abbece8e21a50601b2608c40d37bcc1bb',
    },
    'mql-explore-recover-s2': {
        'trace': '40db770bed8c0e53547e483f165c7b70b5ba2635d329fd138cef90044b1378aa',
        'summary': '4879b99aca809b497a7db1e98d5e533bf209885b3575f5186d7ff76300bb1f4b',
    },
    'mql-explore-s0': {
        'trace': 'e43ac955fe86e1b72a639452a3c43157f4f0c70250902678db8f31ebde8887c8',
        'summary': 'cd25f50bd1dfd7c549497707bc256d46a4396882d7d80d912b4a98df181b6e18',
        'decisions': 'd0c7bed4143fc6a91f71956f452eea85e857bacef396a1b905fcc2e44e3dcc2e',
    },
    'mql-explore-s1': {
        'trace': 'dcb204ec82cbbb6b8a05b359201eb16a0cf8a8b0641cdb7fe4b3268e786b1046',
        'summary': '3d0b46c249f86ad78fe7f98bf660e90eaf89bdbb453333dd1f957c0e675185f0',
        'decisions': '1b222a9fe4e40b591bc17fc5fe97ffe3a0e4ced96f3140484335e75fe7e83b9d',
    },
    'mql-explore-s2': {
        'trace': 'ea969db30c5beefe41994656b7209e8f4f9962baa37f19ebe1483c7113e0fd7a',
        'summary': 'a5acf42929cfc5b8a2cb73a43dbac2bd17d1c58b75a99e8f429e8a12cfb8eebc',
        'decisions': '4c63f9f75f1bdefb27672842b16e6d5a8fc49fd32d90895acd35b01281e2e5f4',
    },
    'mql-negzero-world-s0': {
        'trace': '262faeb4146d86984ebebefbc24b093f4b82d95a31e3588bfcefb0ee7b3e432b',
        'summary': '4ff98d3adf4c6f5b7d22415ec9370a0b5d958960fc51b360276f95b5b15e6b8c',
    },
    'mql-negzero-world-s1': {
        'trace': '24434998b58ee669e85982c5afb2519c2fd33843d251fe1d234120a7bee99e37',
        'summary': '0dcf6d9c00f8eb78e91323c573bd4683809507fea3e74bd88e8b18da2284c12f',
    },
    'mql-negzero-world-s2': {
        'trace': '23bb2fc474fc762a3d0b5e9bb7312eb384b78f2ac7d67ffc551f8edfc3309ac3',
        'summary': 'a67ffdf5c99fd9793eca2548a1874fbf14bad92f3881cf4de0d6121f52fa069d',
    },
    'mql-overflow-s0': {
        'trace': '5f47e96254d5007d30d64e21277dd33e627d1e1526ea1b98a10a4cfe17d98c40',
        'summary': 'b2d5f16c6b90bc93142ff8f5d1ac0755f2c892d97edde52640a3f7f0a1b3c067',
    },
    'mql-overflow-s1': {
        'trace': '296038b951d87d09af5437a68557dd2dc6e657b4934c229ebda679eecadfc4b1',
        'summary': '4b5407ccda3a1617f0be318de938a9eb37c4980cb1ec3d19ba2bb90f51bd480e',
    },
    'mql-overflow-s2': {
        'trace': 'ceaac7067032088aab6565de3f7ff96a2ac1148ce64478e1a65a3fae569a8d5c',
        'summary': '2500f180ea34772a043337919bb99d1b7ff28959f4f050be9812b9c579a87204',
    },
    'mql-recover-s0': {
        'trace': 'fa8941c4597255ce1e896ad5fd3b7155fbb418c05fd70ee405a5dea2ec07b5c5',
        'summary': 'a323050d683872097d7590339aa71bbc0a0b2540bc4246b26b0341034eb646a8',
    },
    'mql-recover-s1': {
        'trace': '08e8e0b054238a79ae3c59356cf8c7bfdde9521f3a2ee35e5e8f1fa801b28ad9',
        'summary': '2c49ea04f6aa1169fb838991e254a8464ddb512901942d9007d4639d67dcc1a2',
    },
    'mql-recover-s2': {
        'trace': '90ebbc67c72cc6f5af4c54a8ce7b8a700c96e1933164ef9ae1ae64790b6a8a8f',
        'summary': 'fdb11872ed819d42a030db1512413f9471c49e312649a7d6a02511e2faafce22',
    },
    'mql-single-s0': {
        'trace': 'c8b319336db04e6dc902f056f4b233c906316fb545e9b074094a6a0342e128dc',
        'summary': 'fb76c8d4ea32aed4bcb5bdd66fbd7bb91fbf108b8da61f0b5c4f8d458c856dfc',
    },
    'mql-single-s1': {
        'trace': '1790f406e57252956b707236e5cc12d8b39d095f017cb84a933f3a0bc6f4c32e',
        'summary': 'aca76264a318aae3ef1d7b9578a6244f1b376f7e236231248a669a6d5730381d',
    },
    'mql-single-s2': {
        'trace': 'ee73c200da58592a343ab08fde2debfdd106d93335341ec3fa8faabae24353ca',
        'summary': '3afdf444c6daba8fb6f804fce4ad66ca4aed5307ca2f7b334d0243dddf405da7',
    },
    'pso-canonical-s0': {
        'trace': '15993ba94e1b8b6f17aa6151bff8a8a2be374f455c33cf8c9e6254952995917c',
        'summary': 'd8dfcd10cd1e9a7a0abc9675d13e2286aa9d07131bec3b10820963d0aad0a489',
    },
    'pso-canonical-s1': {
        'trace': '8bf85e4b64f8c2a17ef6414c91af0d6218d5cbf67206e25c4626f7446aab060d',
        'summary': 'bcfb8e6255032148960e929729c62b1f12cfcfe837a54867f344a84278e8ceba',
    },
    'pso-canonical-s2': {
        'trace': '75b36ac06a87cf84211577f442165ead0df8827404a926f76a7de3de1ad9a812',
        'summary': 'c96d33349719ccffe65f4ddd568ebd60669f6e4ac720e16dba5293b8d148c8a6',
    },
    'pso-small-epsilon-s0': {
        'trace': '62a7a6ad3e670f24f6bc5a305ab80ea238d1a1d56dc974cf786e17fabce36a99',
        'summary': '555bca06eb3b1251edcf76f12916e0c6597aa405027f44936b2379644abdf26d',
    },
    'pso-small-epsilon-s1': {
        'trace': '3442595a0213b764ec965282c1e8316ec457f9cb2858a9da02cc3472842862cf',
        'summary': 'd3893cbccb9d895add00a2ff625e6469b3f39f7f1c1e7ad71d13fb0a19c7a6f6',
    },
    'pso-small-epsilon-s2': {
        'trace': '4d61cf707d81f0165f6f419dc2b794ded889290377317bcfadd09bd4a24c4c21',
        'summary': '66c24441ff310027071b456297167205626dc876bbbaf64d81e2d478a0233773',
    },
    'pso-small-world-s0': {
        'trace': 'ed87def6a8d4d19121b7e5b6ff26c69b4708892bc0a3734fa30c8907141f6631',
        'summary': '29b314032c39e8dabe5a7b23933a7a2cc86e53a49dba4cca0c59b7197ef6ee68',
    },
    'pso-small-world-s1': {
        'trace': '9c1e5182dfda7e7aa4e21860358c0568a7f278f8a43603e8a14047e3961d336b',
        'summary': '3c88ffef3e35c02cf93783b17e7420793608c2d896ac42aaeb149bfdc440cc8a',
    },
    'pso-small-world-s2': {
        'trace': 'a3a7a4cf9de2d815e8630f2429978983bb8fa87ee8be937ea3768132f42ba158',
        'summary': '2f0e134328456f32682efc658c044db00ffcf76eadb4e29047945f6523d57148',
    },
    'rr-explore-recover-s0': {
        'trace': '2e69f2fedfc92c2d8173b10574c3bdedeaa23a9d7e5599c4e175ab20239db075',
        'summary': '909a79e56d50baa05e6c1e5ea8159c46f2bb8096dbf8c919e4240931eb4de7de',
        'decisions': '759124ddad7838a8751d344ba2419c411f2a126944e26cbb478919bdaf0a19aa',
    },
    'rr-explore-recover-s1': {
        'trace': 'ea0d9e51bef9157444d02470190f83e2f094df167cb4c12815517169d776ce0c',
        'summary': '8d871c968201443bebff684a2bcb28f896a459c41905fbac8840283e95ca49aa',
        'decisions': 'b6c80f41b4f31a457d096776f2f404ab15123b4389ae3be9859b7b544e5e2e1b',
    },
    'rr-explore-recover-s2': {
        'trace': '373f854b366cce1378afe5eab3ba7b3c68b22a216bbcb890c23c96c1c0366ad9',
        'summary': '1dc5188193e375688fd571e18c29293efe4b1a93232894ab59cbbd46d2c688d7',
        'decisions': '793ed95484dffcf8c57f1fc47cb2dc2df6e5cdd0054909f7a89b73c905803656',
    },
    'rr-plain-s0': {
        'trace': 'cf03a345a644d1f05c57dca1c98c19849c472e483bb39cb417e587f5837b7872',
        'summary': '339963f9b7f74a90f56776fd01aed4da175be5be40f817c277b89f165db844a3',
    },
    'rr-plain-s1': {
        'trace': '5fae813f9452611f520a0847b715405201adfb5ceff686ceecb74b6d501352ad',
        'summary': '8ec76f2a0c97466145456c98ea8d9b98cdea4e565cbba540607e99aea18861d9',
    },
    'rr-plain-s2': {
        'trace': '5e52715cc66d13d65f3ea32b5001cca5d855ebb98f48f3446dac252f4e984f94',
        'summary': '4320bd8cfab56bf5339af86febf3af152698918ddd8f95d1c593daa272918fb0',
    },
}


RUNS = _configs()


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_artifacts_match_golden_digests(run_id, tmp_path):
    assert _digests(RUNS[run_id], tmp_path) == GOLDEN[run_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for run_id, cfg in sorted(RUNS.items()):
            digests = _digests(cfg, Path(tmp) / run_id)
            sys.stdout.write(f"    {run_id!r}: {{\n")
            for key, value in digests.items():
                sys.stdout.write(f"        {key!r}: {value!r},\n")
            sys.stdout.write("    },\n")
        sys.stdout.write("}\n")
