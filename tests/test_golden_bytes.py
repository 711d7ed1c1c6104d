"""Byte pins: the sha256 of the tables that ``run_experiment`` emits at
seed 0.  Each case pins the CSV table alone, then the CSV and JSON tables
together, so a deliberate change of the JSON layout re-records the second
digest while the first shows the runs themselves did not move.  A refactor
of the engines, the evaluation layer, the objectives or the writers must
leave every digest unchanged; a deliberate change of output re-records them
and says so.

Settings are coarse so the whole file stays fast: every deterministic
objective under both engines (SLM rejects the 30-d F4), one maximizing SLM
run, SLM's full-box scheme on F1, F3 and a 3-d decimal box, a 2-d
expression on the default box as the benchmark's small runs use them, a
3-d expression on a decimal box under both engines, an 8-d
expression under SLMGA (above the enumeration limit, as F4), SLMGA
mutating a fraction of each generation on F2 and on the 5-d F3, and the
four baselines on F4, whose noise shares the run's random stream with the
baselines' own draws.  The baselines also run on F2 (a
non-dyadic box) and on a 3-d expression; DE with ``f_weight = 2`` resamples
most mutants' out-of-box genes, DE with four members rejects most draws of
its three distinct indices, DE on a 1-d expression draws its crossover index
from a range of one, and RSW and SA started at a corner with a step wider
than the box clip most proposals.

The benchmark's own goldens (``perfbench/goldens``) are checked here too, one
iteration of each workload at input variant 0 (de-baseline's takes about
2.5 s), so a change to DE's random stream fails here, not only in the
benchmark run.

The 30-d F4 only ever takes SLMGA's high-dimension sweep, so a 2-d noisy
objective (F2's value plus F4's noise) pins the noise through the
enumerated paths: ``mutate``'s window, ``_place_cell`` and SLM, minimizing
and maximizing.  ``run_experiment`` builds no stochastic expression, so these
runs call the engines directly.
"""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest

from subgrid.functions import get_objective
from subgrid.harness import ExperimentConfig, emit_table, run_experiment
from subgrid.slm import Sense, SlmConfig, slm_run
from subgrid.slmga import GaConfig, ga_run

# Objectives named in GOLDEN that are expressions, not registry names.
EXPRESSIONS = {
    "expr1": {"expr": "(x1-0.3)^2 + sin(5*x1)", "dim": 1},
    "expr2": {"expr": "(x1-0.3)^2 + (x2+1.2)^2", "dim": 2},
    "expr3": {"expr": "(x1-0.3)^2 + 2*(x2+0.7)^2 + abs(x3-1.1) + sin(3*x1*x3)",
              "dim": 3, "lower": -1.3, "upper": 2.9},
    "expr8": {"expr": "(x1-0.3)^2 + (x2+1.2)^2 + abs(x3-2.5) + x4*x5 + (x6-x7)^2 + sin(x8)",
              "dim": 8},
}

GOLDEN = [
    ("slmga", "easom", {"h_tol": 1.0},
     "82bce9b75850e96915896e79cbf190327f8862d979c26caa6fd6eab4b4a2dcb0",
     "da893fe20468374025dfc056023173a9b52cee636ba05ffb3000068e514a244f"),
    ("slmga", "f1", {"h_tol": 0.01},
     "f45e0a2763a15844247d047652036904d347b43fd71aee489704106bc51bb456",
     "c658e49d987ee1fecce960526f0cb38b9c34eef869f00f1a2539975b497dae5e"),
    ("slmga", "f2", {"h_tol": 0.02},
     "5752f856fd313933491c597406dba2eee199801e13a44d1e8bbf07318d22be10",
     "60bf24bae5c1bf52009f3a063f38a30db489f6f1427a9f56574a70044b1d8813"),
    # two generations: the second re-evaluates points seen in the first
    ("slmga", "f3", {"h_tol": 1.0, "max_generations": 2},
     "af78a71c1338d96b168972231fd0e81a9f458ab9885e46f97a0c2849b097bd5c",
     "86c0fd0345d3feaed10ad6c176ab4ba97bd120b9922c360eb0b2adcdc6a1bf2c"),
    ("slmga", "f4", {"h_tol": 0.01},
     "8d6a618ec4ab67b66f8746f6ff77fe068f61bef1378f86fc0ee66c44369803b9",
     "1decb45c240cfb003f8d1de0dcb4d6a6dfa9392c15af58efc348f105cba4c028"),
    ("slmga", "f5", {"h_tol": 0.3},
     "396efa07e052797fe21af0a6c4cce83b84b3559f28675d9ce90fe694df275d57",
     "a6ea060b02608098f7df4331c394892eaebc1895f8cc449628c998b5638bb281"),
    ("slmga", "goldstein-price", {"h_tol": 0.01},
     "77ce74704058ebe1b501c1fa7da83cf8dfd5ccd732aaa9d9ba34779b0e9fe7c5",
     "c60facb8caa11d8d07a3c92fd82576e4a0f72a344826385a32d2ab3c55767df8"),
    # a fraction of each generation mutated: the window is sparse
    ("slmga", "f2", {"h_tol": 0.02, "mutation_rate": 0.3},
     "fc6e1dcfdb0cac8cc5a7fe3c20dbc3a94975433455f4ce4f4b52b8bf1e5db827",
     "79170b41d35c87014ff5fd733d73ff95e946cf7b6d38734ec472bfe236771af7"),
    ("slmga", "f3", {"h_tol": 1.0, "mutation_rate": 0.1},
     "6d5f081b0c206808615c4b72ac42d61ffb62eb78bd0bd37c26d9fe6b516dad7d",
     "ecaa6b4749d4e9ab7615021c083cf57bd95da2cade0a5acc3439998ee1b43165"),
    ("slm", "easom", {"h_tol": 0.1},
     "df6882ee847e2045e1274689d310813db3e6c25d9f2cc7f5ed61e4bc60e467f3",
     "b79300209195efafbc5f3efdc2ad89f9ba5a823df0511e84f86a31b375f25642"),
    ("slm", "f1", {"h_tol": 0.01},
     "25ed53d2327a3b09b8dcac4c4eb4e91c9d229633ed5460a1a4a7baa8995171f8",
     "c6e18754bc166b8f1fd636324f5e4bdb5446bac60a15a44e69ead7a60201ce9b"),
    ("slm", "f2", {"h_tol": 0.01},
     "00e0b0500d6ce22c1ce67c3e65e39bd29e3b7a0da646c90cf9ef2ad0f7606090",
     "2dcc175dfc8d222b71b73f782d9ccb51b11e97df67131b0a0a70f3f83ec59dcf"),
    ("slm", "f3", {"h_tol": 1.0},
     "4cd836c15ce06d7e3392d2434b5e8005ad7456cc3e7623e254b11a6b9bfb3886",
     "e1d62cc169f146773828b9d41babc2c49e9f8a189cbf2f45c6226c7d6431babe"),
    ("slm", "f5", {"h_tol": 0.3},
     "26cfc4fff949a4954106187f10ad205dd98ffcbda2b2280c9e718ab870b33dc1",
     "8dd330b57c34071c165ca8f81d2c26572b7ed132f5b85c710d3f324cbc2c497c"),
    ("slm", "goldstein-price", {"h_tol": 0.01},
     "403fdd764e5b30a80f1a4ef396034a11b3e0ded28ffe1bbbc903f59740758be3",
     "fe9e4d694f352768cbb5cb117b3509ef310d29a2bae7b8c3e3b4d412d9175d16"),
    ("slm", "expr2", {},
     "50e6c5a387d0630c9e646c0234f8dba9b52ca0df593f6fd041e1e2dcbdd3848a",
     "300254785d793cafd4726a0ec4618b03b4355e83259324c49ca2e09015289f61"),
    ("slmga", "expr2", {},
     "07e4f8ce9885e4bd27afa14dcf08f140fcfd50f0f47681adaf93f4948f649747",
     "4e6e76696b22637b0ff9aabf12a9f67035bfb14d863d023cf11a1956c5b59474"),
    # a decimal box: the top lattice index -1.3 + 4.2 rounds past 2.9, and
    # is placed at 2.9
    ("slm", "expr3", {"h_tol": 0.01},
     "e8686dbd8b7a4bfa5088df2a3833890ea95f00ece36c66f1daf1ffde6147084b",
     "bce03d7478408d946ae914f1153790912eb7a0019da23687f34191c06af8ad06"),
    ("slmga", "expr3", {"h_tol": 0.01},
     "65f1adbd8474e89f2c4b2be715e9d96cc85e5acf567e4601eef60dce70a25a29",
     "82ff67a62418259e90cf7dcf3e3cb6e588e6933908ce3604ef9e8ff99a42085c"),
    # above the enumeration limit: two diagonal corners, then sweeps
    ("slmga", "expr8", {"h_tol": 0.01},
     "f338b6b1362ddd524f105dff6b6b543aa420679a967e9d98724899a920d2ea53",
     "ba1b756e2c8824b6eb1b08afe628c6496f14ee686e84f0b24f4cd6c6deb11f5f"),
    # full-box: every move of {0, +h, -h}^n, the zero move included
    ("slm", "f1", {"h_tol": 0.01, "neighbor_scheme": "full-box"},
     "4d8d0f8865be472910cd40409a9e955fae1a69672c890a5aaff30cd712f74d3f",
     "43a978bf83bcc21c62d1b009bde57d2b4d4845ed9250b39cede3dece860406f8"),
    ("slm", "expr3", {"h_tol": 0.01, "neighbor_scheme": "full-box"},
     "c5e1fa3b6fc8ccd3939d4506ecc289ffeb64c4ea8edff9eda0fff60ab1782ce2",
     "4bae0511ac687cbb62776be9c489de11ba786dc5f3ec5ceb3bf67b886631b617"),
    ("slm", "f3", {"h_tol": 1.0, "neighbor_scheme": "full-box"},
     "4cd836c15ce06d7e3392d2434b5e8005ad7456cc3e7623e254b11a6b9bfb3886",
     "94673c84941e32b3398a81799015cb064222c099f5fc15d2f6a7817425539a2b"),
    ("slm", "f2", {"h_tol": 0.01, "sense": "max"},
     "04ce77a90b1f5d34be895406d767c5aecc294e3e445685ad831314608eb60b25",
     "ee70ea61bdf5aa6d0620cdb25f35e14f4d375d7cfbe2767d8e770010c04335f2"),
    ("rs", "f4", {"budget": 200},
     "41a715b53d51e7b114df24d7a10364fb0460e3435925c55fce4b07878be5b7bd",
     "3ac56f72c76c46c9b77e4989cc386475f75c89305bc1fea5c9174b020215f45a"),
    ("rsw", "f4", {"budget": 200},
     "5492ee6130cb4a1cc7210b80e28f02cffcf9f25d171ac4bccbe98d0e3cc3f975",
     "36d45d93f60817d0e7460bb73e4fa540f4566957485f837aabc9b458142d5471"),
    ("sa", "f4", {"budget": 200},
     "877cc1c45966ad29ff9b6907bb40a5bcccf47054577d10c0aff79cec5b75fd77",
     "32b902facd20d82c336247e31703f66c729b1e0a4b4e0f6fb5469913e223e834"),
    ("de", "f4", {"generations": 20},
     "8f46755bb2fd9c8daef38dd82c72d075bf127a1e991bcaecac341d97395de37b",
     "887cc9c38249017fb22ebe4604738e083777191ae8c7aac42ae2acc887a77db6"),
    ("rs", "f2", {"budget": 200},
     "4f2f0628d096641e2479dc82422804172a94483f11b61703f52cfaf8432fb2f9",
     "d129f9375a57e9f178567b97c7daafa214c06ce5b7be3139b7aeecbc95519e1c"),
    ("rsw", "f2", {"budget": 200},
     "a18135e8af0b61bfb3c891969788066b044ac9306fafac170bb939dea8477b8f",
     "6654524c05c8dd7ba8e89627db904e9181aab6416d182fa3dbf3c66cf3cbdb0f"),
    ("sa", "f2", {"budget": 200},
     "09372eb1a1e6974aeb4105952db61df7fdaac6e19e9632527fb7647f45b4d79f",
     "621844eb22177e13c2692c26430be019e19ba90a8e1e29a79c1d77a0877b881a"),
    ("de", "f2", {"generations": 20},
     "b7c19811019bede9eed8faaad0d33d6d2cf634ffbd3b7c8aa39238b4df8d984a",
     "b414c4c7183048a0581d3134f667924d30ef84f28dbd82c17641b11403e2ddd7"),
    # 252 of 400 mutants have a gene outside the box
    ("de", "f2", {"generations": 20, "f_weight": 2.0},
     "a6ce109ba05ee00f8aaaed2b40ca16fd1dc69aad18e9bcc8ef6f2922ee22c854",
     "bb2539664362f1101fb7c56f4333b8e98d7d37e48f1b790d9052bfffbb085c02"),
    # 167 of 201 and 192 of 200 evaluated points lie on the box boundary;
    # one sa trial clips back onto its corner point and is not evaluated
    ("rsw", "f2", {"budget": 200, "initial": (-2.048, 2.048), "step_scale": 10.0},
     "f96a9d2a3ca2523fd0cb31ed9df77a8668e9a2b475e614d5f4a03aaa80ff78be",
     "f6039b44036b025cbd81ccb6a50a2c665f63f8eaad85aef4c681fff8fa6ff245"),
    ("sa", "f2", {"budget": 200, "initial": (2.048, -2.048), "step_scale": 10.0},
     "9115f688b22942e663b6276581a5d99a11e4a3ee0db4c6be41af7788968be2d1",
     "19c983c96cd2b9e51919ad1d095843ba73ac289c6ff13aec3e3edbcdac75c14a"),
    ("rs", "expr3", {"budget": 200},
     "2c455f3120a58fb146a45157b593bdba3a0e5f359ab079181320cd752f2f29df",
     "b67f162128f926bfb43ade97b137483246e1b5674eccf1c8003cc58ca2e36f32"),
    ("rsw", "expr3", {"budget": 200},
     "5a5fb71796a75cbf5c2fb0bb0ede5d04d5dc45006831458fbfb3daa3b26967f8",
     "c5bc03cfdb6b65ac7bc5a99488ea9cb27fe3ebbead1302c5b42f817eb2e33f42"),
    ("sa", "expr3", {"budget": 200},
     "a9faf5e03a7901c14b4c1a57c7eb1b26c29ecc7b894d07c76bdb60d39ba9a503",
     "018184fee1f9a834c4754a2223a6a88e3318eebd9c27e4654913d35bd6a3c09c"),
    ("de", "expr3", {"generations": 20},
     "9c1b46117e28604e2df9623dbef5001543038142a0181b281b28d0e9000d2560",
     "6d4ffc69c2eb24647bde8d68c42ff9b2524ba869851d3715c12d9f54ad4698ab"),
    # one gene: the crossover index is drawn from a range of one
    ("de", "expr1", {"generations": 20},
     "d1a06df6ce616fe84523fc4c75b2d15e74ed6ac7ac3457dc656d87ea7413671e",
     "a697455b006b0abe68a17c5b3998d2909aa581eb2e75c7ad275b0b992d5d1943"),
    # four members: most draws of the three distinct indices are rejected
    ("de", "f2", {"generations": 20, "pop_size": 4},
     "4a1356db41a35f764b4bb4dfe7a0befe117782a50b7f007d0fc58ea9c693ee70",
     "bc3548453195382530623b74dab576d8e82ef27a5a310ec09bfcd27fb1c03ddb"),
]


def _case_id(case):
    algo, name, params = case[:3]
    return "-".join([algo, name] + ["%s=%s" % kv for kv in sorted(params.items())])


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("algo,name,params,csv_digest,digest", GOLDEN,
                         ids=[_case_id(c) for c in GOLDEN])
def test_seed0_tables_are_byte_identical(algo, name, params, csv_digest, digest):
    keys = EXPRESSIONS.get(name, {"objective": name})
    cfg = ExperimentConfig(**keys, algo=algo, algo_params=dict(params), seed=0)
    reports = run_experiment(cfg).reports
    csv = emit_table(reports, "csv")
    assert _sha256(csv) == csv_digest
    assert _sha256(csv + emit_table(reports, "json")) == digest


def noisy_f2(noise_fn=get_objective("f4").noise_fn):
    """F2's value plus F4's noise: a 2-d stochastic objective."""
    return dataclasses.replace(get_objective("f2"), name="noisy-f2", gradient_fn=None,
                               smooth=False, noise_fn=noise_fn)


NOISY = [
    (ga_run, GaConfig(h_tol=0.02),
     "be60b5583e8c0bbd8471bdac4e0f19cf479ff1be148564aa69aed90bac7872ef",
     "b9aaa24394b013bb35f930c8247b9c28d4a9d1cc44781dca97779211863b7344"),
    (ga_run, GaConfig(h_tol=0.02, mutation_rate=0.3, seed=3),
     "75c2fb0c016860f9ca36ef8670b71b1696dfbdb7a38d84552dff33417b6ebc9d",
     "367cd06830bafa5cb5a9cd49a2404c2191cc766c7c9574c8710d060a9e4de9d7"),
    (slm_run, SlmConfig(h_tol=0.05),
     "a711b747eeb64c4509addb97f2a6eb201f8ec91703c96911b8d97104822d4558",
     "9302ceefa988a0a79ad7b689d6ca818e1a32c247dfe1bebe725f8dcb3302d679"),
    # maximizing: the value negated is F2's plus the noise
    (slm_run, SlmConfig(h_tol=0.05, sense=Sense.MAXIMIZE),
     "ba55a2498c881700e9a50817c3bdb643a9fcb9ee8cd9184cd1c3b1896ebb0b55",
     "67c583740d0d48d0ab4536143d4297209a777f92fa7e51124fad014fb22859d3"),
]


@pytest.mark.parametrize("run,cfg,csv_digest,digest", NOISY,
                         ids=["slmga", "slmga-mutation_rate=0.3-seed=3", "slm", "slm-max"])
def test_noisy_f2_tables_are_byte_identical(run, cfg, csv_digest, digest):
    reports = [run(noisy_f2(), cfg)]
    csv = emit_table(reports, "csv")
    assert _sha256(csv) == csv_digest
    assert _sha256(csv + emit_table(reports, "json")) == digest


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["paper-bench", "small-runs", "de-baseline"])
def test_one_benchmark_iteration_matches_its_golden(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    w = WORKLOADS[workload](0)
    w.make_inputs()
    w.prepare()
    golden = json.loads((PERFBENCH / "goldens" / ("%s.json" % workload)).read_text())["0"]
    checked = w.check(w.iterate(time.perf_counter), golden)
    assert checked.failed == 0, checked.problems
