"""Byte pins: the sha256 of the CSV and JSON tables that ``run_experiment``
emits at seed 0.  A refactor of the engines, the evaluation layer or the
objectives must leave every digest unchanged; a deliberate change of output
re-records them and says so.

Settings are coarse so the whole file stays fast: every deterministic
objective under both engines (SLM rejects the 30-d F4), one maximizing SLM
run, and the four baselines on F4, whose noise shares the run's random
stream with the baselines' own draws.  The baselines also run on F2 (a
non-dyadic box) and on a 3-d expression; DE with ``f_weight = 2`` resamples
most mutants' out-of-box genes, and RSW and SA started at a corner with a
step wider than the box clip most proposals.
"""

import hashlib

import pytest

from subgrid.harness import ExperimentConfig, emit_table, run_experiment

# Objectives named in GOLDEN that are expressions, not registry names.
EXPRESSIONS = {
    "expr3": {"expr": "(x1-0.3)^2 + 2*(x2+0.7)^2 + abs(x3-1.1) + sin(3*x1*x3)",
              "dim": 3, "lower": -1.3, "upper": 2.9},
}

GOLDEN = [
    ("slmga", "easom", {"h_tol": 1.0},
     "da893fe20468374025dfc056023173a9b52cee636ba05ffb3000068e514a244f"),
    ("slmga", "f1", {"h_tol": 0.01},
     "c658e49d987ee1fecce960526f0cb38b9c34eef869f00f1a2539975b497dae5e"),
    ("slmga", "f2", {"h_tol": 0.02},
     "60bf24bae5c1bf52009f3a063f38a30db489f6f1427a9f56574a70044b1d8813"),
    # two generations: the second re-evaluates points seen in the first
    ("slmga", "f3", {"h_tol": 1.0, "max_generations": 2},
     "86c0fd0345d3feaed10ad6c176ab4ba97bd120b9922c360eb0b2adcdc6a1bf2c"),
    ("slmga", "f4", {"h_tol": 0.01},
     "1decb45c240cfb003f8d1de0dcb4d6a6dfa9392c15af58efc348f105cba4c028"),
    ("slmga", "f5", {"h_tol": 0.3},
     "a6ea060b02608098f7df4331c394892eaebc1895f8cc449628c998b5638bb281"),
    ("slmga", "goldstein-price", {"h_tol": 0.01},
     "c60facb8caa11d8d07a3c92fd82576e4a0f72a344826385a32d2ab3c55767df8"),
    ("slm", "easom", {"h_tol": 0.1},
     "b79300209195efafbc5f3efdc2ad89f9ba5a823df0511e84f86a31b375f25642"),
    ("slm", "f1", {"h_tol": 0.01},
     "c6e18754bc166b8f1fd636324f5e4bdb5446bac60a15a44e69ead7a60201ce9b"),
    ("slm", "f2", {"h_tol": 0.01},
     "2dcc175dfc8d222b71b73f782d9ccb51b11e97df67131b0a0a70f3f83ec59dcf"),
    ("slm", "f3", {"h_tol": 1.0},
     "e1d62cc169f146773828b9d41babc2c49e9f8a189cbf2f45c6226c7d6431babe"),
    ("slm", "f5", {"h_tol": 0.3},
     "8dd330b57c34071c165ca8f81d2c26572b7ed132f5b85c710d3f324cbc2c497c"),
    ("slm", "goldstein-price", {"h_tol": 0.01},
     "fe9e4d694f352768cbb5cb117b3509ef310d29a2bae7b8c3e3b4d412d9175d16"),
    ("slm", "f2", {"h_tol": 0.01, "sense": "max"},
     "ee70ea61bdf5aa6d0620cdb25f35e14f4d375d7cfbe2767d8e770010c04335f2"),
    ("rs", "f4", {"budget": 200},
     "3ac56f72c76c46c9b77e4989cc386475f75c89305bc1fea5c9174b020215f45a"),
    ("rsw", "f4", {"budget": 200},
     "36d45d93f60817d0e7460bb73e4fa540f4566957485f837aabc9b458142d5471"),
    ("sa", "f4", {"budget": 200},
     "32b902facd20d82c336247e31703f66c729b1e0a4b4e0f6fb5469913e223e834"),
    ("de", "f4", {"generations": 20},
     "887cc9c38249017fb22ebe4604738e083777191ae8c7aac42ae2acc887a77db6"),
    ("rs", "f2", {"budget": 200},
     "d129f9375a57e9f178567b97c7daafa214c06ce5b7be3139b7aeecbc95519e1c"),
    ("rsw", "f2", {"budget": 200},
     "6654524c05c8dd7ba8e89627db904e9181aab6416d182fa3dbf3c66cf3cbdb0f"),
    ("sa", "f2", {"budget": 200},
     "621844eb22177e13c2692c26430be019e19ba90a8e1e29a79c1d77a0877b881a"),
    ("de", "f2", {"generations": 20},
     "b414c4c7183048a0581d3134f667924d30ef84f28dbd82c17641b11403e2ddd7"),
    # 252 of 400 mutants have a gene outside the box
    ("de", "f2", {"generations": 20, "f_weight": 2.0},
     "bb2539664362f1101fb7c56f4333b8e98d7d37e48f1b790d9052bfffbb085c02"),
    # 167 and 193 of 201 evaluated points lie on the box boundary
    ("rsw", "f2", {"budget": 200, "initial": (-2.048, 2.048), "step_scale": 10.0},
     "f6039b44036b025cbd81ccb6a50a2c665f63f8eaad85aef4c681fff8fa6ff245"),
    ("sa", "f2", {"budget": 200, "initial": (2.048, -2.048), "step_scale": 10.0},
     "238cfae8ec20d369bfc209df45042df19aa7610360d0bc131fff765f375dc181"),
    ("rs", "expr3", {"budget": 200},
     "b67f162128f926bfb43ade97b137483246e1b5674eccf1c8003cc58ca2e36f32"),
    ("rsw", "expr3", {"budget": 200},
     "c5bc03cfdb6b65ac7bc5a99488ea9cb27fe3ebbead1302c5b42f817eb2e33f42"),
    ("sa", "expr3", {"budget": 200},
     "018184fee1f9a834c4754a2223a6a88e3318eebd9c27e4654913d35bd6a3c09c"),
    ("de", "expr3", {"generations": 20},
     "6d4ffc69c2eb24647bde8d68c42ff9b2524ba869851d3715c12d9f54ad4698ab"),
]


def _case_id(case):
    algo, name, params, _ = case
    return "-".join([algo, name] + ["%s=%s" % kv for kv in sorted(params.items())])


@pytest.mark.parametrize("algo,name,params,digest", GOLDEN,
                         ids=[_case_id(c) for c in GOLDEN])
def test_seed0_tables_are_byte_identical(algo, name, params, digest):
    keys = EXPRESSIONS.get(name, {"objective": name})
    cfg = ExperimentConfig(**keys, algo=algo, algo_params=dict(params), seed=0)
    reports = run_experiment(cfg).reports
    data = (emit_table(reports, "csv") + emit_table(reports, "json")).encode()
    assert hashlib.sha256(data).hexdigest() == digest
