"""Byte pins: the sha256 of the CSV and JSON tables that ``run_experiment``
emits at seed 0.  A refactor of the engines, the evaluation layer or the
objectives must leave every digest unchanged; a deliberate change of output
re-records them and says so.

Settings are coarse so the whole file stays fast: every deterministic
objective under both engines (SLM rejects the 30-d F4), one maximizing SLM
run, and the four baselines on F4, whose noise shares the run's random
stream with the baselines' own draws.
"""

import hashlib

import pytest

from subgrid.harness import ExperimentConfig, emit_table, run_experiment

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
]


def _case_id(case):
    algo, name, params, _ = case
    return "-".join([algo, name] + ["%s=%s" % kv for kv in sorted(params.items())])


@pytest.mark.parametrize("algo,name,params,digest", GOLDEN,
                         ids=[_case_id(c) for c in GOLDEN])
def test_seed0_tables_are_byte_identical(algo, name, params, digest):
    cfg = ExperimentConfig(objective=name, algo=algo, algo_params=dict(params), seed=0)
    reports = run_experiment(cfg).reports
    data = (emit_table(reports, "csv") + emit_table(reports, "json")).encode()
    assert hashlib.sha256(data).hexdigest() == digest
