"""Step pins: for each run, the level, the multiset of labels and the
anchor of the chosen cell at every step, and the number of steps.  They
were recorded before the engines' step loops were rewritten around a level
count fixed before the loop and region cells read off the parent cell, and
a refactor of either engine must leave every pin unchanged.  A digest in
``test_golden_bytes.py`` moving while these pins hold says the change is in
the positions, values or output, not in the search path.

Cases: every ``slm`` and ``slmga`` entry of ``GOLDEN``, and ``h_tol = 1e-4``
on the six deterministic objectives under both SLM neighbour schemes.
"""

import hashlib

import pytest
from test_golden_bytes import EXPRESSIONS, GOLDEN

from subgrid.functions import get_objective
from subgrid.harness import ExperimentConfig, run_experiment
from subgrid.slm import NeighborScheme, SlmConfig, slm_run


def _pin(report):
    """(step count, sha256 of one line per step: level, sorted labels and
    the chosen anchor's ``k``)."""
    lines = []
    for s in report.steps:
        anchor = None if s.chosen_cell is None else s.chosen_cell.anchor.k
        lines.append("%d %r %r" % (s.level, sorted(lv.label for lv in s.labels), anchor))
    return report.generations, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _golden_id(case):
    algo, name, params = case[:3]
    return "-".join([algo, name] + ["%s=%s" % kv for kv in sorted(params.items())])


GOLDEN_PINS = {
    "slmga-easom-h_tol=1.0": (
        8, "70d20f8e4e1d0ac3e8e69eac2f6e7a6ae139e986e00f48a6275778dbd3f26a88"),
    "slmga-f1-h_tol=0.01": (
        11, "88fbe999bcc52e7a8cdde5cdca46705f164e9894850906e2fb5dd4e8fe6f4f30"),
    "slmga-f2-h_tol=0.02": (
        8, "5cc1d62dd41ba9815af47db1ada17af466ba0e7eb4607fa8ab860852bbfad8da"),
    "slmga-f3-h_tol=1.0-max_generations=2": (
        2, "f0c2d8f1428c63a8c85e97e516a9047ef8b1c3c8ea519d4e02eff028ed414199"),
    "slmga-f4-h_tol=0.01": (
        9, "9161c345fc24bb0fff545b8c3c0a43262d18dd5f23ad551a88845a924e020615"),
    "slmga-f5-h_tol=0.3": (
        9, "8ce12c8cbaf9db8efc73ecc4beb4efa0f09db066af6ec1cf5ada56f833398990"),
    "slmga-f2-h_tol=0.02-mutation_rate=0.3": (
        8, "33a52c068f2c06fc0b253c74106847c821aa98b16acfd41dffc623e0a1dde276"),
    "slmga-f3-h_tol=1.0-mutation_rate=0.1": (
        4, "a4eee7cb3045dbf868a0a07b3fb2aca3c1e19a38d2a7bc3424ca86a71bacc58a"),
    "slmga-goldstein-price-h_tol=0.01": (
        9, "61e887ea48d5561f9c65487b5cd9e6f119a3ea5ae62857aa399ee9b065e4c941"),
    "slm-easom-h_tol=0.1": (
        11, "aff5a5853e73a26cf9fd180d478b74dcd9c64175d47cbd8003789ccd4abf57e2"),
    "slm-f1-h_tol=0.01": (
        11, "fd246b958bd9d414a7095dc8a8e18ad29479726c51cb02f5eb57cfd4466185a0"),
    "slm-f2-h_tol=0.01": (
        9, "cda1bcc63d257748d1d3d4cf169889a8375e3e7105d076f8ae1e98425e573f1e"),
    "slm-f3-h_tol=1.0": (
        4, "d40b9e5377a19d9179551bbfc9b8bd5eb4b46ee0cad195b7b1be0f284671a350"),
    "slm-f5-h_tol=0.3": (
        9, "6c36c1a7fa40364b44a3ba08d3cdb2a084925763f1fe8d450daf370ef9b91651"),
    "slm-goldstein-price-h_tol=0.01": (
        9, "ea50c4aaa36e1674c0747bd74c79e09251634a0685f52a3ed8a5167d326314fb"),
    "slm-expr2": (
        18, "bcb9bbfd82528854b09ae3fc9db4b2f03dc40a9a8e680fb42488c7545b0be64a"),
    "slmga-expr2": (
        18, "2dd71f82251438e1a604d60a71e4da52386ed235aa7916f0df0fa0f5acac6ed4"),
    "slm-expr3-h_tol=0.01": (
        9, "28ef5539b4df1d377c500908effd41aadefc4d806d387e5333e87dddbe94b250"),
    "slmga-expr3-h_tol=0.01": (
        9, "3dedefed48a60e8508d3efc381f8a59006f90374dda0f7bc53645a68e351448d"),
    "slmga-expr8-h_tol=0.01": (
        11, "937eac1057c1ceb28cf1ace3c43e5fa06351b2ebf8d46e392f921de4374a27be"),
    "slm-f2-h_tol=0.01-sense=max": (
        9, "d8df51d405060e95950ab114a0d5e86c4b57d61806c0f3ade6dde658f8bb2f26"),
    "slm-f1-h_tol=0.01-neighbor_scheme=full-box": (
        11, "88fbe999bcc52e7a8cdde5cdca46705f164e9894850906e2fb5dd4e8fe6f4f30"),
    "slm-expr3-h_tol=0.01-neighbor_scheme=full-box": (
        9, "95d99f1775d217d5fb4ae1529383e35306832350afa2dbb8b37346299a801fd5"),
    "slm-f3-h_tol=1.0-neighbor_scheme=full-box": (
        4, "d40b9e5377a19d9179551bbfc9b8bd5eb4b46ee0cad195b7b1be0f284671a350"),
}

DEEP_PINS = {
    ("easom", "sign-uniform"): (
        21, "bccb69dfee8b1f37af3d32bdf47f7721d24f63a6b1611fb79c660c281c8968db"),
    ("easom", "full-box"): (
        21, "39cc73b4d026f4a5d840e7e3be04e3cdeb52fa5c92fe182033c819fe8344a53a"),
    ("goldstein-price", "sign-uniform"): (
        16, "2ed451d6a4952c9ac2bac4582247d204d42b6313fde1521f201159556b2bef69"),
    ("goldstein-price", "full-box"): (
        16, "5b84ee48c25b557d070f6e3c41aebe46a14e06c2cbb28377502edf0e15363bc1"),
    ("f1", "sign-uniform"): (
        17, "a15d5c8e1761f31972292fd239a23e35704c3d1b04e7577574a29e52b09c594a"),
    ("f1", "full-box"): (
        17, "6ea90fa6b227de548dcc523235ba600b6c9f000f1fde98c5c329b5d707d776cf"),
    ("f2", "sign-uniform"): (
        16, "c501ce6271ff7ccc65c38752806d6b09a4d7de6bbd70752bb222e102f20cd9c9"),
    ("f2", "full-box"): (
        16, "1e81813f7d401bf53360d03b1ebe61606e9b288f1a4a84acca9f20d9f39f729a"),
    ("f3", "sign-uniform"): (
        17, "9d61163b1fd73af87f25d95da47680631b07273944f82b6263cd3de6ce2c0120"),
    ("f3", "full-box"): (
        17, "9d61163b1fd73af87f25d95da47680631b07273944f82b6263cd3de6ce2c0120"),
    ("f5", "sign-uniform"): (
        21, "e81aa5095d1b00feb5f6c78ced4be807e43676406aee069c1afe2083702ffae5"),
    ("f5", "full-box"): (
        21, "dbbefb77cbad82580ecebb6d54697610743d25e50dd3610eaa1bdac6ad7a8ed1"),
}


@pytest.mark.parametrize("case", [c for c in GOLDEN if c[0] in ("slm", "slmga")],
                         ids=_golden_id)
def test_golden_case_steps(case):
    algo, name, params = case[:3]
    keys = EXPRESSIONS.get(name, {"objective": name})
    cfg = ExperimentConfig(**keys, algo=algo, algo_params=dict(params), seed=0)
    assert _pin(run_experiment(cfg).reports[0]) == GOLDEN_PINS[_golden_id(case)]


@pytest.mark.parametrize("scheme", list(NeighborScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("name", ["easom", "goldstein-price", "f1", "f2", "f3", "f5"])
def test_deep_slm_steps(name, scheme):
    rep = slm_run(get_objective(name), SlmConfig(h_tol=1e-4, neighbor_scheme=scheme))
    assert _pin(rep) == DEEP_PINS[name, scheme.value]
