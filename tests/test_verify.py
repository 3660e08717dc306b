import dataclasses
import json

import pytest
from click.testing import CliRunner

from seqconvex import QuantifierMode, Verdict, cli, is_wright_convex, mediant_bounds
from seqconvex import decompose as dec
from seqconvex import verify

HYERS, AFFINE = dec.convex_approx_hyers, dec.affine_approx


def _wrong_convex(u, tol):
    return Verdict(not is_wright_convex(u, tol=tol).holds)


def _loose_hyers(u, mode, tol):
    # EXISTS fits miss their eps/2 bound, FORALL fits hit a convex gap
    if mode is QuantifierMode.FORALL:
        raise dec.ConvexGapError(1, 1.0, 0.5, mode)
    d = HYERS(u, mode, tol=tol)
    return dataclasses.replace(d, bound=d.eps)


def _loose_affine(u):
    d = AFFINE(u)
    return dataclasses.replace(d, bound=d.eps + 1.0)


def _shifted_mediant(a, b):
    high = mediant_bounds(a, b)[1]
    return high + 1.0, high + 2.0


#: suite -> (module, name it calls, a stand-in that fails every trial, record
#: of ``verify --seed 6 --trials 4`` with that stand-in)
FAILING = {
    "thm09": (verify, "is_convex", _wrong_convex, {
        "name": "thm09", "trials": 4, "failures": 4, "passed": False,
        "first_failure": {"trial": 0, "length": 5, "values": [
            -0.5103832152211143, 0.27835240378681947, -0.8421541125430976,
            0.031455896690220975, -0.362147546195386,
        ]},
    }),
    "thm10": (verify, "convex_approx_hyers", _loose_hyers, {
        "name": "thm10", "trials": 4, "residual_violations": 4,
        "gap_failures": {"exists": 0, "forall": 4}, "passed": False,
        "first_failure": {"trial": 0, "mode": "exists", "length": 66},
    }),
    "thm11": (verify, "affine_approx", _loose_affine, {
        "name": "thm11", "trials": 4, "violations": 4, "passed": False,
        "first_failure": {
            "trial": 0, "length": 33, "bound": 2.7910383373709764, "eps": 1.7910383373709764,
        },
    }),
    "lemma22": (verify, "mediant_bounds", _shifted_mediant, {
        "name": "lemma22", "trials": 4, "failures": 4, "passed": False,
        "first_failure": {
            "trial": 0, "low": 2.239674427580116, "high": 3.239674427580116,
            "combined": 0.2907686787992723,
        },
    }),
}


@pytest.mark.parametrize("suite", FAILING)
def test_failing_trials_are_counted_and_the_first_is_recorded(monkeypatch, suite):
    module, name, stand_in, expected = FAILING[suite]
    monkeypatch.setattr(module, name, stand_in)
    args = ["verify", "--suite", suite, "--seed", "6", "--trials", "4", "--no-timing"]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 1
    assert json.loads(result.stdout)["results"]["suites"] == [expected]


def test_cli_runs_the_suites_of_the_verify_module():
    assert cli.run_suite is verify.run_suite
    assert cli._SUITES is verify._SUITES
