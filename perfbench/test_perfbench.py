"""Self-tests of the benchmark: seeded inputs and checks that can fail.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import seqconvex  # noqa: E402
from seqconvex import cli, classify  # noqa: E402

from perfbench import inputs, pace, trace, workloads  # noqa: E402
from perfbench.run import measure  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert [f["data"] for f in inputs.corpus(7)] == [f["data"] for f in inputs.corpus(7)]
    assert inputs.long_input(7, 3)["data"] == inputs.long_input(7, 3)["data"]
    a, b = inputs.suite_seeds(7), inputs.suite_seeds(7)
    assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]


def test_different_seeds_give_different_inputs():
    first, second = inputs.corpus(7), inputs.corpus(8)
    assert all(f["data"] != g["data"] for f, g in zip(first, second))
    assert [f["name"] for f in first] == [g["name"] for g in second]
    assert inputs.long_input(7, 0)["data"] != inputs.long_input(8, 0)["data"]
    assert next(inputs.suite_seeds(7)) != next(inputs.suite_seeds(8))


def one_unit(name, tmp_path):
    """Failures of one unit of a workload (seconds=0 stops after the first)."""
    w = workloads.WORKLOADS[name](5, str(tmp_path))
    got = measure(w, w.units(), 0.0)
    return len(got.executions), got.failures


@pytest.fixture(scope="module")
def clean_cli_pass(tmp_path_factory):
    return one_unit("cli-reports", tmp_path_factory.mktemp("clean"))


def test_cli_reports_pass_is_correct(clean_cli_pass):
    attempted, failures = clean_cli_pass
    assert attempted == 8 * len(inputs.CORPUS_LENGTHS)
    assert failures == []


def test_perturbed_eps_is_caught(monkeypatch, tmp_path):
    original = classify.min_eps_convex

    def perturbed(u, mode=seqconvex.QuantifierMode.EXISTS):
        eps, cert = original(u, mode)
        return eps * (1.0 + 1e-6), cert

    monkeypatch.setattr(cli, "min_eps_convex", perturbed)
    attempted, failures = one_unit("cli-reports", tmp_path)
    assert failures and len(failures) / attempted > 0
    assert all("eps-min" in f for f in failures)


def test_corrupted_certificate_margin_is_caught(monkeypatch, tmp_path):
    original = classify.is_wright_convex

    def corrupted(u, *, tol=seqconvex.DEFAULT_TOL):
        v = original(u, tol=tol)
        if v.holds:
            return v
        return classify.Verdict(False, dataclasses.replace(v.certificate, margin=v.certificate.margin + 0.5))

    monkeypatch.setattr(cli, "is_wright_convex", corrupted)
    _, failures = one_unit("cli-reports", tmp_path)
    assert failures and all("classify" in f for f in failures)


def test_long_series_fault_is_caught(monkeypatch, tmp_path):
    original = classify.min_eps_affine
    monkeypatch.setattr(classify, "min_eps_affine", lambda u, mode: (original(u, mode)[0] * 1.001, None))
    attempted, failures = one_unit("long-series", tmp_path)
    assert attempted == 1 and len(failures) == 1


def test_failed_suite_is_caught(monkeypatch, tmp_path):
    monkeypatch.setitem(cli._SUITES, "lemma22", lambda seed, trials, tol: {"name": "lemma22", "passed": False})
    attempted, failures = one_unit("verify-sweep", tmp_path)
    assert len(failures) == attempted // 4


def test_tracer_spans_and_restores():
    original, init = cli.render_json, seqconvex.core.Sequence.__dict__["__init__"]
    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.mode = "time"
        text = cli.render_json({"values": [1.0, [2.0, 3.0]], "n": seqconvex.Sequence([1, 2, 3]).values})
        tracer.mode = None
    finally:
        tracer.uninstall()
    assert cli.render_json is original
    assert seqconvex.core.Sequence.__dict__["__init__"] is init
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["core.sequence", "cli.render"]  # one span for the recursive render
    assert tracer.counts["cli.report_bytes"] == len(text)
    assert tracer.counts["core.entries_validated"] == 3


def test_pace_scales_each_stretch_and_leaves_samples_out():
    p = pace.Pace("interpreter", window=1)
    p.nominal = 1.0
    # kernel samples at [10, 12] (2 s) and [20, 20.5] (0.5 s)
    p.samples, p.enters, p.leaves = [2.0, 0.5], [10.0, 20.0], [12.0, 20.5]
    # 10 s before the first sample, 8 s between them, 0.5 s after the second
    assert p.scaled(0.0, 21.0) == pytest.approx(10 * 1 / 2.0 + 8 * 1 / 1.25 + 0.5 * 1 / 0.5)
    assert p.scaled(12.0, 20.0) == pytest.approx(8 / 1.25)
