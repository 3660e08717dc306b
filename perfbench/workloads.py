"""The three benchmark workloads.

A workload yields units of operations (``units``); an operation is an int
that names its input, and a unit may repeat the operations of the one
before.  The harness prepares each operation outside the timed region, times
``execute`` alone, and then checks its output with ``check``, again outside
the timed region.  Every call into the package goes through a module
attribute (``classify.is_convex``, ``cli.main``, ...) so that the traced run
sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os

import numpy as np

import seqconvex
from seqconvex import classify, cli, decompose, extend, oracle
from seqconvex.core import QuantifierMode

from . import inputs
from .refs import (
    REL,
    TOL,
    PairScan,
    check_certificate,
    check_convex_part,
    check_decomposition,
    close,
    lower_hull,
    sampled_margin,
    second_diff_min,
    strict_json,
    verdict_matches,
)
from .trace import Tracer

MODES = {"exists": QuantifierMode.EXISTS, "forall": QuantifierMode.FORALL}

#: Largest input checked against ``oracle.brute_wright`` (its own guard).
BRUTE_WRIGHT_MAX = 100

#: Random triples per ``check_eps_convex_function`` call on a long series.
LONG_TRIPLES = 10_000

#: Distinct ``long-series`` inputs in a run: one series per family.
LONG_SERIES = len(inputs.LONG_FAMILIES)

#: Base seeds per ``verify-sweep`` unit; each runs one trial of every suite.
SUITE_SEEDS = 2_000
SUITES = ("thm09", "thm10", "thm11", "lemma22")


def _cert(c) -> dict | None:
    if c is None:
        return None
    return {"kind": c.kind, "check": c.check, "i": c.i, "j": c.j, "n": c.n, "margin": c.margin}


def _same_array(a, b, scale: float) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= REL * scale))


class CliReports:
    """In-process CLI commands over a seeded corpus of short files.

    One unit is a full pass over the corpus (operation i is ``self.ops[i]``),
    so every measured pass asks for the same work.  The first output of each
    command is checked against the references; later passes must repeat it
    byte for byte.
    """

    name = "cli-reports"
    pace_kernel, pace_window = "interpreter", 8  # see pace.py
    pace = None

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        self.tracer = tracer or Tracer()
        self.stdout, self.stderr = io.StringIO(), io.StringIO()
        self.ops = []
        self.refs = []
        self.first: dict[int, tuple] = {}
        for f in inputs.corpus(seed):
            path = os.path.join(workdir, f["name"])
            with open(path, "wb") as fh:
                fh.write(f["data"])
            ref = self._reference(f)
            self.refs.append(ref)
            k = len(self.refs) - 1
            for mode in ("exists", "forall"):
                self._add(k, "classify", ["classify", "--eps", repr(ref["eps"][mode]), "--mode", mode], mode)
            for mode in ("exists", "forall"):
                self._add(k, "eps-min", ["eps-min", "--mode", mode], mode)
            self._add(k, "convex", ["decompose", "--target", "convex", "--mode", f["hyers_mode"]], f["hyers_mode"])
            self._add(k, "convex-optimal", ["decompose", "--target", "convex-optimal"], None)
            self._add(k, "affine", ["decompose", "--target", "affine"], None)
            self._add(k, "extend", ["extend", "--grid", str(f["grid"])], None)
            for op in self.ops[-8:]:
                op["args"] += ["--no-timing", path]

    def _add(self, k, kind, args, mode):
        self.ops.append({"file": k, "kind": kind, "args": args, "mode": mode})

    @staticmethod
    def _reference(f: dict) -> dict:
        u = f["values"]
        scan = PairScan(u)
        hull = lower_hull(u)
        ref = {
            "u": u,
            "m": len(u),
            "sha256": hashlib.sha256(f["data"]).hexdigest(),
            "grid": f["grid"],
            "scale": max(1.0, float(np.abs(u).max())),
            "second_min": second_diff_min(u),
            "hull": hull,
            "max_gap": float((u - hull).max()),
            "min_eps": {mode: scan.min_eps(mode) for mode in MODES},
            "affine_exists": scan.min_eps("exists")[1],
            "optimal": oracle.bisect_convex_bound(seqconvex.Sequence(u)),
        }
        ref["eps"] = {mode: f["eps_factor"][mode] * ref["min_eps"][mode][0] for mode in MODES}
        ref["worst"] = {mode: scan.worst_margins(ref["eps"][mode], ref["eps"][mode], mode) for mode in MODES}
        if len(u) <= BRUTE_WRIGHT_MAX:
            v = oracle.brute_wright(seqconvex.Sequence(u))
            ref["wright"] = (v.holds, None if v.holds else v.certificate.margin)
        return ref

    def units(self):
        while True:
            yield range(len(self.ops))

    def prepare(self, i):
        return self.ops[i]["args"]

    def execute(self, args):
        # One buffer per stream for the whole run: click caches a wrapper per
        # stream object and that cache keeps every stream it has seen alive.
        out, err = self.stdout, self.stderr
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.tracer.span("cli.main"):
                try:
                    cli.main(args, prog_name="seqconvex", standalone_mode=False)
                except SystemExit as exc:
                    code = 0 if exc.code is None else exc.code
        return code, out.getvalue()

    def check(self, i, output) -> list[str]:
        op = self.ops[i]
        first = self.first.get(i)
        if first is not None:
            return [] if output == first else [f"{op['args']}: output differs from its first run"]
        self.first[i] = output
        code, text = output
        what = " ".join(op["args"][:-1])
        try:
            report = strict_json(text)
        except ValueError as exc:
            return [f"{what}: exit {code}, report is not strict JSON: {exc}"]
        errors: list[str] = []
        ref = self.refs[op["file"]]
        inp = report.get("input") or {}
        if inp.get("sha256") != ref["sha256"] or inp.get("length") != ref["m"]:
            errors.append(f"{what}: input digest or length is wrong")
        if "timing" in report:
            errors.append(f"{what}: --no-timing report has a timing field")
        if op["kind"] == "convex" and code == 1:
            self._check_gap(ref, op["mode"], report, errors, what)
        elif code != 0:
            errors.append(f"{what}: exit code {code}")
        else:
            getattr(self, "_check_" + op["kind"].replace("-", "_"))(ref, op["mode"], report, errors, what)
        return errors

    def _check_classify(self, ref, mode, report, errors, what):
        u, res = ref["u"], report["results"]
        if report["eps"] != ref["eps"][mode]:
            errors.append(f"{what}: report eps {report['eps']!r}")
        self._verdict(u, res["convex"], ref["second_min"], 0.0, errors, what + " convex")
        w = res["wright_convex"]
        if "wright" in ref:
            holds, margin = ref["wright"]
            if w["holds"] != holds:
                errors.append(f"{what}: Wright verdict differs from oracle.brute_wright")
            elif not holds:
                check_certificate(u, w["certificate"], 0.0, errors, what + " wright")
                if not close(w["certificate"]["margin"], margin):
                    errors.append(f"{what}: Wright margin differs from oracle.brute_wright")
        else:
            if not verdict_matches(w["holds"], ref["second_min"]):
                errors.append(f"{what}: Wright verdict differs from the second-difference test")
            elif not w["holds"]:
                check_certificate(u, w["certificate"], 0.0, errors, what + " wright")
        eps = ref["eps"][mode]
        worst_c, worst_a = ref["worst"][mode]
        self._verdict(u, res["eps_convex"], worst_c, eps, errors, what + " eps_convex")
        self._verdict(u, res["eps_affine"], worst_a, eps, errors, what + " eps_affine")

    @staticmethod
    def _verdict(u, verdict, worst, eps, errors, what):
        if not verdict_matches(verdict["holds"], worst):
            errors.append(f"{what}: verdict {verdict['holds']} but reference worst margin {worst!r}")
        elif not verdict["holds"]:
            check_certificate(u, verdict["certificate"], eps, errors, what)
            if not close(verdict["certificate"]["margin"], worst):
                errors.append(f"{what}: certificate margin is not the worst margin {worst!r}")

    def _check_eps_min(self, ref, mode, report, errors, what):
        res = report["results"]
        for key, expected in zip(("eps_convex_min", "eps_affine_min"), ref["min_eps"][mode]):
            value, tight = res[key]["value"], res[key]["tight"]
            if not close(value, expected):
                errors.append(f"{what}: {key} {value!r}, reference {expected!r}")
            elif expected == 0.0:
                if tight is not None:
                    errors.append(f"{what}: {key} is 0 but has a certificate")
            else:
                check_certificate(ref["u"], tight, value, errors, f"{what} {key}")
                if tight is not None and not close(tight["margin"], 0.0):
                    errors.append(f"{what}: {key} witness is not tight")

    def _check_gap(self, ref, mode, report, errors, what):
        err = report.get("error") or {}
        eps = ref["min_eps"][mode][0]
        if err.get("type") != "convex-gap":
            errors.append(f"{what}: exit 1 without a convex-gap error")
        elif not (close(err["eps"], eps) and close(err["gap"], ref["max_gap"])):
            errors.append(f"{what}: convex-gap eps or gap differs from the reference")
        elif not ref["max_gap"] > eps + TOL:
            errors.append(f"{what}: convex-gap error but the hull gap fits in eps")

    def _check_convex(self, ref, mode, report, errors, what):
        d = report["results"]
        u, eps = ref["u"], ref["min_eps"][mode][0]
        check_decomposition(u, d["structured"], d["residual"], d["bound"], errors, what)
        if not close(d["eps"], eps):
            errors.append(f"{what}: eps {d['eps']!r}, reference {eps!r}")
        if not ref["max_gap"] <= eps + TOL * ref["scale"]:
            errors.append(f"{what}: succeeded although the hull gap exceeds eps")
        if not _same_array(d["structured"], ref["hull"] + d["eps"] / 2.0, ref["scale"]):
            errors.append(f"{what}: structured part is not gcm(u) + eps/2")
        if not (d["bound"] <= d["eps"] / 2.0 + TOL and close(d["slack"], d["eps"] / 2.0 - d["bound"])):
            errors.append(f"{what}: bound exceeds eps/2 or slack is wrong")

    def _check_convex_optimal(self, ref, mode, report, errors, what):
        d = report["results"]
        check_decomposition(ref["u"], d["structured"], d["residual"], d["bound"], errors, what)
        if abs(d["bound"] - ref["optimal"]) > 1e-9 * ref["scale"]:
            errors.append(f"{what}: bound {d['bound']!r}, oracle.bisect_convex_bound {ref['optimal']!r}")
        check_convex_part(d["structured"], errors, what)

    def _check_affine(self, ref, mode, report, errors, what):
        d = report["results"]
        u = ref["u"]
        check_decomposition(u, d["structured"], d["residual"], d["bound"], errors, what)
        line = d["line"]
        if line is None or not _same_array(
            d["structured"], line["slope"] * np.arange(len(u)) + line["intercept"], ref["scale"]
        ):
            errors.append(f"{what}: structured part is not the reported line")
        if not (close(d["eps"], ref["affine_exists"]) and close(d["slack"], d["eps"] - d["bound"])):
            errors.append(f"{what}: eps or slack differs from the reference")

    def _check_extend(self, ref, mode, report, errors, what):
        g = report["results"]["grid"]
        count, hi = ref["grid"], float(ref["m"] - 1)
        xs = hi * np.arange(count) / (count - 1)
        if g["count"] != count or not _same_array(g["xs"], xs, max(1.0, hi)):
            errors.append(f"{what}: grid points are wrong")
        elif not _same_array(g["values"], np.interp(xs, np.arange(ref["m"]), ref["u"]), ref["scale"]):
            errors.append(f"{what}: values differ from np.interp")


class LongSeries:
    """The whole library pipeline on one 4,000-entry series per operation.

    A run has one series per family (``LONG_SERIES``); operation k is series
    k, and the units take them in turn, one operation each, so every series
    runs several times.
    """

    name = "long-series"
    pace_kernel, pace_window = "array", 4  # see pace.py
    #: set by the harness; sampled between the stages of an operation
    pace = None

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        self.seed = seed
        self.workdir = workdir
        self.prepared: dict[int, tuple] = {}

    def units(self):
        for k in itertools.count():
            yield [k % LONG_SERIES]

    def prepare(self, k):
        if k not in self.prepared:
            self.prepared[k] = self._prepare(k)
        args, self.ref = self.prepared[k]
        return args

    def _prepare(self, k):
        f = inputs.long_input(self.seed, k)
        path = os.path.join(self.workdir, f["name"])
        with open(path, "wb") as fh:
            fh.write(f["data"])
        u = f["values"]
        scan = PairScan(u)
        min_eps = {mode: scan.min_eps(mode) for mode in MODES}
        eps = {mode: tuple(f["eps_factor"][mode] * e for e in min_eps[mode]) for mode in MODES}
        ref = {
            "u": u,
            "sha256": hashlib.sha256(f["data"]).hexdigest(),
            "scale": max(1.0, float(np.abs(u).max())),
            "second_min": second_diff_min(u),
            "hull": lower_hull(u),
            "optimal": oracle.bisect_convex_bound(seqconvex.Sequence(u)),
            "min_eps": min_eps,
            "eps": eps,
            "worst": {mode: scan.worst_margins(*eps[mode], mode) for mode in MODES},
            "triple_seed": f["triple_seed"],
        }
        return (path, eps, f["triple_seed"]), ref

    def execute(self, args):
        path, eps, triple_seed = args
        tick = self.pace.sample if self.pace else lambda: None
        out = {}
        u, out["digest"] = cli.load_sequence(path)
        out["u"] = u
        out["convex"] = classify.is_convex(u)
        tick()
        for name, mode in MODES.items():
            out[name] = {}
            for key, kernel, arg in (
                ("eps_convex", classify.is_eps_convex, eps[name][0]),
                ("eps_affine", classify.is_eps_affine, eps[name][1]),
                ("min_convex", classify.min_eps_convex, None),
                ("min_affine", classify.min_eps_affine, None),
            ):
                out[name][key] = kernel(u, mode) if arg is None else kernel(u, arg, mode)
            tick()
        out["hyers"] = decompose.convex_approx_hyers(u, QuantifierMode.FORALL)
        out["optimal"] = decompose.convex_approx_optimal(u)
        out["affine"] = decompose.affine_approx(u)
        tick()
        # Feasible by construction: the Chebyshev line minus its bound lies
        # between (concave majorant - 2*bound) and (convex minorant + 2*bound).
        two_b = 2.0 * out["affine"].bound
        lower = -decompose.gcm(-u).as_array() - two_b
        upper = decompose.gcm(u).as_array() + two_b
        out["envelopes"] = (lower, upper)
        out["line"] = decompose.separating_line(lower, upper)
        tick()
        f = extend.PiecewiseLinear(u)
        plan = extend.SamplePlan(n_random=LONG_TRIPLES, seed=triple_seed, include_knot_triples=False)
        out["triples"] = extend.check_eps_convex_function(f, out["forall"]["min_convex"][0], plan)
        opt = out["optimal"]
        out["rendered"] = cli.render_json(
            {"structured": list(opt.structured), "residual": list(opt.residual), "bound": opt.bound}
        )
        return out

    def check(self, k, out) -> list[str]:
        ref, errors = self.ref, []
        u, scale = ref["u"], ref["scale"]
        what = f"long-series op {k}"
        if out["digest"]["sha256"] != ref["sha256"] or not np.array_equal(out["u"].as_array(), u):
            errors.append(f"{what}: load_sequence did not return the file's values")
            return errors
        cv = out["convex"]
        if not verdict_matches(cv.holds, ref["second_min"]):
            errors.append(f"{what}: is_convex verdict")
        elif not cv.holds:
            check_certificate(u, _cert(cv.certificate), 0.0, errors, what + " is_convex")
        for name in MODES:
            r = out[name]
            for key, eps, worst in zip(("eps_convex", "eps_affine"), ref["eps"][name], ref["worst"][name]):
                v = r[key]
                if not verdict_matches(v.holds, worst):
                    errors.append(f"{what}: {key} {name} verdict, reference worst {worst!r}")
                elif not v.holds:
                    check_certificate(u, _cert(v.certificate), eps, errors, f"{what} {key} {name}")
                    if not close(v.certificate.margin, worst):
                        errors.append(f"{what}: {key} {name} margin is not the worst margin")
            for key, expected in zip(("min_convex", "min_affine"), ref["min_eps"][name]):
                value, cert = r[key]
                if not close(value, expected):
                    errors.append(f"{what}: {key} {name} {value!r}, reference {expected!r}")
                elif expected > 0.0:
                    check_certificate(u, _cert(cert), value, errors, f"{what} {key} {name}")
        hy = out["hyers"]
        check_decomposition(u, hy.structured, hy.residual, hy.bound, errors, what + " hyers")
        if not close(hy.eps, ref["min_eps"]["forall"][0]) or hy.bound > hy.eps / 2.0 + TOL * scale:
            errors.append(f"{what}: hyers eps or bound is wrong")
        if not _same_array(hy.structured, ref["hull"] + hy.eps / 2.0, scale):
            errors.append(f"{what}: hyers structured part is not gcm(u) + eps/2")
        opt = out["optimal"]
        check_decomposition(u, opt.structured, opt.residual, opt.bound, errors, what + " optimal")
        if not _same_array(opt.structured, ref["hull"] + opt.bound, scale):
            errors.append(f"{what}: optimal structured part is not gcm(u) + bound")
        if abs(opt.bound - ref["optimal"]) > 1e-9 * scale:
            errors.append(f"{what}: optimal bound {opt.bound!r}, oracle.bisect_convex_bound {ref['optimal']!r}")
        aff = out["affine"]
        check_decomposition(u, aff.structured, aff.residual, aff.bound, errors, what + " affine")
        if not close(aff.eps, ref["min_eps"]["exists"][1]):
            errors.append(f"{what}: affine eps differs from the reference")
        lower, upper = out["envelopes"]
        line = out["line"]
        at = line.slope * np.arange(len(u)) + line.intercept
        if not (np.all(lower <= at + TOL * scale) and np.all(at <= upper + TOL * scale)):
            errors.append(f"{what}: separating line leaves the envelopes")
        checked, margin = sampled_margin(u, ref["min_eps"]["forall"][0], LONG_TRIPLES, ref["triple_seed"])
        t = out["triples"]
        if t.checked != checked or not close(t.margin, margin, 1e-6) or not verdict_matches(t.holds, margin):
            errors.append(f"{what}: triple check differs from the np.interp re-evaluation")
        try:
            parsed = strict_json(out["rendered"])
        except ValueError as exc:
            errors.append(f"{what}: render_json output is not strict JSON: {exc}")
        else:
            if (
                parsed["structured"] != list(opt.structured)
                or parsed["residual"] != list(opt.residual)
                or parsed["bound"] != opt.bound
            ):
                errors.append(f"{what}: render_json does not round-trip the decomposition")
        return errors


class VerifySweep:
    """Single trials of the four seeded ``verify`` suites.

    Operation i runs one trial of suite ``SUITES[i % 4]`` through
    ``cli.run_suite``; one unit is ``SUITE_SEEDS`` base seeds times the four
    suites, and every unit repeats the same trials.
    """

    name = "verify-sweep"
    pace_kernel, pace_window = "interpreter", 8  # see pace.py
    pace = None

    def __init__(self, seed: int, workdir: str, tracer: Tracer | None = None):
        seeds = itertools.islice(inputs.suite_seeds(seed), SUITE_SEEDS)
        self.calls = [(suite, s) for s in seeds for suite in SUITES]

    def units(self):
        while True:
            yield range(len(self.calls))

    def prepare(self, i):
        return self.calls[i]

    def execute(self, call):
        suite, seed = call
        return cli.run_suite(suite, seed, 1)

    def check(self, i, result) -> list[str]:
        if result.get("passed") is not True:
            return [f"verify-sweep: suite {self.calls[i][0]} failed at seed {self.calls[i][1]}"]
        return []


WORKLOADS = {w.name: w for w in (CliReports, LongSeries, VerifySweep)}
