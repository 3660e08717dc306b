"""Command-line front end.

Subcommands::

    classify   classification verdicts (convex / Wright / eps-convex / eps-affine)
    eps-min    exact minimal eps for the convex and affine slack inequalities
    decompose  convex, optimal-convex or arithmetic decomposition
    extend     evaluate the piecewise-linear extension at points or on a grid
    verify     seeded property suites backed by the brute-force oracles

Reports are JSON on stdout with every float rendered at 17 significant
digits, so a report round-trips losslessly and identical inputs produce
byte-identical output (pass ``--no-timing`` to drop the one nondeterministic
field).  Exit codes: 0 success, 1 failed strict classification or failed
verification, 2 input or usage errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import decompose as dec
from . import oracle
from .classify import (
    Certificate,
    Verdict,
    is_convex,
    is_eps_affine,
    is_eps_convex,
    is_wright_convex,
    min_eps_affine,
    min_eps_convex,
)
from .core import (
    DEFAULT_TOL,
    QuantifierMode,
    SeqConvexError,
    Sequence,
    ValidationError,
    check_eps,
    mediant_bounds,
)
from .extend import PiecewiseLinear
from . import __version__

#: Documented trial-seed derivation for the verify suites.
SEED_STRIDE = 1_000_003
SUITE_SALTS = {"thm09": 9, "thm10": 10, "thm11": 11, "lemma22": 22}
RNG_NOTE = {
    "algorithm": "numpy-pcg64",
    "trial_seed": "(seed + suite_salt) * 1000003 + trial_index",
}


# --------------------------------------------------------------------------
# report rendering: JSON with floats at full precision (17 significant digits)


def _format_float(x: float) -> str:
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        # only integral values, inf and nan format without ".", "e" or "E"
        if not math.isfinite(x):
            raise ValidationError(f"report value {x!r} is not finite (float overflow)")
        s += ".0"
    return s


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value)!r} in a report")


def _emit(report: dict) -> None:
    click.echo(render_json(report))


# --------------------------------------------------------------------------
# input ingestion


def load_sequence(path: str) -> tuple[Sequence, dict]:
    """Read a sequence from a CSV or JSON file and digest the input.

    CSV accepts one value per line or a comma-separated row; anything after a
    ``#`` is a comment.  JSON must be a flat array of numbers.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    if path.lower().endswith(".json"):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValidationError("JSON input must be a flat array of numbers")
        values = data
    else:
        tokens: list[str] = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens.extend(t for t in line.replace(",", " ").split() if t)
        values = tokens
    u = Sequence(values)
    return u, {"path": path, "length": len(u), "sha256": digest}


# --------------------------------------------------------------------------
# serialization of library results


def _cert_json(cert: Certificate | None):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "check": cert.check,
        "i": cert.i,
        "j": cert.j,
        "n": cert.n,
        "margin": cert.margin,
    }


def _verdict_json(v: Verdict) -> dict:
    return {"holds": v.holds, "certificate": _cert_json(v.certificate)}


def _line_json(line: dec.Line | None):
    if line is None:
        return None
    return {"slope": line.slope, "intercept": line.intercept}


def _decomposition_json(d: dec.Decomposition, target: str) -> dict:
    return {
        "target": target,
        "structured": list(d.structured),
        "residual": list(d.residual),
        "bound": d.bound,
        "eps": d.eps,
        "slack": d.slack,
        "line": _line_json(d.line),
    }


def _base_report(command: str, digest, mode: str | None, tol: float) -> dict:
    return {
        "command": command,
        "input": digest,
        "mode": mode,
        "tolerance": tol,
    }


def _finish(report: dict, started: float, no_timing: bool) -> None:
    if not no_timing:
        report["timing"] = {"seconds": time.perf_counter() - started}
    _emit(report)


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _mode(value: str) -> QuantifierMode:
    return QuantifierMode(value)


# --------------------------------------------------------------------------
# verification suites


def _trial_rng(seed: int, salt: int, k: int) -> tuple[int, np.random.Generator]:
    trial_seed = (seed + salt) * SEED_STRIDE + k
    return trial_seed, np.random.default_rng(trial_seed)


def _suite_thm09(seed: int, trials: int, tol: float) -> dict:
    """Wright convexity agrees with ordinary convexity on random sequences."""
    failures = 0
    first = None
    for k in range(trials):
        trial_seed, rng = _trial_rng(seed, SUITE_SALTS["thm09"], k)
        m = int(rng.integers(1, 31))
        if k % 2 == 0:
            spec = oracle.GeneratorSpec(trial_seed + 1, m, oracle.Family.RANDOM_UNIFORM)
        else:
            spec = oracle.GeneratorSpec(
                trial_seed + 1, m, oracle.Family.INTEGER_GRID, grid_range=2
            )
        u = oracle.generate(spec)
        if is_wright_convex(u, tol=tol).holds != is_convex(u, tol=tol).holds:
            failures += 1
            if first is None:
                first = {"trial": k, "length": m, "values": list(u)}
    return {
        "name": "thm09",
        "trials": trials,
        "failures": failures,
        "passed": failures == 0,
        "first_failure": first,
    }


def _suite_thm10(seed: int, trials: int, tol: float) -> dict:
    """Convex decomposition residuals stay inside [-eps/2, eps/2]."""
    violations = 0
    gap_failures = {"exists": 0, "forall": 0}
    first = None
    for k in range(trials):
        trial_seed, rng = _trial_rng(seed, SUITE_SALTS["thm10"], k)
        m = int(rng.integers(2, 101))
        if k % 2 == 0:
            eps_budget = float(rng.uniform(0.05, 2.0))
            spec = oracle.GeneratorSpec(
                trial_seed + 1, m, oracle.Family.CONVEX_PLUS_NOISE, eps=eps_budget
            )
        else:
            spec = oracle.GeneratorSpec(trial_seed + 1, m, oracle.Family.RANDOM_UNIFORM)
        u = oracle.generate(spec)
        for mode in (QuantifierMode.EXISTS, QuantifierMode.FORALL):
            try:
                d = dec.convex_approx_hyers(u, mode, tol=tol)
            except dec.ConvexGapError:
                gap_failures[mode.value] += 1
                continue
            if d.bound > d.eps / 2.0 + 1e-9:
                violations += 1
                if first is None:
                    first = {"trial": k, "mode": mode.value, "length": m}
    return {
        "name": "thm10",
        "trials": trials,
        "residual_violations": violations,
        "gap_failures": gap_failures,
        "passed": violations == 0,
        "first_failure": first,
    }


def _suite_thm11(seed: int, trials: int, tol: float) -> dict:
    """Arithmetic fits never exceed the minimal two-sided slack."""
    violations = 0
    first = None
    for k in range(trials):
        trial_seed, rng = _trial_rng(seed, SUITE_SALTS["thm11"], k)
        m = int(rng.integers(2, 51))
        if k % 2 == 0:
            eps_budget = float(rng.uniform(0.05, 2.0))
            spec = oracle.GeneratorSpec(
                trial_seed + 1, m, oracle.Family.ARITHMETIC_PLUS_NOISE, eps=eps_budget
            )
        else:
            spec = oracle.GeneratorSpec(trial_seed + 1, m, oracle.Family.RANDOM_UNIFORM)
        u = oracle.generate(spec)
        d = dec.affine_approx(u)
        if d.bound > d.eps + 1e-9:
            violations += 1
            if first is None:
                first = {"trial": k, "length": m, "bound": d.bound, "eps": d.eps}
    return {
        "name": "thm11",
        "trials": trials,
        "violations": violations,
        "passed": violations == 0,
        "first_failure": first,
    }


def _suite_lemma22(seed: int, trials: int, tol: float) -> dict:
    """Combined ratio lies between the extreme termwise ratios."""
    failures = 0
    first = None
    for k in range(trials):
        _, rng = _trial_rng(seed, SUITE_SALTS["lemma22"], k)
        terms = int(rng.integers(1, 11))
        a = rng.uniform(-10.0, 10.0, terms)
        b = rng.uniform(1e-3, 10.0, terms)
        low, high = mediant_bounds(a, b)
        combined = float(a.sum() / b.sum())
        if not (low - 1e-12 <= combined <= high + 1e-12):
            failures += 1
            if first is None:
                first = {"trial": k, "low": low, "high": high, "combined": combined}
    return {
        "name": "lemma22",
        "trials": trials,
        "failures": failures,
        "passed": failures == 0,
        "first_failure": first,
    }


_SUITES = {
    "thm09": _suite_thm09,
    "thm10": _suite_thm10,
    "thm11": _suite_thm11,
    "lemma22": _suite_lemma22,
}


def run_suite(name: str, seed: int, trials: int, tol: float = DEFAULT_TOL) -> dict:
    """Run one named verification suite and return its result record."""
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValidationError("trials must be positive")
    if seed < 0:
        # trial seeds (seed + salt) * SEED_STRIDE + k must stay nonnegative
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return _SUITES[name](seed, trials, tol)


# --------------------------------------------------------------------------
# commands


class _Group(click.Group):
    """Reports a package error from any command as ``error: ...`` with exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SeqConvexError as exc:
            _fail_input(str(exc))


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="seqconvex")
def main() -> None:
    """Classify, certify, and decompose approximately convex sequences."""


_mode_option = click.option(
    "--mode",
    type=click.Choice(["exists", "forall"]),
    default="exists",
    show_default=True,
    help="Quantifier over the slack index n.",
)


def _check_tol(ctx: click.Context, param: click.Parameter, value: float) -> float:
    try:
        return check_eps(value)
    except ValidationError:
        raise click.BadParameter(f"not finite and nonnegative: {value!r}") from None


_tol_option = click.option(
    "--tol",
    type=float,
    default=DEFAULT_TOL,
    show_default=True,
    callback=_check_tol,
    help="Absolute comparison tolerance.",
)
_no_timing_option = click.option(
    "--no-timing", is_flag=True, help="Omit the timing field (byte-stable output)."
)
_data_argument = click.argument(
    "data", type=click.Path(exists=True, dir_okay=False, readable=True)
)


def _load_or_exit(path: str) -> tuple[Sequence, dict]:
    try:
        return load_sequence(path)
    except (OSError, UnicodeDecodeError) as exc:
        _fail_input(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail_input(f"malformed JSON in {path}: {exc}")
    except ValidationError as exc:
        _fail_input(f"bad input in {path}: {exc}")
    raise AssertionError("unreachable")


@main.command("classify")
@_data_argument
@click.option("--eps", type=float, default=None, help="Slack budget to test against.")
@_mode_option
@_tol_option
@click.option(
    "--strict",
    is_flag=True,
    help="Exit 1 when the headline classification (eps-convex if --eps is "
    "given, plain convexity otherwise) does not hold.",
)
@_no_timing_option
def classify_cmd(data, eps, mode, tol, strict, no_timing) -> None:
    """Classify a sequence, with certificates for every failed check."""
    started = time.perf_counter()
    u, digest = _load_or_exit(data)
    qmode = _mode(mode)
    results = {
        "convex": _verdict_json(is_convex(u, tol=tol)),
        "wright_convex": _verdict_json(is_wright_convex(u, tol=tol)),
    }
    headline = results["convex"]["holds"]
    if eps is not None:
        ec = is_eps_convex(u, eps, qmode, tol=tol)
        ea = is_eps_affine(u, eps, qmode, tol=tol)
        results["eps_convex"] = _verdict_json(ec)
        results["eps_affine"] = _verdict_json(ea)
        headline = ec.holds
    report = _base_report("classify", digest, mode, tol)
    report["eps"] = eps
    report["results"] = results
    _finish(report, started, no_timing)
    if strict and not headline:
        sys.exit(1)


@main.command("eps-min")
@_data_argument
@_mode_option
@_tol_option
@_no_timing_option
def eps_min_cmd(data, mode, tol, no_timing) -> None:
    """Exact minimal eps for the convex and affine slack inequalities."""
    started = time.perf_counter()
    u, digest = _load_or_exit(data)
    qmode = _mode(mode)
    cv, cv_cert = min_eps_convex(u, qmode)
    af, af_cert = min_eps_affine(u, qmode)
    report = _base_report("eps-min", digest, mode, tol)
    report["results"] = {
        "eps_convex_min": {"value": cv, "tight": _cert_json(cv_cert)},
        "eps_affine_min": {"value": af, "tight": _cert_json(af_cert)},
    }
    _finish(report, started, no_timing)


@main.command("decompose")
@_data_argument
@click.option(
    "--target",
    type=click.Choice(["convex", "convex-optimal", "affine"]),
    default="convex",
    show_default=True,
    help="Structured part to extract.",
)
@_mode_option
@_tol_option
@click.option(
    "--plot-data",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write TSV columns n, u_n, structured_n, residual_n to this path.",
)
@_no_timing_option
def decompose_cmd(data, target, mode, tol, plot_data, no_timing) -> None:
    """Split a sequence into a structured part plus a bounded residual."""
    started = time.perf_counter()
    u, digest = _load_or_exit(data)
    qmode = _mode(mode)
    report = _base_report("decompose", digest, mode, tol)
    try:
        if target == "convex":
            d = dec.convex_approx_hyers(u, qmode, tol=tol)
        elif target == "convex-optimal":
            d = dec.convex_approx_optimal(u)
        else:
            d = dec.affine_approx(u)
    except dec.ConvexGapError as exc:
        report["error"] = {
            "type": "convex-gap",
            "index": exc.index,
            "gap": exc.gap,
            "eps": exc.eps,
        }
        _finish(report, started, no_timing)
        sys.exit(1)
    report["results"] = _decomposition_json(d, target)
    if plot_data is not None:
        rows = ["n\tu_n\tstructured_n\tresidual_n"]
        for n, row in enumerate(zip(u, d.structured, d.residual)):
            rows.append("\t".join([str(n), *map(_format_float, row)]))
        with open(plot_data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    _finish(report, started, no_timing)


@main.command("extend")
@_data_argument
@click.option("--at", "at_x", type=float, default=None, help="Evaluate at one point.")
@click.option(
    "--grid", type=int, default=None, help="Evaluate at this many evenly spaced points."
)
@_no_timing_option
def extend_cmd(data, at_x, grid, no_timing) -> None:
    """Evaluate the piecewise-linear extension of a sequence."""
    started = time.perf_counter()
    if (at_x is None) == (grid is None):
        raise click.UsageError("exactly one of --at or --grid is required")
    u, digest = _load_or_exit(data)
    f = PiecewiseLinear(u)
    report = _base_report("extend", digest, None, DEFAULT_TOL)
    if at_x is not None:
        report["results"] = {"at": {"x": at_x, "value": f.eval(at_x)}}
    else:
        if grid < 2:
            raise click.UsageError("--grid needs at least 2 points")
        xs = float(len(u) - 1) * np.arange(grid) / (grid - 1)
        values = f.eval_array(xs)
        report["results"] = {
            "grid": {"count": grid, "xs": xs.tolist(), "values": values.tolist()}
        }
    _finish(report, started, no_timing)


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(["thm10", "thm11", "thm09", "lemma22", "all"]),
    default="all",
    show_default=True,
    help="Named property suite to run.",
)
@click.option(
    "--seed",
    type=int,
    default=None,
    help="Nonnegative base seed (falls back to SEQCONVEX_SEED, then 0).",
)
@click.option("--trials", type=int, default=1000, show_default=True)
@_tol_option
@_no_timing_option
def verify_cmd(suite, seed, trials, tol, no_timing) -> None:
    """Run seeded property suites; exit 1 if any trial fails."""
    started = time.perf_counter()
    if seed is None:
        env = os.environ.get("SEQCONVEX_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            _fail_input(f"SEQCONVEX_SEED is not an integer: {env!r}")
    names = list(_SUITES) if suite == "all" else [suite]
    outcomes = [run_suite(name, seed, trials, tol) for name in names]
    report = {
        "command": "verify",
        "input": None,
        "mode": None,
        "tolerance": tol,
        "seed": seed,
        "trials": trials,
        "rng": RNG_NOTE,
        "results": {"suites": outcomes},
    }
    _finish(report, started, no_timing)
    if not all(o["passed"] for o in outcomes):
        sys.exit(1)


if __name__ == "__main__":
    main()
