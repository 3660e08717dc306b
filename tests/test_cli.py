import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconvex import Certificate, oracle, replay_margin
from seqconvex.cli import main, render_json

#: Every command that reads a data file, in the argument forms the tests run.
DATA_COMMANDS = (
    ["classify", "--eps", "0.5", "--mode", "exists"],
    ["classify", "--eps", "0.5", "--mode", "forall"],
    ["eps-min", "--mode", "exists"],
    ["eps-min", "--mode", "forall"],
    ["decompose", "--target", "convex", "--mode", "exists"],
    ["decompose", "--target", "convex", "--mode", "forall"],
    ["decompose", "--target", "convex-optimal"],
    ["decompose", "--target", "affine"],
    ["extend", "--grid", "9"],
    ["extend", "--at", "1.5"],
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def peak_csv(tmp_path):
    path = tmp_path / "peak.csv"
    path.write_text("0\n1\n0\n")
    return str(path)


@pytest.fixture
def arith_csv(tmp_path):
    path = tmp_path / "arith.csv"
    path.write_text("3, 5, 7, 9\n")
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# --- classify ---------------------------------------------------------------


def test_classify_peak_eps_convex(runner, peak_csv):
    report = run_json(
        runner, ["classify", "--eps", "2", "--mode", "exists", "--no-timing", peak_csv]
    )
    assert report["results"]["eps_convex"]["holds"] is True
    assert report["results"]["eps_affine"]["holds"] is True
    assert report["results"]["convex"]["holds"] is False
    assert report["results"]["wright_convex"]["holds"] is False
    assert report["input"]["length"] == 3
    assert len(report["input"]["sha256"]) == 64
    assert "timing" not in report


def test_classify_strict_exit_codes(runner, peak_csv):
    # headline eps-convex holds -> 0; plain convexity fails -> 1
    ok = runner.invoke(main, ["classify", "--eps", "2", "--strict", peak_csv])
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["classify", "--strict", peak_csv])
    assert bad.exit_code == 1
    tight = runner.invoke(main, ["classify", "--eps", "1.9", "--strict", peak_csv])
    assert tight.exit_code == 1


def test_classify_certificates_replay(runner, peak_csv):
    report = run_json(runner, ["classify", "--eps", "1.9", "--no-timing", peak_csv])
    u = [0.0, 1.0, 0.0]
    for name, kwargs in (
        ("convex", {}),
        ("wright_convex", {}),
        ("eps_convex", {"eps": 1.9}),
        ("eps_affine", {"eps": 1.9}),
    ):
        entry = report["results"][name]
        assert entry["holds"] is False
        c = entry["certificate"]
        cert = Certificate(c["kind"], c["check"], c["i"], c["j"], c["n"], c["margin"])
        assert replay_margin(u, cert, **kwargs) == pytest.approx(
            c["margin"], abs=1e-12
        )


def test_classify_timing_present_by_default(runner, peak_csv):
    report = run_json(runner, ["classify", peak_csv])
    assert report["timing"]["seconds"] >= 0.0


# --- eps-min ------------------------------------------------------------------


def test_eps_min_report(runner, peak_csv):
    report = run_json(runner, ["eps-min", "--no-timing", peak_csv])
    assert report["results"]["eps_convex_min"]["value"] == 2.0
    assert report["results"]["eps_affine_min"]["value"] == 2.0
    tight = report["results"]["eps_convex_min"]["tight"]
    assert (tight["i"], tight["j"]) == (1, 2)


# --- decompose ------------------------------------------------------------------


def test_decompose_affine_exact(runner, arith_csv):
    report = run_json(
        runner, ["decompose", "--target", "affine", "--no-timing", arith_csv]
    )
    res = report["results"]
    assert res["line"]["slope"] == 2.0
    assert res["line"]["intercept"] == 3.0
    assert res["bound"] == 0.0
    assert res["structured"] == [3.0, 5.0, 7.0, 9.0]
    assert res["residual"] == [0.0, 0.0, 0.0, 0.0]


def test_decompose_convex_peak(runner, peak_csv):
    report = run_json(runner, ["decompose", "--target", "convex", "--no-timing", peak_csv])
    res = report["results"]
    assert res["structured"] == [1.0, 1.0, 1.0]
    assert res["residual"] == [-1.0, 0.0, -1.0]
    assert res["bound"] == 1.0
    assert res["eps"] == 2.0


def test_decompose_affine_steep_slope(runner, tmp_path):
    # slopes above 2**19 once stalled a slope search whose bracket could not
    # shrink below the float spacing
    path = tmp_path / "steep.csv"
    path.write_text("0,1e6,2.5e6,3e6\n")
    result = runner.invoke(main, ["decompose", "--target", "affine", "--no-timing", str(path)])
    assert result.exit_code == 0
    res = strict_json(result.stdout)["results"]
    assert res["line"] == {"slope": 1e6, "intercept": 2.5e5}
    assert res["bound"] == 2.5e5


def test_decompose_plot_data(runner, peak_csv, tmp_path):
    out = tmp_path / "plot.tsv"
    run_json(
        runner,
        ["decompose", "--target", "convex-optimal", "--no-timing",
         "--plot-data", str(out), peak_csv],
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "n\tu_n\tstructured_n\tresidual_n"
    assert len(lines) == 4
    n, u_n, s_n, r_n = lines[1].split("\t")
    assert n == "0" and float(u_n) == 0.0 and float(s_n) == 0.5 and float(r_n) == -0.5


def test_decompose_gap_error_exits_one(runner, tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text(",".join(str(v) for v in [0, 1, 2, 3, 4, 5, 6] + [6] * 6))
    result = runner.invoke(main, ["decompose", "--target", "convex", "--no-timing", str(path)])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["error"]["type"] == "convex-gap"
    assert report["error"]["index"] == 6


# --- extend -----------------------------------------------------------------------


def test_extend_at(runner, tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("0\n1\n4\n")
    report = run_json(runner, ["extend", "--at", "1.25", "--no-timing", str(path)])
    assert report["results"]["at"]["value"] == 1.75


def test_extend_grid(runner, tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("0\n2\n")
    report = run_json(runner, ["extend", "--grid", "3", "--no-timing", str(path)])
    grid = report["results"]["grid"]
    assert grid["xs"] == [0.0, 0.5, 1.0]
    assert grid["values"] == [0.0, 1.0, 2.0]


def test_extend_domain_error_exits_two(runner, peak_csv):
    result = runner.invoke(main, ["extend", "--at", "7.5", peak_csv])
    assert result.exit_code == 2
    assert "domain" in result.output.lower()


def test_extend_requires_exactly_one_selector(runner, peak_csv):
    assert runner.invoke(main, ["extend", peak_csv]).exit_code == 2
    assert (
        runner.invoke(main, ["extend", "--at", "1", "--grid", "4", peak_csv]).exit_code
        == 2
    )


# --- verify ------------------------------------------------------------------------


def test_verify_thm09_sweep(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "thm09", "--seed", "7", "--trials", "1000", "--no-timing"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    suite = report["results"]["suites"][0]
    assert suite["name"] == "thm09"
    assert suite["trials"] == 1000
    assert suite["failures"] == 0
    assert suite["passed"] is True


def test_verify_all_suites_small(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "all", "--seed", "3", "--trials", "50", "--no-timing"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    names = [s["name"] for s in report["results"]["suites"]]
    assert names == ["thm09", "thm10", "thm11", "lemma22"]
    assert all(s["passed"] for s in report["results"]["suites"])


def test_verify_seed_env_fallback(runner, monkeypatch):
    monkeypatch.setenv("SEQCONVEX_SEED", "42")
    report = json.loads(
        runner.invoke(
            main, ["verify", "--suite", "lemma22", "--trials", "10", "--no-timing"]
        ).output
    )
    assert report["seed"] == 42


@pytest.mark.parametrize("source", ["flag", "env"])
def test_verify_negative_seed_is_an_input_error(runner, monkeypatch, source):
    args = ["verify", "--suite", "thm09", "--trials", "3", "--no-timing"]
    if source == "flag":
        args += ["--seed", "-100"]
    else:
        monkeypatch.setenv("SEQCONVEX_SEED", "-100")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: seed must be nonnegative, got -100\n"


# --- inputs and determinism ----------------------------------------------------------


def test_json_input(runner, tmp_path):
    path = tmp_path / "data.json"
    path.write_text("[0, 1, 0]")
    report = run_json(runner, ["eps-min", "--no-timing", str(path)])
    assert report["results"]["eps_convex_min"]["value"] == 2.0


def test_csv_comments_and_rows(runner, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# a comment\n0, 1  # trailing\n0\n")
    report = run_json(runner, ["eps-min", "--no-timing", str(path)])
    assert report["input"]["length"] == 3
    assert report["results"]["eps_convex_min"]["value"] == 2.0


def test_missing_file_exits_two(runner):
    result = runner.invoke(main, ["classify", "no-such-file.csv"])
    assert result.exit_code == 2


def test_malformed_number_exits_two(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1, two, 3\n")
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2
    assert "bad input" in result.output


def test_nan_entry_exits_two(runner, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text("[1, NaN, 3]")
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2
    assert "not finite" in result.output


@pytest.mark.parametrize(
    "text, entry", [("[true, 2, 3]", "entry 0 is not a real number: true"),
                    ('[1, 2, "3"]', 'entry 2 is not a real number: "3"')]
)
def test_json_bool_and_string_entries_exit_two(runner, tmp_path, text, entry):
    path = tmp_path / "mixed.json"
    path.write_text(text)
    result = runner.invoke(main, ["eps-min", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: bad input in {path}: {entry}\n"


def test_deeply_nested_json_exits_two(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = runner.invoke(main, ["eps-min", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: malformed JSON in {path}: ")
    assert "Traceback" not in result.output


def test_unknown_flag_exits_two(runner, peak_csv):
    result = runner.invoke(main, ["classify", "--bogus", peak_csv])
    assert result.exit_code == 2


def test_reports_are_deterministic(runner, peak_csv):
    args = ["classify", "--eps", "2", "--no-timing", peak_csv]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.stdout_bytes == second.stdout_bytes

    args = ["verify", "--suite", "thm11", "--seed", "5", "--trials", "25", "--no-timing"]
    assert (
        runner.invoke(main, args).stdout_bytes == runner.invoke(main, args).stdout_bytes
    )


def test_report_roundtrips_losslessly(runner, peak_csv):
    report = run_json(runner, ["classify", "--eps", "0.3333333333333333", "--no-timing", peak_csv])
    assert report["eps"] == 0.3333333333333333
    assert render_json(report) == render_json(json.loads(render_json(report)))


def test_render_json_float_format():
    assert render_json(2.0) == "2.0"
    assert render_json(0.1) == "0.10000000000000001"
    assert json.loads(render_json(0.1)) == 0.1
    assert render_json(True) == "true"
    assert render_json(None) == "null"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "values", ["-1e308,1e308,-1e308", "0,1e308,0", "1.5e308,1.5e308,1.5e308,1.5e308"]
)
@pytest.mark.parametrize("args", DATA_COMMANDS, ids=" ".join)
def test_overflowing_input_gives_strict_json_or_error(runner, tmp_path, values, args):
    path = tmp_path / "huge.csv"
    path.write_text(values + "\n")
    result = runner.invoke(main, args + ["--no-timing", str(path)])
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.stdout:
        strict_json(result.stdout)
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("classify", "1.7e308,1.7e308,1.6e308,1.7e308", "error: entries 0 and 2 overflow when added"),
        ("classify", "0,1.7e308,-1.7e308,0", "error: difference at entry 2 overflows"),
        ("eps-min", "0,1.7e308,-1.7e308,0", "error: difference at entry 2 overflows"),
        ("classify", "0,1.2e308,0,0", "error: differences at entries 1 and 2 overflow when compared"),
        ("eps-min", "0,1.2e308,0,0", "error: differences at entries 1 and 2 overflow when compared"),
    ],
)
def test_overflowing_pair_sum_or_difference_exits_two(runner, tmp_path, command, values, message):
    path = tmp_path / "huge.csv"
    path.write_text(values + "\n")
    result = runner.invoke(main, [command, "--no-timing", str(path)])
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith(message)
    assert result.stderr.count("\n") == 1


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1.7e308, max_value=1.7e308).filter(lambda x: abs(x) > 1e300),
    st.integers(min_value=-(10**6), max_value=10**6),
)
odd_entries = st.recursive(
    st.one_of(
        st.floats(),
        st.integers(min_value=10**300, max_value=10**400),
        st.booleans(),
        st.text(st.characters(exclude_categories=["Cs"]), max_size=5),
    ),
    lambda children: st.lists(children, max_size=3),
    max_leaves=4,
)
#: Mostly numeric inputs, so that the commands run past the loader.
fuzz_values = st.one_of(
    st.lists(numbers, max_size=10),
    st.lists(st.one_of(numbers, odd_entries), max_size=8),
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=fuzz_values, as_json=st.booleans(), sep=st.sampled_from([",", "\n"]))
def test_cli_fuzz_exit_codes_and_strict_json(tmp_path_factory, values, as_json, sep):
    path = tmp_path_factory.getbasetemp() / ("fuzz.json" if as_json else "fuzz.csv")
    path.write_text(json.dumps(values) if as_json else sep.join(map(str, values)))
    runner = CliRunner()
    for args in DATA_COMMANDS:
        result = runner.invoke(main, args + ["--no-timing", str(path)])
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        if result.stdout:
            strict_json(result.stdout)
        if result.exit_code == 2:
            assert result.stdout == "" and result.stderr.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_must_be_finite_and_nonnegative(runner, peak_csv, tol):
    result = runner.invoke(main, ["eps-min", "--tol", tol, peak_csv])
    assert result.exit_code == 2
    assert "not finite and nonnegative" in result.stderr
    assert result.stdout == ""


#: Inputs of the golden-report test; "convex-gap" makes
#: ``decompose --target convex --mode exists`` exit 1.
GOLDEN_INPUTS = {
    "uniform": oracle.GeneratorSpec(11, 40, oracle.Family.RANDOM_UNIFORM),
    "integer-grid": oracle.GeneratorSpec(12, 30, oracle.Family.INTEGER_GRID, grid_range=2),
    "convex-noise": oracle.GeneratorSpec(13, 50, oracle.Family.CONVEX_PLUS_NOISE, eps=0.2),
    "convex-gap": oracle.GeneratorSpec(98, 20, oracle.Family.RANDOM_UNIFORM),
}

#: sha256 over the exit codes and ``--no-timing`` reports of every command
#: except ``decompose --target affine`` on each input, and over the ``verify``
#: report; a change to any of those report bytes changes its digest.
GOLDEN_DIGESTS = {
    "uniform": "4a2e9d292ed7003035475ebc52015b53235d88e2e7bcd44ba0c35bf109f11cdb",
    "integer-grid": "2cfa6f4856485613f66399e3f161b64efa13269ef4a2e20830b7dac0026f2249",
    "convex-noise": "7fb76bc12043dac0a39fde5b8f20b192c9f293a5f8d7812c5adc422236b69c9a",
    "convex-gap": "3af53d3835526fd206e4d9cb13e9ffd829b84e4d2c1fb33614b4fa0710b461df",
    "verify": "f508aa0c19430fa072f89cdfb25d675dfe60e9edcfe2d9cad998911cb0b8bbc7",
}

#: The same over ``decompose --target affine`` alone, pinned apart so that a
#: change to the line fit shows which reports it moved.
AFFINE_COMMAND = ["decompose", "--target", "affine"]
AFFINE_DIGESTS = {
    "uniform": "474f2e4733ca67f250062bc16c73bccf0dba26bc850cefee3fa3415412ab62f5",
    "integer-grid": "baa98bf8ed4bdad6eb57ba1dc08a58ba22fc0ec56410fbda52a671a81fa1695a",
    "convex-noise": "fea784b5d3ebbfbebd3e024b3700c0d44cb9a92dae9923d13ded9aea0f997c8c",
    "convex-gap": "623351753a33788a60195f5551c7df5ada063d8a6abec7d42d0bbaf09923f8ec",
}


def test_reports_match_golden_digests(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # reports name the input by the path given
    digests, affine = {}, {}
    for name, spec in GOLDEN_INPUTS.items():
        path = f"{name}.json"
        (tmp_path / path).write_text(json.dumps(list(oracle.generate(spec))))
        h, h_affine = hashlib.sha256(), hashlib.sha256()
        for args in DATA_COMMANDS:
            result = runner.invoke(main, args + ["--no-timing", path])
            (h_affine if args == AFFINE_COMMAND else h).update(
                f"{result.exit_code}\n".encode() + result.stdout_bytes
            )
        digests[name] = h.hexdigest()
        affine[name] = h_affine.hexdigest()
    verify = runner.invoke(main, ["verify", "--seed", "5", "--trials", "30", "--no-timing"])
    digests["verify"] = hashlib.sha256(verify.stdout_bytes).hexdigest()
    assert affine == AFFINE_DIGESTS
    assert digests == GOLDEN_DIGESTS
