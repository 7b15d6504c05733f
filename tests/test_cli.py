import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orlicz_lab import suites
from orlicz_lab.classify import classify_injection
from orlicz_lab.cli import _load_spec, main
from orlicz_lab.functions import FAMILIES, PowerFunction, build_counterexample, parse_function_spec
from orlicz_lab.grids import GrowthSampleGrid
from orlicz_lab.suites import DEFAULT_SEED, SUITE_NAMES
from orlicz_lab.witnesses import FORMS, parse_sampled_spec

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_power(capsys):
    code, out, _ = run_cli(capsys, "classify", "--function", '{"family":"power","p":2}',
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "compact"


def test_classify_counterexample_shorthand(capsys):
    code, out, _ = run_cli(capsys, "classify", "--function", "paper_counterexample:4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "weakly_compact_not_compact"


def test_classify_exp_minus_one(capsys):
    code, out, _ = run_cli(capsys, "classify", "--function", '{"family":"exp_minus_one"}',
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "not_weakly_compact"


def test_classify_json_is_indented_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--function", "paper_counterexample:4",
                           "--format", "json")
    psi = build_counterexample(4)
    report = classify_injection(psi, GrowthSampleGrid.default_for(psi))
    assert code == 0
    assert out == json.dumps(report.to_dict(), indent=2) + "\n"


def test_classify_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "--function", "power:2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,log_x,ratio_log"
    assert len(lines) > 4


def test_norm_bergman_monomial(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "bergman", "--function", "power:2",
                           "--input", "monomial:1", "--format", "text")
    assert code == 0
    assert abs(float(out.strip().splitlines()[0]) - 1.0 / math.sqrt(2.0)) < 1e-8


def test_norm_hardy_constant(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "hardy", "--function", "power:2",
                           "--input", "const:3", "--format", "text")
    assert code == 0
    assert abs(float(out.strip().splitlines()[0]) - 3.0) < 1e-7


def test_norm_kernel_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "bergman", "--function", "power:2",
                           "--input", "kernel_squared:h=0.03125", "--format", "text")
    assert code == 0
    assert float(out.strip().splitlines()[0]) >= 1.0 / (9.0 * 32.0) - 1e-6


def test_norm_json_result(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "circle", "--function", "power:2",
                           "--input", "monomial:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert abs(payload["value"] - 1.0) < 1e-8


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counterexample", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["overall_pass"]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 64
    assert "unknown suite" in err


def test_malformed_function_spec(capsys):
    code, _, err = run_cli(capsys, "classify", "--function", '{"family":"wat"}')
    assert code == 64
    assert "unknown function family" in err


@pytest.mark.parametrize("option, spec, message", [
    ("--input", "monomial", "monomial form needs a 'n' field"),
    ("--input", "monomial:2.5", "monomial form field 'n': expected an integer, got 2.5"),
    ("--input", "monomial:true", "monomial form field 'n': expected an integer, got True"),
    ("--input", "polynomial:coeffs=[1]", "polynomial form field 'coeffs': "),
    ("--function", "power:p=2,q=3", "power family has no field 'q'"),
    ("--function", "paper_counterexample:4.7",
     "paper_counterexample family field 'n_max': expected an integer, got 4.7"),
    ("--function", '{"family":"paper_counterexample","n_max":Infinity}',
     "paper_counterexample family field 'n_max': expected an integer, got inf"),
    ("--function", '{"family":"power","p":[2]}', "power family field 'p': expected a number"),
    ("--function", '{"family":"piecewise","knots":5}', "piecewise family field 'knots': "),
])
def test_a_malformed_spec_is_a_usage_error_that_names_the_field(capsys, option, spec, message):
    # the malformed spec overrides the valid one given first
    code, out, err = run_cli(capsys, "norm", "--space", "circle", "--function", "power:2",
                             "--input", "monomial:1", option, spec)
    assert (code, out) == (64, "") and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("argv, message", [
    (("--function", "exp_minus_one:3"), "'exp_minus_one' takes no bare argument"),
    (("--function", "power"), "power family needs a 'p' field"),
    (("--function", "power:2,p=3"), "shorthand argument 'p=3' sets 'p' again"),
    (("--function", "power:family=exp_minus_one"),
     "shorthand argument 'family=exp_minus_one' sets 'family' again"),
    (("--function", "power:p=two"), "cannot parse shorthand argument 'p=two'"),
    (("--input", "const:3,4"), "shorthand argument '4' sets 'value' again"),
    (("--n-theta", "0"), "--n-theta and --n-radial must be at least 1"),
    (("--n-radial", "0"), "--n-theta and --n-radial must be at least 1"),
    (("--n-theta", "-4"), "--n-theta and --n-radial must be at least 1"),
    # an unknown name is refused as unknown, whatever follows it
    (("--function", "foo:3"), f"unknown function family 'foo'; expected one of {tuple(FAMILIES)}"),
    (("--function", "foo:[1"), f"unknown function family 'foo'; expected one of {tuple(FAMILIES)}"),
    (("--input", "bar:3"), f"unknown function form 'bar'; expected one of {tuple(FORMS)}"),
])
def test_norm_usage_errors(capsys, argv, message):
    # a repeated option overrides the default given first
    code, out, err = run_cli(capsys, "norm", "--space", "disk", "--function", "power:2",
                             "--input", "monomial:3", *argv)
    assert (code, out, err) == (64, "", f"error: {message}\n")


def test_shorthand_fills_the_first_field_of_its_entry():
    assert _load_spec("power:2", "family") == {"family": "power", "p": 2}
    assert _load_spec("const:3", "form") == {"form": "constant", "value": 3}
    assert _load_spec("paper_counterexample:5,r=4.5", "family") == {
        "family": "paper_counterexample", "n_max": 5, "r": 4.5}
    assert _load_spec("kernel_squared:h=0.03125", "form") == {"form": "kernel_squared",
                                                               "h": 0.03125}
    assert _load_spec("evaluation_envelope", "form") == {"form": "evaluation_envelope"}


@pytest.mark.parametrize("text", ["coeffs=[[1,0],[0,1]]", "[[1,0],[0,1]]", "[[1, 0], [0, 1]]"])
def test_shorthand_splits_only_at_commas_outside_brackets(capsys, text):
    assert _load_spec(f"polynomial:{text}", "form") == {"form": "polynomial",
                                                        "coeffs": [[1, 0], [0, 1]]}
    outputs = [run_cli(capsys, "norm", "--space", "hardy", "--function", "power:2", "--input",
                       spec, "--format", "json")
               for spec in (f"polynomial:{text}", '{"form":"polynomial","coeffs":[[1,0],[0,1]]}')]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert json.loads(outputs[0][1])["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (("--function", "monomial:3"), "'monomial' is a sampled-function form, not a function family"),
    (("--function", "const:3"), "'constant' is a sampled-function form, not a function family"),
    (("--input", "power:2"), "'power' is a function family, not a sampled-function form"),
    (("--input", "paper_counterexample"),
     "'paper_counterexample' is a function family, not a sampled-function form"),
])
def test_a_name_from_the_other_table_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "norm", "--space", "hardy", "--function", "power:2",
                             "--input", "const:3", *argv)
    assert (code, out, err) == (64, "", f"error: {message}\n")


def test_classify_refuses_a_factor_that_is_not_a_number(capsys):
    code, out, err = run_cli(capsys, "classify", "--function", "power:2", "--a-list", "2,x")
    assert (code, out) == (64, "") and err.startswith("error: could not convert"), err


README = (ROOT / "README.md").read_text()


def test_every_readme_spec_parses():
    # the JSON spec lines, one per family and form in table order, and the
    # shorthand and JSON arguments of the command examples
    docs = re.findall(r"^\{.*\}$", README, flags=re.M)
    specs = [json.loads(doc) for doc in docs]
    assert [spec["family"] for spec in specs if "family" in spec] == list(FAMILIES)
    assert [spec["form"] for spec in specs if "form" in spec] == list(FORMS)
    psi = PowerFunction(2)
    for doc, spec in zip(docs, specs):
        if "family" in spec:
            assert parse_function_spec(doc).family == spec["family"]
        else:
            parse_sampled_spec(doc, psi=psi)
    args = re.findall(r"--(function|input) +('[^']*'|\S+)", README)
    assert len(args) >= 8
    for option, text in args:
        spec = _load_spec(text.strip("'"), "family" if option == "function" else "form")
        if option == "function":
            parse_function_spec(spec)
        else:
            parse_sampled_spec(spec, psi=psi)


def test_classify_refuses_a_list_missing_standard_factors(capsys):
    code, out, err = run_cli(capsys, "classify", "--function", "power:2", "--a-list", "2,4")
    assert code == 64 and out == ""
    assert err == "error: a_points must cover [1.5, 2.0, 4.0, 8.0], got [2.0, 4.0]\n"


def test_missing_subcommand(capsys):
    assert main([]) == 64


def test_output_file_atomic(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "classify", "--function", "power:2",
                         "--format", "json", "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "compact"


def test_seed_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run_cli(capsys, "verify", "--suite", "evaluation", "--seed", "11",
                             "--format", "json", "--output", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_evaluation_follows_the_seed(capsys):
    outs = {}
    for seed in ("11", "12"):
        code, out, _ = run_cli(capsys, "verify", "--suite", "evaluation", "--seed", seed,
                               "--format", "json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["config"]["seed"] == int(seed)
        outs[seed] = out
    # the random polynomials are drawn from the seed
    assert outs["11"] != outs["12"]


@pytest.mark.parametrize("argv", [
    ("classify", "--function", "power:2", "--seed", "1"),
    ("norm", "--space", "hardy", "--function", "power:2", "--input", "const:3", "--seed", "1"),
    ("norm", "--space", "hardy", "--function", "power:2", "--input", "const:3",
     "--format", "csv"),
    ("verify", "--suite", "counterexample", "--format", "csv"),
    ("report", "--format", "csv"),
    ("norm", "--space", "bergman", "--function", "power:2", "--input", "monomial:3",
     "--n-theta", "16", "--n-radial", "2"),
    ("norm", "--space", "hardy", "--function", "power:2", "--input", "const:3",
     "--n-radial", "2"),
    ("verify", "--suite", "carleson", "--seed", "3"),
    ("verify", "--suite", "kernel", "--seed", "3"),
    ("verify", "--suite", "counterexample", "--seed", "3"),
], ids=["classify_seed", "norm_seed", "norm_csv", "verify_csv", "report_csv",
        "norm_bergman_rule", "norm_hardy_n_radial", "verify_carleson_seed",
        "verify_kernel_seed", "verify_counterexample_seed"])
def test_options_a_command_would_ignore_are_usage_errors(capsys, argv):
    # --seed only where a corpus is random, csv only for the classifier, a
    # rule size only for the disk norm that is computed on it
    assert run_cli(capsys, *argv)[0] == 64


UNSEEDED = dict.fromkeys(SUITE_NAMES)


@pytest.mark.parametrize("argv, seeds", [
    (("verify", "--suite", "all", "--seed", "3"), {**UNSEEDED, "contraction": 3, "evaluation": 3}),
    (("verify", "--suite", "contraction", "--seed", "3"), {"contraction": 3}),
    (("verify", "--suite", "all"),
     {**UNSEEDED, "contraction": DEFAULT_SEED, "evaluation": DEFAULT_SEED}),
    (("report", "--function", "power:2", "--seed", "3"),
     {**UNSEEDED, "contraction": 3, "evaluation": 3}),
], ids=["verify_all", "verify_contraction", "verify_default", "report"])
def test_the_seed_reaches_the_seeded_suites(monkeypatch, capsys, argv, seeds):
    # each suite is replaced by one that reports the options it was called with
    def recorder(name):
        return lambda **options: suites.SuiteReport(name, options, (), True)

    monkeypatch.setattr(suites, "SUITES", {name: recorder(name) for name in SUITE_NAMES})
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    reports = payload["suites"] if argv[0] == "report" else payload
    assert {r["suite_name"]: r["config"].get("seed") for r in reports} == seeds


def test_report_command(capsys):
    code, out, _ = run_cli(capsys, "report", "--function", "power:2", "--format", "json")
    payload = json.loads(out)
    assert payload["classification"]["verdict"] == "compact"
    assert len(payload["suites"]) == 7
    assert payload["all_suites_pass"]
    assert code == 0


def test_verify_kernel_custom_h(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "kernel", "--h", "0.0078125",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["overall_pass"]
    assert payload[0]["config"]["h_grid"] == [0.0078125]


def test_verify_h_flag_guarded(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "monomial", "--h", "0.5")
    assert code == 64


@pytest.mark.parametrize("suite, h, message", [
    ("carleson", "3", "window size h must lie in (0, 2]"),
    ("kernel", "0", "family parameter h must lie in (0, 1/8], got 0.0"),
    ("kernel", "nan", "family parameter h must lie in (0, 1/8], got nan"),
    ("kernel", "0.5", "family parameter h must lie in (0, 1/8], got 0.5"),
])
def test_verify_h_outside_the_suite_range_is_a_usage_error(capsys, suite, h, message):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--h", h)
    assert (code, out, err) == (64, "", f"error: {message}\n")


def test_verify_h_turns_only_its_refusal_into_a_usage_error(monkeypatch):
    # a ValueError raised by the suite after it accepted h is not a usage error
    def fail(*args, **kwargs):
        raise ValueError("later")

    monkeypatch.setattr(suites, "bergman_norms", fail)
    with pytest.raises(ValueError, match="later"):
        main(["verify", "--suite", "kernel", "--h", "0.125"])


def test_classify_refuses_a_window_it_would_not_use(capsys):
    code, out, err = run_cli(capsys, "classify", "--function", '{"family":"power","p":2}',
                             "--x-lo", "100", "--x-hi", "10", "--points", "5")
    assert code == 64 and out == ""
    assert "x_lo=100 must be below x_hi=10" in err
    code, out, err = run_cli(capsys, "classify", "--function", "paper_counterexample:4",
                             "--x-lo", "100", "--x-hi", "1000")
    assert code == 64 and out == ""
    assert "classified on its knot anchors" in err


def _cli_into_closed_pipe(argv, read_first):
    """Run the CLI in a subprocess with stdout on a pipe whose reader reads
    ``read_first`` bytes and then closes it (at once if 0)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    if not read_first:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "orlicz_lab.cli", *argv], env=env,
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    if read_first:
        with os.fdopen(read_end, "rb") as reader:
            assert len(reader.read(read_first)) == read_first
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


# carleson's text report fits the output buffer, so the pipe breaks at the
# final flush; the report is larger than a pipe holds, so it breaks mid-write
@pytest.mark.parametrize("argv, read_first", [
    (("verify", "--suite", "carleson", "--format", "text"), 0),
    (("report",), 16),
], ids=["verify_at_flush", "report_mid_write"])
def test_a_closed_pipe_is_not_an_error(argv, read_first):
    code, err = _cli_into_closed_pipe(argv, read_first)
    assert code == 0 and err == "", err
