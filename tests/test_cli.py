"""End-to-end command line tests, run in-process through main()."""

import io
import json

import pytest

from legcurve import cli
from legcurve.cli import _join_expression_flags, main
from legcurve.curves import PlaneCurveGerm
from legcurve.documents import dump_curve
from legcurve.errors import ValidationError
from legcurve.expansion import ExpansionContext
from legcurve.semigroups import NumericalSemigroup


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def curve_file(tmp_path, name, n, coeffs, precision):
    path = tmp_path / name
    path.write_text(dump_curve(PlaneCurveGerm(n, coeffs, precision)))
    return str(path)


def test_gamma_table(capsys):
    code, out, err = run(capsys, ["gamma", "3", "10"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "generic semigroup for (3, 10)"
    assert "gaps: {1, 2, 4, 5, 8}" in lines
    assert "conductor: 9" in lines
    assert "generators: {3, 7, 11}" in lines
    assert "s: 11" in lines
    assert "dimension: 1" in lines
    assert any(line.startswith("  i=7 ") for line in lines)


def test_table_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gamma", "3", "10", "--table"])
    assert info.value.code == 2
    assert "unrecognized arguments: --table" in capsys.readouterr().err


def test_gamma_json(capsys):
    code, out, err = run(capsys, ["gamma", "3", "11", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "legcurve/gamma/1"
    assert payload["gaps"] == [1, 2, 4, 5, 7, 10]
    assert payload["s"] == 13
    assert {"i": 11, "sharp": 2, "omega": 13, "tau": [11, 13]} in payload["trajectories"]


def test_gamma_rejects_bad_type(capsys):
    code, out, err = run(capsys, ["gamma", "4", "10"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_semigroup_table(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 1}, 18)
    code, out, err = run(capsys, ["semigroup", path])
    assert code == 0
    assert "semigroup gaps: {1, 2, 4, 5, 8}" in out
    assert "matches generic semigroup: yes" in out


def test_semigroup_json_non_generic(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 12: 1}, 18)
    code, out, err = run(capsys, ["semigroup", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "legcurve/semigroup/1"
    assert payload["generic"] is False
    assert payload["gaps"] == [1, 2, 4, 5, 8, 11]


def test_semigroup_outside_strongly_generic_range(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {5: 1}, 8)
    code, out, err = run(capsys, ["semigroup", path])
    assert code == 0
    assert "matches generic semigroup: not defined for this type" in out


def test_semigroup_from_stdin(capsys, monkeypatch):
    doc = dump_curve(PlaneCurveGerm(3, {10: 1, 11: 1}, 18))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, ["semigroup", "-"])
    assert code == 0 and "matches generic semigroup: yes" in out


def test_semigroup_missing_file(capsys):
    code, out, err = run(capsys, ["semigroup", "/no/such/file.json"])
    assert code == 2
    assert err.startswith("error: cannot read")


def test_semigroup_insufficient_precision(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 1}, 12)
    code, out, err = run(capsys, ["semigroup", path])
    assert code == 4
    assert "need at least 15" in err


def test_conormal_table(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 2}, 18)
    code, out, err = run(capsys, ["conormal", path])
    assert code == 0
    assert out.splitlines() == [
        "conormal p-series for the curve of type (3, 10)",
        "  t^7: 10/3",
        "  t^8: 22/3",
        "precision: 15",
    ]


def test_transform_removes_term(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 12: 1}, 18)
    code, out, err = run(
        capsys, ["transform", path, "--alpha", "0", "--beta0", "-x^4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"e": 10, "c": "1"}]


def test_transform_agrees_with_library(capsys, tmp_path):
    from legcurve.contact import act_on_curve, solve_contact
    from legcurve.expressions import parse_germ

    curve = PlaneCurveGerm(3, {10: 1, 11: 1}, 24)
    path = tmp_path / "c.json"
    path.write_text(dump_curve(curve))
    code, out, err = run(
        capsys, ["transform", str(path), "--alpha", "-p", "--beta0", "x^4"]
    )
    assert code == 0
    alpha = parse_germ("-p", 3, 10)
    beta0 = parse_germ("x^4", 3, 10)
    expected = act_on_curve(solve_contact(alpha, beta0, 24), curve)
    assert out == dump_curve(expected)


def test_transform_validates_beta0(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1}, 18)
    code, out, err = run(capsys, ["transform", path, "--alpha", "0", "--beta0", "p"])
    assert code == 2 and "beta0 must not involve p" in err
    code, out, err = run(capsys, ["transform", path, "--alpha", "0", "--beta0", "y"])
    assert code == 2 and "y-derivative of beta0" in err


def test_join_expression_flags():
    argv = ["transform", "c.json", "--alpha", "-p", "--beta0", "-x^4", "--json"]
    assert _join_expression_flags(argv) == [
        "transform",
        "c.json",
        "--alpha=-p",
        "--beta0=-x^4",
        "--json",
    ]


def test_normalize_table(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 1, 13: 2, 14: -1}, 30)
    code, out, err = run(capsys, ["normalize", path])
    assert code == 0
    assert "  t^10: 1" in out and "  t^11: 1" in out
    assert "reduction steps (order, added coefficient):" in out
    assert "  13: -2" in out
    assert "moduli coordinate a_11: 1" in out


def test_normalize_short_form_passthrough(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 5}, 18)
    code, out, err = run(capsys, ["normalize", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "legcurve/normalize/1"
    assert payload["steps"] == []
    assert payload["free"] == [11]
    assert payload["point"] == {"11": "5"}


def test_normalize_non_generic_exit(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 12: 1}, 30)
    code, out, err = run(capsys, ["normalize", path])
    assert code == 3
    assert "generic gaps" in err


def test_equivalent(capsys, tmp_path):
    a = curve_file(tmp_path, "a.json", 3, {10: 1, 11: 1}, 18)
    b = curve_file(tmp_path, "b.json", 3, {10: 4, 11: 4}, 18)
    c = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 2}, 18)
    code, out, err = run(capsys, ["equivalent", a, b])
    assert code == 0
    assert out.splitlines() == ["equivalent: yes", "witness root-of-unity exponent: 0"]
    code, out, err = run(capsys, ["equivalent", a, c])
    assert code == 0 and out.splitlines() == ["equivalent: no"]
    code, out, err = run(capsys, ["equivalent", a, c, "--json"])
    payload = json.loads(out)
    assert payload == {
        "schema": "legcurve/equivalent/1",
        "equivalent": False,
        "witness": None,
    }


def test_equivalent_with_a_sign_flip_witness(capsys, tmp_path):
    # at (4, 11), t -> i t multiplies a_13 by i^2 = -1
    a = curve_file(tmp_path, "a.json", 4, {11: 1, 13: 2}, 30)
    b = curve_file(tmp_path, "b.json", 4, {11: 1, 13: -2, 15: 3}, 30)
    code, out, err = run(capsys, ["equivalent", a, b])
    assert code == 0 and err == ""
    assert out.splitlines() == ["equivalent: yes", "witness root-of-unity exponent: 1"]
    code, out, err = run(capsys, ["equivalent", a, b, "--json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": "legcurve/equivalent/1", "equivalent": True, "witness": 1}


def test_verify_generic(capsys):
    code, out, err = run(capsys, ["verify-generic", "3", "10", "--trials", "3", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify-generic (3, 10): trials=3 seed=1 range=1000000"
    assert lines[1] == "pass: 3/3"


def test_verify_generic_deterministic(capsys):
    argv = ["verify-generic", "2", "7", "--trials", "4", "--seed", "9", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert json.loads(first)["passes"] == 4


def test_upsilon_checks(capsys):
    code, out, err = run(capsys, ["upsilon", "3", "10", "--check", "direct-vs-closed"])
    assert code == 0
    assert "result: pass" in out
    argv = ["upsilon", "3", "10", "--check", "det-invariance", "--seed", "3", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["pass"] is True and payload["checked"] == 50


@pytest.mark.parametrize("check", ["direct-vs-closed", "mu-derivative", "det-invariance"])
def test_upsilon_failure_exits_5(capsys, monkeypatch, check):
    counterexample = {"index": [1, 0, 2], "k": 12}
    for name in ("_check_direct_vs_closed", "_check_mu_derivative", "_check_det_invariance"):
        monkeypatch.setattr(cli, name, lambda *args: (7, counterexample))
    code, out, err = run(capsys, ["upsilon", "3", "10", "--check", check])
    assert code == 5 and err == ""
    assert out == (
        f"upsilon (3, 10) check={check}\n"
        "checked: 7\n"
        "result: FAIL\n"
        'first counterexample: {"index": [1, 0, 2], "k": 12}\n'
    )
    code, out, err = run(capsys, ["upsilon", "3", "10", "--check", check, "--json"])
    assert code == 5 and err == ""
    assert json.loads(out) == {
        "schema": "legcurve/upsilon/1",
        "n": 3,
        "m": 10,
        "check": check,
        "checked": 7,
        "pass": False,
        "counterexample": counterexample,
    }


@pytest.mark.parametrize("check", ["direct-vs-closed", "mu-derivative", "det-invariance"])
def test_upsilon_names_an_invalid_multiplicity(capsys, check):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["upsilon", "1", "5", "--check", check] + extra)
        assert (code, out) == (2, "")
        assert err == "error: multiplicity n must be an integer at least 2, got 1\n"


@pytest.mark.parametrize("check", ["direct-vs-closed", "mu-derivative", "det-invariance"])
def test_upsilon_rejects_n_2_naming_the_plane_conductor(capsys, check):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["upsilon", "2", "5", "--check", check] + extra)
        assert (code, out) == (2, "")
        assert err == (
            "error: the upsilon checks need n >= 3: for n = 2 the default cutoff, the plane "
            "conductor (n-1)(m-1) = 4, is below m = 5, so no coefficient a_s is left to expand\n"
        )


def test_det_invariance_rejects_a_cutoff_below_m_plus_2(monkeypatch):
    """No family fits below m + 2; the check must fail before drawing one,
    so a draw (which could never succeed) fails this test instead of hanging."""

    def no_draw(seed, trial):
        raise AssertionError("drew a family for a cutoff no family fits")

    monkeypatch.setattr(cli, "trial_rng", no_draw)
    with pytest.raises(ValidationError, match=r"cutoff of at least m \+ 2 = 6, got 5"):
        cli._check_det_invariance(ExpansionContext(3, 4, cutoff=5), 0)


def test_upsilon_pass_json_exits_0(capsys):
    code, out, _ = run(capsys, ["upsilon", "3", "10", "--check", "mu-derivative", "--json"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_generic_failure_exits_5(capsys, monkeypatch):
    argv = ["verify-generic", "3", "10", "--trials", "3", "--seed", "1"]
    _, passing, _ = run(capsys, argv)
    _, passing_json, _ = run(capsys, argv + ["--json"])
    calls = []

    def wrong_on_trial_1(curve):
        calls.append(curve)
        if len(calls) % 3 == 2:
            return NumericalSemigroup.from_gaps([1, 2])
        return cli.generic_semigroup_descent(3, 10)[0]

    monkeypatch.setattr(cli, "conormal_semigroup", wrong_on_trial_1)
    code, out, err = run(capsys, argv)
    assert code == 5 and err == ""
    lines = out.splitlines()
    assert lines[:2] == [passing.splitlines()[0], "pass: 2/3"]
    assert lines[2] == "trial 1 FAILED"
    assert lines[-2:] == ["  semigroup gaps: {1, 2}", "  expected gaps: {1, 2, 4, 5, 8}"]
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 5 and err == ""
    payload = json.loads(out)
    assert payload["passes"] == 2
    assert [f["trial"] for f in payload["failures"]] == [1]
    assert payload["failures"][0]["gaps"] == [1, 2]
    assert {k: v for k, v in payload.items() if k not in ("passes", "failures")} == {
        k: v for k, v in json.loads(passing_json).items() if k not in ("passes", "failures")
    }


def test_zero_denominator_in_a_document_exits_2(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 3, "terms": [{"e": 10, "c": "1/0"}], "precision": 18}))
    code, out, err = run(capsys, ["semigroup", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: terms[0].c: ") and "'1/0'" in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--range", "-5"], "spread must be non-negative"), (["--trials", "-1"], "--trials must be non-negative")],
)
def test_verify_generic_rejects_negative_arguments(capsys, flags, message):
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, ["verify-generic", "3", "10", *flags, *json_flag])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_verify_generic_accepts_zero_trials_and_range(capsys):
    code, out, _ = run(capsys, ["verify-generic", "3", "10", "--trials", "0"])
    assert code == 0 and out.splitlines()[1] == "pass: 0/0"
    # spread 0 leaves y = t^10, which is not generic: the check runs and fails
    code, out, _ = run(capsys, ["verify-generic", "3", "10", "--trials", "2", "--range", "0"])
    assert code == 5 and out.splitlines()[1] == "pass: 0/2"


def test_sampling_rejects_a_negative_spread():
    from legcurve.errors import ValidationError
    from legcurve.sampling import random_curve, random_germ, trial_rng

    with pytest.raises(ValidationError, match="spread"):
        random_curve(3, 10, trial_rng(0, 0), spread=-1)
    with pytest.raises(ValidationError, match="spread"):
        random_germ(3, 10, trial_rng(0, 0), 3, 20, spread=-1)
    assert random_curve(3, 10, trial_rng(0, 0), spread=0).coefficients == {10: 1}
