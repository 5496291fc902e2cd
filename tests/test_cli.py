"""End-to-end command line tests, run in-process through main()."""

import io
import json
from fractions import Fraction

import pytest

from legcurve import cli
from legcurve.cli import _join_expression_flags, main
from legcurve.curves import PlaneCurveGerm
from legcurve.documents import dump_curve
from legcurve.expansion import ExpansionContext
from legcurve.germs import monomials_in_valuation_range
from legcurve.sampling import random_curve, trial_rng
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


def test_a_curve_that_is_not_utf8_exits_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["semigroup", str(path)])
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: ")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    code, out, err = run(capsys, ["semigroup", "-"])
    assert (code, out) == (2, "") and err.startswith("error: cannot read -: ")


def test_a_curve_document_nested_too_deep_exits_2(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, ["semigroup", str(path)])
    assert (code, out) == (2, "") and err.startswith("error: document is not valid JSON: ")


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


def test_conormal_json(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 2}, 18)
    code, out, err = run(capsys, ["conormal", path, "--json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "schema": "legcurve/conormal/1",
        "n": 3,
        "terms": [{"e": 7, "c": "10/3"}, {"e": 8, "c": "22/3"}],
        "precision": 15,
    }


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


@pytest.mark.parametrize("alpha, beta0, order", [("xp", "x^3", 9), ("0", "x^2", 6)])
def test_transform_names_an_image_whose_y_order_is_a_multiple_of_n(capsys, tmp_path, alpha, beta0, order):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 2}, 20)
    code, out, err = run(capsys, ["transform", path, "--alpha", alpha, "--beta0", beta0])
    assert code == 2 and out == ""
    assert f"the image's y-series starts at t^{order}, a multiple of n = 3" in err
    assert "must be coprime" not in err and "Traceback" not in err


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


def test_normalize_table_of_a_short_form(capsys, tmp_path):
    path = curve_file(tmp_path, "c.json", 3, {10: 1, 11: 5}, 18)
    code, out, err = run(capsys, ["normalize", path])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "short form of the curve of type (3, 10)",
        "  t^10: 1",
        "  t^11: 5",
        "precision: 18",
        "y-unit applied first: 1",
        "reduction steps: none",
        "free exponents: {11}",
        "moduli coordinate a_11: 5",
    ]


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


@pytest.mark.parametrize("first_bad", [0, 3, 49])
def test_det_invariance_reports_the_first_mu_dependent_draw(monkeypatch, first_bad):
    ctx = ExpansionContext(3, 10)
    draws = []
    symbolic = ExpansionContext.family_determinant

    def from_draw_on(self, q, count, columns, rows=None):
        draws.append({"q": q, "count": count, "columns": columns})
        if len(draws) > first_bad:
            return self.mu() * self.coefficient_symbol(10)
        return symbolic(self, q, count, columns, rows)

    monkeypatch.setattr(ExpansionContext, "family_determinant", from_draw_on)
    assert cli._check_det_invariance(ctx, 0) == (first_bad, draws[first_bad])
    assert len(draws) == first_bad + 1


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


@pytest.mark.parametrize("check, checked", [("direct-vs-closed", 22), ("mu-derivative", 4), ("det-invariance", 50)])
def test_upsilon_passes_at_3_4_where_the_cutoff_is_m_plus_2(capsys, check, checked):
    # the plane conductor (n-1)(m-1) = 6 is the least cutoff any type with n >= 3 has
    code, out, _ = run(capsys, ["upsilon", "3", "4", "--check", check, "--json"])
    report = json.loads(out)
    assert (code, report["pass"], report["checked"]) == (0, True, checked)


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


# -- normalize stdout, byte for byte ------------------------------------------------
# Recorded output: a change to the arithmetic must leave every printed digit alone.

NORMALIZE_RANDOM_4_11 = (
    'short form of the curve of type (4, 11)\n'
    '  t^11: 1\n'
    '  t^13: -192083\n'
    'precision: 30\n'
    'y-unit applied first: 1\n'
    'reduction steps (order, added coefficient):\n'
    '  12: -770880\n'
    '  14: -589545\n'
    '  15: -866976\n'
    '  16: -267661780012\n'
    '  17: 275822863941\n'
    '  18: 334201785956461138/11\n'
    '  19: 38114461385872633933178760469/295167031112\n'
    '  20: 1540605713086535681026234/121\n'
    '  21: -239239942130685336442716658933/4225826\n'
    '  22: -30791097958311826462583575521885333/23242043\n'
    '  23: -218855450927996345856583341243554835069101479021/6860284829287441816\n'
    '  24: -11826848402759884778404038133032606328588/23242043\n'
    '  25: 17149729263681594367192155547218974585671835528/4464401345569\n'
    '  26: 436292365595330101147646542172481928897003120835721/8928802691138\n'
    '  27: 5395329585325352709454427286150875293044511372424734115784216014187/2551152559912742112759521408\n'
    '  28: 3686209233299518413676918693265596427505496920444109127949/196433659205036\n'
    '  29: -22527752298073830340860757714047514457838740661653063277795066895/75463133122161859976\n'
    'free exponents: {13}\n'
    'moduli coordinate a_13: -192083\n'
)
NORMALIZE_RANDOM_4_11_JSON = (
    '{\n'
    '  "schema": "legcurve/normalize/1",\n'
    '  "curve": {\n'
    '    "n": 4,\n'
    '    "terms": [\n'
    '      {\n'
    '        "e": 11,\n'
    '        "c": "1"\n'
    '      },\n'
    '      {\n'
    '        "e": 13,\n'
    '        "c": "-192083"\n'
    '      }\n'
    '    ],\n'
    '    "precision": 30\n'
    '  },\n'
    '  "unit": "1",\n'
    '  "steps": [\n'
    '    {\n'
    '      "order": 12,\n'
    '      "scale": "-770880"\n'
    '    },\n'
    '    {\n'
    '      "order": 14,\n'
    '      "scale": "-589545"\n'
    '    },\n'
    '    {\n'
    '      "order": 15,\n'
    '      "scale": "-866976"\n'
    '    },\n'
    '    {\n'
    '      "order": 16,\n'
    '      "scale": "-267661780012"\n'
    '    },\n'
    '    {\n'
    '      "order": 17,\n'
    '      "scale": "275822863941"\n'
    '    },\n'
    '    {\n'
    '      "order": 18,\n'
    '      "scale": "334201785956461138/11"\n'
    '    },\n'
    '    {\n'
    '      "order": 19,\n'
    '      "scale": "38114461385872633933178760469/295167031112"\n'
    '    },\n'
    '    {\n'
    '      "order": 20,\n'
    '      "scale": "1540605713086535681026234/121"\n'
    '    },\n'
    '    {\n'
    '      "order": 21,\n'
    '      "scale": "-239239942130685336442716658933/4225826"\n'
    '    },\n'
    '    {\n'
    '      "order": 22,\n'
    '      "scale": "-30791097958311826462583575521885333/23242043"\n'
    '    },\n'
    '    {\n'
    '      "order": 23,\n'
    '      "scale": "-218855450927996345856583341243554835069101479021/6860284829287441816"\n'
    '    },\n'
    '    {\n'
    '      "order": 24,\n'
    '      "scale": "-11826848402759884778404038133032606328588/23242043"\n'
    '    },\n'
    '    {\n'
    '      "order": 25,\n'
    '      "scale": "17149729263681594367192155547218974585671835528/4464401345569"\n'
    '    },\n'
    '    {\n'
    '      "order": 26,\n'
    '      "scale": "436292365595330101147646542172481928897003120835721/8928802691138"\n'
    '    },\n'
    '    {\n'
    '      "order": 27,\n'
    '      "scale": "5395329585325352709454427286150875293044511372424734115784216014187/2551152559912742112759521408"\n'
    '    },\n'
    '    {\n'
    '      "order": 28,\n'
    '      "scale": "3686209233299518413676918693265596427505496920444109127949/196433659205036"\n'
    '    },\n'
    '    {\n'
    '      "order": 29,\n'
    '      "scale": "-22527752298073830340860757714047514457838740661653063277795066895/75463133122161859976"\n'
    '    }\n'
    '  ],\n'
    '  "free": [\n'
    '    13\n'
    '  ],\n'
    '  "point": {\n'
    '    "13": "-192083"\n'
    '  }\n'
    '}\n'
)
NORMALIZE_COPRIME_3_10 = (
    'short form of the curve of type (3, 10)\n'
    '  t^10: 1\n'
    '  t^11: 14/11\n'
    'precision: 18\n'
    'y-unit applied first: 7\n'
    'reduction steps (order, added coefficient):\n'
    '  13: 21/13\n'
    '  14: -10003/2431\n'
    '  15: 140042/12155\n'
    '  16: 154707609/15011425\n'
    '  17: -57823324573/3797890525\n'
    'free exponents: {11}\n'
    'moduli coordinate a_11: 14/11\n'
)
NORMALIZE_COPRIME_3_10_JSON = (
    '{\n'
    '  "schema": "legcurve/normalize/1",\n'
    '  "curve": {\n'
    '    "n": 3,\n'
    '    "terms": [\n'
    '      {\n'
    '        "e": 10,\n'
    '        "c": "1"\n'
    '      },\n'
    '      {\n'
    '        "e": 11,\n'
    '        "c": "14/11"\n'
    '      }\n'
    '    ],\n'
    '    "precision": 18\n'
    '  },\n'
    '  "unit": "7",\n'
    '  "steps": [\n'
    '    {\n'
    '      "order": 13,\n'
    '      "scale": "21/13"\n'
    '    },\n'
    '    {\n'
    '      "order": 14,\n'
    '      "scale": "-10003/2431"\n'
    '    },\n'
    '    {\n'
    '      "order": 15,\n'
    '      "scale": "140042/12155"\n'
    '    },\n'
    '    {\n'
    '      "order": 16,\n'
    '      "scale": "154707609/15011425"\n'
    '    },\n'
    '    {\n'
    '      "order": 17,\n'
    '      "scale": "-57823324573/3797890525"\n'
    '    }\n'
    '  ],\n'
    '  "free": [\n'
    '    11\n'
    '  ],\n'
    '  "point": {\n'
    '    "11": "14/11"\n'
    '  }\n'
    '}\n'
)


PINNED_CURVES = {
    "random-4-11": lambda: random_curve(4, 11, trial_rng(0, 0)),
    # pairwise coprime denominators, so the stored forms carry their lcm
    "coprime-3-10": lambda: PlaneCurveGerm(
        3,
        {10: Fraction(1, 7), 11: Fraction(2, 11), 13: Fraction(-3, 13), 14: Fraction(5, 17),
         16: Fraction(1, 19), 17: Fraction(-4, 23), 20: Fraction(6, 29)},
        22,
    ),
}


@pytest.mark.parametrize(
    ("curve", "flags", "expected"),
    [
        ("random-4-11", [], NORMALIZE_RANDOM_4_11),
        ("random-4-11", ["--json"], NORMALIZE_RANDOM_4_11_JSON),
        ("coprime-3-10", [], NORMALIZE_COPRIME_3_10),
        ("coprime-3-10", ["--json"], NORMALIZE_COPRIME_3_10_JSON),
    ],
    ids=["random-4-11", "random-4-11-json", "coprime-3-10", "coprime-3-10-json"],
)
def test_normalize_stdout_is_pinned(capsys, tmp_path, curve, flags, expected):
    path = tmp_path / "c.json"
    path.write_text(dump_curve(PINNED_CURVES[curve]()))
    assert run(capsys, ["normalize", str(path), *flags]) == (0, expected, "")


def test_direct_vs_closed_reports_the_first_entry_whose_forms_differ(capsys, monkeypatch):
    # the entries run over the sorted indices of valuation below 18, by k in [10, 18)
    visits = [(index, k) for index in sorted(monomials_in_valuation_range(3, 10, 0, 18)) for k in range(10, 18)]
    bad_index, bad_k = visits[11]
    closed_form = ExpansionContext.entry_closed_form

    def one_entry_off(self, index, k):
        value = closed_form(self, index, k)
        return value + 1 if (index, k) == (bad_index, bad_k) else value

    monkeypatch.setattr(ExpansionContext, "entry_closed_form", one_entry_off)
    counterexample = {"index": list(bad_index), "k": bad_k}
    assert cli._check_direct_vs_closed(ExpansionContext(3, 10)) == (11, counterexample)
    code, out, err = run(capsys, ["upsilon", "3", "10", "--check", "direct-vs-closed", "--json"])
    assert code == 5 and err == ""
    assert json.loads(out)["checked"] == 11 and json.loads(out)["counterexample"] == counterexample
