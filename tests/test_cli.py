import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_readme import readme_commands

from szegolab.cli import main
from szegolab.embedding import ARGMIN_RTOL, IMMERSION_FLOOR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_csv(capsys):
    code, out, _ = run_cli(capsys, "dims", "--preset", "sphere", "--n", "2", "--m", "0..10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,d_m"
    for line in lines[1:]:
        m, d = map(int, line.split(","))
        assert d == m + 1


def test_norms_table(capsys):
    code, out, _ = run_cli(capsys, "norms", "--preset", "sphere", "--n", "2", "--m", "0..1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,alpha,rational,pi_power,value"
    first = lines[1].split(",")
    assert first[2] == "2" and first[3] == "2"  # volume 2 pi^2


def test_fit_contract_passes(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--preset", "sphere", "--n", "2", "--m", "20..60", "--point", "1,0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["results"]["relative_error"] <= 0.01
    assert report["results"]["predicted"] == pytest.approx(1 / (2 * math.pi**2))
    assert "config_hash" in report and "manifold_hash" in report
    assert "warnings" not in report


def test_fit_contract_failure_exits_one(capsys):
    code, out, err = run_cli(
        capsys,
        "fit", "--weights", "1,2", "--point", "0,1", "--m", "20..40",
        "--samples", "20000", "--tolerance", "fit=1e-9",
    )
    assert code == 1
    assert "CONTRACT FAILED" in err
    assert "leading-coefficient" in err


def test_vanish_certificate(capsys):
    code, out, _ = run_cli(capsys, "vanish", "--weights", "1,2", "--point", "0,1", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["max_abs_value"] == 0.0
    assert report["results"]["stratum_order"] == 2


@pytest.mark.parametrize("measure, used", [("auto", "round-exact"),
                                           ("compliant-quadrature", "compliant-quadrature")])
def test_vanish_measure(capsys, monkeypatch, measure, used):
    from szegolab import basis

    measures = []
    grams = basis.gram_matrices

    def recording_grams(level_indices, *args, **kwargs):
        measures.extend(kwargs["measure"] for _ in level_indices)
        return grams(level_indices, *args, **kwargs)

    monkeypatch.setattr(basis, "gram_matrices", recording_grams)
    code, out, _ = run_cli(capsys, "vanish", "--weights", "1,2", "--point", "0,1", "--m", "3",
                           "--measure", measure, "--samples", "20000")
    assert code == 0
    assert measures == [used]
    assert json.loads(out)["results"]["max_abs_value"] == 0.0


def test_vanish_on_example2_draws_no_gram_samples(capsys, monkeypatch):
    from szegolab import basis, integrate

    def refuse(*args, **kwargs):
        raise AssertionError("Gram samples drawn")

    for module in (basis, integrate):
        monkeypatch.setattr(module, "hypersurface_blocks", refuse)
    # the z_3 axis of example2, stabilizer order 6
    code, out, _ = run_cli(capsys, "vanish", "--preset", "example2",
                           "--point", "0,0,0.8260313576541872", "--m", "1..11")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["stratum_order"] == 6
    assert results["levels"] == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]
    assert results["max_abs_value"] == 0.0


def test_vanish_rejects_divisible_levels(capsys):
    code, _, err = run_cli(capsys, "vanish", "--weights", "1,2", "--point", "0,1", "--m", "4")
    assert code == 2
    assert "configuration error" in err


def test_project_polynomial(capsys, tmp_path):
    func = tmp_path / "func.json"
    func.write_text(
        json.dumps(
            [
                {"coeff": "1", "z_exponents": [1, 0], "zbar_exponents": [0, 0]},
                {"coeff": "1", "z_exponents": [0, 2], "zbar_exponents": [1, 0]},
            ]
        )
    )
    # z1 + zbar1 z2^2 under weights (1, 2): orbit degrees 1 and 3
    code, out, _ = run_cli(
        capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
        "--m", "0..4", "--function", str(func),
    )
    assert code == 0
    rows = {int(r.split(",")[0]): complex(float(r.split(",")[1]), float(r.split(",")[2]))
            for r in out.strip().splitlines()[1:]}
    assert abs(rows[1] - 0.6) < 1e-12
    assert abs(rows[3] - 0.6 * 0.8**2) < 1e-12
    assert abs(rows[0]) < 1e-12 and abs(rows[2]) < 1e-12 and abs(rows[4]) < 1e-12


def test_project_evaluates_the_function_once(capsys, tmp_path, monkeypatch):
    import szegolab.cli as cli

    func = tmp_path / "func.json"
    func.write_text(json.dumps([{"coeff": "1", "z_exponents": [1, 0], "zbar_exponents": [0, 1]}]))
    calls = []
    products = cli.monomial_products
    monkeypatch.setattr(cli, "monomial_products", lambda *a: calls.append(1) or products(*a))
    code, out, _ = run_cli(capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
                           "--m", "0..40", "--function", str(func))
    assert code == 0
    assert len(calls) == 1
    assert len(out.strip().splitlines()) == 42


def test_project_report_records_the_function(capsys, tmp_path):
    # the --function path is configuration, as --manifold's is: two files
    # give two config hashes
    hashes = set()
    for name, z_exponents in (("u.json", [1, 0]), ("v.json", [0, 1])):
        func = tmp_path / name
        func.write_text(json.dumps([{"coeff": "1", "z_exponents": z_exponents,
                                     "zbar_exponents": [0, 0]}]))
        code, _, _ = run_cli(capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
                             "--m", "0..2", "--function", str(func), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "project.json").read_text())
        assert report["config"]["function"] == str(func)
        hashes.add(report["config_hash"])
    assert len(hashes) == 2


@pytest.mark.parametrize("z_exponents", [[1, 0, 0], [0, 0, 1], [1], [-1, 0], [1.5, 0], 5,
                                         [1.0, 0], [True, 0]])
def test_project_rejects_malformed_function(capsys, tmp_path, z_exponents):
    func = tmp_path / "func.json"
    func.write_text(json.dumps([{"coeff": "1", "z_exponents": z_exponents, "zbar_exponents": [0, 0]}]))
    code, _, err = run_cli(
        capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
        "--m", "0..2", "--function", str(func),
    )
    assert code == 2
    assert "configuration error" in err
    # rho's exponent rule, which names both lists
    assert f"z_exponents {z_exponents!r} and zbar_exponents [0, 0] must each be 2 integers" in err


def _sphere12_spec_without(key=None, term_key=None):
    from szegolab.geometry import Manifold

    spec = Manifold.sphere(2, (1, 2)).to_spec()
    spec.pop(key, None)
    if term_key is not None:
        del spec["rho"][0][term_key]
    return spec


@pytest.mark.parametrize(
    "command, payload, missing",
    [
        ("project", [{"coeff": "1", "z_exponents": [1, 0]}], "zbar_exponents"),
        ("project", [{"coeff": "1", "zbar_exponents": [0, 0]}], "z_exponents"),
        ("project", {"polynomial": []}, "dict"),
        ("dims", _sphere12_spec_without("rho"), "rho"),
        ("dims", _sphere12_spec_without("weights"), "weights"),
        ("dims", _sphere12_spec_without(term_key="z_exponents"), "z_exponents"),
        ("dims", _sphere12_spec_without(term_key="coeff"), "coeff"),
    ],
    ids=["function-term-zbar", "function-term-z", "function-terms", "spec-rho", "spec-weights",
         "spec-term-z", "spec-term-coeff"],
)
def test_missing_json_key_is_config_error(capsys, tmp_path, command, payload, missing):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "project":
        argv = ["project", "--weights", "1,2", "--point", "0.6,0.8", "--m", "0..2",
                "--function", str(path)]
    else:
        argv = ["dims", "--manifold", str(path), "--m", "4"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "configuration error" in err
    assert repr(missing) in err
    # a --function error names the option
    assert command != "project" or "--function" in err


def test_embed_certificate(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, "embed", "--weights", "1,2", "--m", "4", "--m0", "3",
        "--pairs", "600", "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    r = report["results"]
    assert r["levels"] == [4, 5, 8, 10]
    assert r["N"] == 17
    assert r["min_weight"] == 4
    assert r["immersion_floor"] > 1e-6
    assert "immersion_failures" not in r
    assert r["violations"] == []
    assert (out_dir / "embed.json").exists()
    csv = (out_dir / "embed.csv").read_text()
    assert csv.startswith("sample,label,")
    # the floor is the least sigma of the CSV rows, and its detail names the
    # first row within ARGMIN_RTOL of it
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert min(float(row[4]) for row in rows) == r["immersion_floor"]
    sample, label, order, _, _ = next(
        row for row in rows if float(row[4]) <= r["immersion_floor"] * (1 + ARGMIN_RTOL)
    )
    (floor,) = [c for c in report["contracts"] if c["name"] == "immersion-floor"]
    assert floor["detail"] == (
        f"min singular value {r['immersion_floor']:.3e} at sample {sample} "
        f"({label}, stratum order {order})"
    )


def test_failing_immersion_names_every_sample_at_the_floor(capsys, tmp_path):
    # at m = 3 no example2 level is 1 mod 6, so the map drops rank on the
    # order-6 stratum, the z_3 axis
    code, out, err = run_cli(
        capsys, "embed", "--preset", "example2", "--m", "3", "--pairs", "60",
        "--samples", "12500", "--immersion-samples", "30", "--out", str(tmp_path),
    )
    assert code == 1
    assert "CONTRACT FAILED: immersion-floor" in err
    failures = json.loads(out)["results"]["immersion_failures"]
    rows = [line.split(",") for line in (tmp_path / "embed.csv").read_text().splitlines()[1:]]
    at_floor = [row for row in rows if float(row[4]) <= IMMERSION_FLOOR]
    assert [(f["index"], f["label"], f["stratum_order"]) for f in failures] == [
        (int(row[0]), row[1], int(row[2])) for row in at_floor
    ]
    for f in failures:
        assert f["stratum_order"] == 6
        assert [math.hypot(re, im) > 0 for re, im in f["point"]] == [False, False, True]


def test_normalized_weights_are_reported(capsys):
    with pytest.warns(UserWarning, match="common factor 2"):
        code, out, _ = run_cli(capsys, "kernel", "--weights", "2,4", "--point", "0,1", "--m", "2..4")
    assert code == 0
    assert json.loads(out)["warnings"] == ["weights had common factor 2; normalized to (1, 2)"]


def test_embed_extra_levels(capsys):
    code, out, _ = run_cli(
        capsys, "embed", "--weights", "1,2", "--m", "4", "--extra-levels", "7",
        "--pairs", "300", "--immersion-samples", "20",
    )
    assert code == 0
    assert json.loads(out)["results"]["levels"] == [4, 5, 7, 8, 10]


def test_embed_with_only_m0_takes_base_level_m0_plus_one(capsys):
    code, out, _ = run_cli(
        capsys, "embed", "--weights", "1,2", "--m0", "3",
        "--pairs", "300", "--immersion-samples", "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["base_level"] == 4
    assert report["results"]["levels"] == [4, 5, 8, 10]
    (bound,) = [c for c in report["contracts"] if c["name"] == "minimal-weight"]
    assert bound["passed"] and bound["detail"] == "min weight 4 vs bound 3"


def test_ratio_search_cli(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "--weights", "1,2", "--point", "0,1", "--m", "30",
        "--radii", "0.1", "--points", "15", "--samples", "60000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["passing_m"] == 30


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--points", "0", "points_per_ball must be >= 1"),
        ("--radii", "0.1,0", "every radius must be > 0"),
        # neither bounds a ball: each would run every ball round and fail there
        ("--radii", "nan", "every radius must be > 0 and finite, got [nan]"),
        ("--radii", "0.1,inf", "every radius must be > 0 and finite, got [0.1, inf]"),
    ],
    ids=["no-points", "zero-radius", "nan-radius", "inf-radius"],
)
def test_ratio_rejects_a_ball_that_holds_no_evidence(capsys, option, value, message):
    # an empty ball scores 0 and a zero radius holds only copies of x0: both would pass
    code, out, err = run_cli(capsys, "ratio", "--weights", "1,2", "--point", "0,1",
                             "--m", "30", option, value)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["ratio", "vanish"])
@pytest.mark.parametrize("levels", [",", "5..3"])
def test_empty_level_list_exits_two(capsys, command, levels):
    code, out, err = run_cli(capsys, command, "--weights", "1,2", "--point", "0,1", "--m", levels)
    assert code == 2
    assert out == ""
    assert "configuration error: " in err and repr(levels) in err


def test_kernel_values(capsys):
    code, out, _ = run_cli(
        capsys, "kernel", "--preset", "sphere", "--n", "2", "--m", "3..5",
        "--point", "1,0", "--point2", "0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"]


@pytest.mark.parametrize(
    "weights, point, m, message",
    [
        ("1,2000000", "1,0", "2000000", "1000009 nodes per axis"),
        ("1,400,400,400", "1,0,0,0", "400", "9261000 in all"),
    ],
    ids=["axis", "total"],
)
def test_kernel_on_a_rule_too_large_to_build_exits_two(capsys, weights, point, m, message):
    # the simplex rule is refused before its dense Jacobi matrix or nodes are allocated
    code, out, err = run_cli(capsys, "kernel", "--weights", weights, "--point", point, "--m", m)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: the simplex rule of degree") and message in err


def test_kernel_without_point2_reports_the_diagonal(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "kernel", "--preset", "sphere", "--n", "2", "--m", "3..5",
        "--point", "0.6,0.8", "--out", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "kernel.csv").read_text().splitlines()
    assert rows[0] == "m,re,im,diag_x"
    assert len(rows) == 4
    for row in rows[1:]:
        _, re, im, diag = row.split(",")
        assert re == diag and float(im) == 0.0


def test_manifold_json_input(capsys, tmp_path):
    from szegolab.geometry import Manifold

    spec = tmp_path / "m.json"
    spec.write_text(json.dumps(Manifold.sphere(2, (1, 2)).to_spec()))
    code, out, _ = run_cli(capsys, "dims", "--manifold", str(spec), "--m", "4")
    assert code == 0
    assert out.strip().splitlines()[1] == "4,3"


def test_empty_weight_list_exits_two(capsys, tmp_path):
    spec = _sphere12_spec_without()
    spec["weights"] = []
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dims", "--manifold", str(path), "--m", "4")
    assert code == 2
    assert out == ""
    assert "configuration error: empty weight vector" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("weights", 5, "manifold spec 'weights' must be a JSON list, got 'int'"),
        ("rho", {"coeff": "1"}, "manifold spec 'rho' must be a JSON list, got 'dict'"),
        ("rho", [1], "rho term 1 must be a JSON object, got 'int'"),
        # nothing is coerced: a float was truncated, and a list or a number crashed
        ("n", [2], "manifold spec 'n' must be a JSON integer, got 'list'"),
        ("n", 2.0, "manifold spec 'n' must be a JSON integer, got 'float'"),
        ("weights", [1.5, 2], "weights must be positive integers, got (1.5, 2)"),
        ("weights", [True, 2], "weights must be positive integers, got (True, 2)"),
        ("weights", [[1], 2], "weights must be positive integers, got ([1], 2)"),
        ("rho", [{"coeff": "-1", "z_exponents": [1.5, 0], "zbar_exponents": [0, 0]}],
         "z_exponents [1.5, 0] and zbar_exponents [0, 0] must each be 2 integers >= 0"),
        ("rho", [{"coeff": "-1", "z_exponents": 5, "zbar_exponents": [0, 0]}],
         "z_exponents 5 and zbar_exponents [0, 0] must each be 2 integers >= 0"),
        # a zero denominator ended in a ZeroDivisionError traceback, and n = 0
        # in a numpy reshape error that named no key
        ("rho", [{"coeff": "1/0", "z_exponents": [0, 0], "zbar_exponents": [0, 0]}],
         "rho term {'coeff': '1/0', 'z_exponents': [0, 0], 'zbar_exponents': [0, 0]}: "
         "coeff '1/0' is not a rational number"),
        ("n", 0, "ambient dimension n must be >= 2, got 0"),
    ],
    ids=["weights-number", "rho-object", "rho-term-number", "n-list", "n-float", "weight-float",
         "weight-bool", "weight-list", "exponent-float", "exponents-number",
         "coeff-zero-denominator", "n-zero"],
)
def test_spec_of_the_wrong_shape_exits_two(capsys, tmp_path, field, value, message):
    spec = _sphere12_spec_without()
    spec[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dims", "--manifold", str(path), "--m", "4")
    assert (code, out) == (2, "")
    assert f"configuration error: {message}" in err


def test_spec_that_is_not_an_object_exits_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([_sphere12_spec_without()]))
    code, _, err = run_cli(capsys, "dims", "--manifold", str(path), "--m", "4")
    assert code == 2
    assert "configuration error: manifold spec must be a JSON object, got 'list'" in err


def test_function_term_that_is_not_an_object_exits_two(capsys, tmp_path):
    func = tmp_path / "func.json"
    func.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
                           "--m", "0..2", "--function", str(func))
    assert code == 2
    assert "configuration error: --function term 1 must be a JSON object, got 'int'" in err


def test_invalid_weights_are_reported_as_given(capsys, tmp_path):
    spec = _sphere12_spec_without()
    spec["weights"] = [-2, 4]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "dims", "--manifold", str(path), "--m", "4")
    assert code == 2
    assert "configuration error: weights must be positive integers, got (-2, 4)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--point", "nan,1", "--m", "2..4"],
        ["kernel", "--point", "inf,1", "--m", "2..4"],
        ["kernel", "--point", "0,1", "--point2", "1,nan", "--m", "2..4"],
        ["vanish", "--point", "0,nan", "--m", "3"],
    ],
    ids=["kernel-nan", "kernel-inf", "kernel-point2-nan", "vanish-nan"],
)
def test_point_with_a_non_finite_coordinate_is_off_x(capsys, argv):
    # rho is nan there, and nan > tolerance is False: such a point passed as on X
    code, out, err = run_cli(capsys, *argv, "--weights", "1,2")
    assert (code, out) == (2, "")
    assert "configuration error: |rho(x)| = nan exceeds tolerance" in err


@pytest.mark.parametrize("option", ["--manifold", "--function", "--out"])
def test_path_that_cannot_be_read_or_written_exits_two(capsys, tmp_path, option):
    # a directory read as a file, or an existing file taken as the --out directory
    func = tmp_path / "func.json"
    func.write_text(json.dumps([{"coeff": "1", "z_exponents": [1, 0], "zbar_exponents": [0, 0]}]))
    path = str(func if option == "--out" else tmp_path)
    code, out, err = run_cli(capsys, "project", "--weights", "1,2", "--point", "0.6,0.8",
                             "--m", "0..2", "--function", str(func), option, path)
    assert (code, out) == (2, "")
    assert "configuration error: [Errno" in err and repr(path) in err


def test_spec_kind_disagreeing_with_rho_exits_two(capsys, tmp_path):
    from szegolab.geometry import Manifold

    # 2|z1|^2 + |z2|^2 = 1 labelled a sphere would take the exact sphere norms
    spec = Manifold.sphere(2, (1, 2)).to_spec()
    spec["rho"][0]["coeff"] = "2"
    path = tmp_path / "ellipsoid.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "fit", "--manifold", str(path), "--point", "0,1",
                           "--m", "10..20")
    assert code == 2
    assert "configuration error" in err and "kind 'sphere'" in err


# |z|^2 - 1 under weights (1, 2), plus a non-invariant term or with rho(0) > 0
SPHERE12_RHO = [
    {"coeff": c, "z_exponents": list(e), "zbar_exponents": list(e)}
    for c, e in (("-1", (0, 0)), ("1", (1, 0)), ("1", (0, 1)))
]
MIXED_TERMS = [
    {"coeff": "1", "z_exponents": a, "zbar_exponents": b}
    for a, b in (([1, 0], [0, 1]), ([0, 1], [1, 0]))
]


@pytest.mark.parametrize(
    "rho, argv, message",
    [
        (SPHERE12_RHO + MIXED_TERMS, ["dims", "--m", "3"],
         "rho is not invariant: term z^(0, 1) zbar^(1, 0) has weighted bidegree (2, 1)"),
        ([{**SPHERE12_RHO[0], "coeff": "1"}] + SPHERE12_RHO[1:], ["fit", "--m", "20..30"],
         "rho(0) >= 0: surface is not star-shaped about 0"),
    ],
    ids=["non-invariant-term", "not-star-shaped"],
)
def test_spec_rho_errors_exit_two(capsys, tmp_path, rho, argv, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 2, "weights": [1, 2], "rho": rho}))
    code, _, err = run_cli(capsys, *argv, "--manifold", str(path))
    assert code == 2
    assert f"configuration error: {message}" in err


def test_unknown_tolerance_exits_two(capsys):
    code, _, err = run_cli(capsys, "fit", "--weights", "1,2", "--point", "0,1",
                           "--m", "20..22", "--tolerance", "fitt=0.1")
    assert code == 2
    assert "unknown tolerance 'fitt'" in err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_non_negative(capsys, value):
    # nan and -1 would fail the fit's contract and inf would switch it off:
    # each is a configuration error instead
    code, _, err = run_cli(capsys, "fit", "--weights", "1,2", "--point", "0,1",
                           "--m", "20..30", "--tolerance", f"fit={value}")
    assert code == 2
    assert f"tolerance fit must be finite and >= 0, got '{value}'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--preset", "sphere", "--n", "2", "--m", "3", "--seed", "1"],
        ["norms", "--preset", "sphere", "--n", "2", "--m", "3", "--samples", "10"],
        ["project", "--weights", "1,2", "--point", "0.6,0.8", "--m", "0", "--function", "f.json",
         "--measure", "round-exact"],
        ["kernel", "--preset", "sphere", "--n", "2", "--m", "3", "--point", "1,0",
         "--tolerance", "fit=0.1"],
        ["embed", "--weights", "1,2", "--m", "4", "--tolerance", "fit=0.1"],
    ],
    ids=["dims-seed", "norms-samples", "project-measure", "kernel-tolerance", "embed-tolerance"],
)
def test_option_the_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--weights", "1,2", "--point", "0,1", "--m", "20..22", "--tolerance", "fit=abc"],
         "cannot parse --tolerance 'fit=abc'"),
        (["dims", "--weights", "1,x", "--m", "3"], "cannot parse --weights '1,x'"),
        (["dims", "--weights", "1,2", "--m", "a..4"], "cannot parse --m 'a..4'"),
        (["dims", "--weights", "1,2", "--m", "3,b"], "cannot parse --m '3,b'"),
        (["embed", "--weights", "1,2", "--m", "4", "--extra-levels", "x"],
         "cannot parse --extra-levels 'x'"),
        (["ratio", "--weights", "1,2", "--point", "0,1", "--m", "30", "--radii", "0.1,x"],
         "cannot parse --radii '0.1,x'"),
        (["vanish", "--weights", "1,2", "--point", "0,y", "--m", "3"], "cannot parse --point '0,y'"),
        (["kernel", "--weights", "1,2", "--point", "0,1", "--point2", "x,1", "--m", "3"],
         "cannot parse --point2 'x,1'"),
    ],
    ids=["tolerance", "weights", "level-range", "level-list", "extra-levels", "radii", "point",
         "point2"],
)
def test_unparsable_number_names_its_option(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"configuration error: {message}" in err


def test_config_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "fit", "--m", "20..60")
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("levels", ["20,40,60", "30,20", "20,22"])
def test_fit_levels_that_are_not_a_range_exit_two(capsys, levels):
    # fit takes the whole range from the first level to the last: a list with
    # gaps would have its report's levels disagree with its config
    code, out, err = run_cli(capsys, "fit", "--weights", "1,2", "--point", "0,1", "--m", levels,
                             "--samples", "2000")
    assert (code, out) == (2, "")
    assert f"--m must be a..b, got {levels!r}" in err


@pytest.mark.parametrize("n", [0, -1, 1])
@pytest.mark.parametrize("source", [["--preset", "sphere"], ["--weights", "1,2"]], ids=["preset", "weights"])
def test_ambient_dimension_below_two_exits_two(capsys, source, n):
    # --n 0 once gave way to the weights' length, and a negative n reached the
    # exponent check; the dimension is now checked before any exponent is built
    code, out, err = run_cli(capsys, "dims", *source, "--n", str(n), "--m", "2")
    assert (code, out) == (2, "")
    assert f"configuration error: ambient dimension n must be >= 2, got {n}" in err


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (["--preset", "example2", "--weights", "1,2", "--n", "5"], "--n and --weights"),
        (["--preset", "example2", "--n", "3"], "--n"),
        (["--manifold", "spec.json", "--preset", "sphere"], "--preset"),
        (["--manifold", "spec.json", "--weights", "1,2", "--n", "2"], "--n and --weights"),
    ],
    ids=["example2-n-weights", "example2-n", "manifold-preset", "manifold-n-weights"],
)
def test_options_the_manifold_source_would_ignore_exit_two(capsys, monkeypatch, tmp_path,
                                                            argv, ignored):
    from szegolab.geometry import Manifold

    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(Manifold.sphere(2, (1, 2)).to_spec()))
    code, out, err = run_cli(capsys, "dims", "--m", "0..3", *argv)
    assert (code, out) == (2, "")
    source = "--manifold" if "--manifold" in argv else "--preset example2"
    assert f"configuration error: {source} fixes the manifold, so {ignored} would be ignored" in err


def test_reports_byte_identical(capsys, tmp_path):
    args = ["fit", "--weights", "1,2", "--point", "0,1", "--m", "20..32",
            "--samples", "20000", "--seed", "5", "--tolerance", "fit=0.5"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    code1, out1, _ = run_cli(capsys, *args, "--out", str(d1))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(d2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert (d1 / "fit.json").read_bytes().replace(str(d1).encode(), b"") == (
        d2 / "fit.json"
    ).read_bytes().replace(str(d2).encode(), b"")
    assert (d1 / "fit.csv").read_bytes() == (d2 / "fit.csv").read_bytes()


def test_csv_text_is_built_only_where_it_is_written(capsys, tmp_path, monkeypatch):
    import szegolab.cli as cli

    writers = []
    real_writer = cli.csv.writer
    monkeypatch.setattr(cli.csv, "writer", lambda *a, **k: writers.append(1) or real_writer(*a, **k))
    sphere = ["--preset", "sphere", "--n", "2", "--m", "3..5"]
    kernel = ["kernel", *sphere, "--point", "0.6,0.8"]
    for argv, built in ((kernel, 0), (kernel + ["--out", str(tmp_path)], 1), (["dims", *sphere], 1)):
        writers.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out and len(writers) == built


def test_embed_certifies_strata_once(capsys, monkeypatch):
    from szegolab.geometry import Manifold

    calls = []
    strata_orders = Manifold.strata_orders

    def counting_strata_orders(self):
        calls.append(self)
        return strata_orders(self)

    monkeypatch.setattr(Manifold, "strata_orders", counting_strata_orders)
    code, out, _ = run_cli(
        capsys, "embed", "--preset", "example2", "--m", "4", "--pairs", "12",
        "--samples", "4000", "--immersion-samples", "6", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["results"]["violations"] == []
    assert len(calls) == 1


def test_embed_makes_two_root_calls_once_strata_are_certified(capsys, monkeypatch):
    # the immersion certificate's point set and the separation certificate's
    # four are solved in one lockstep: two radial_roots calls, at any count
    import szegolab.integrate as integrate
    from szegolab.geometry import Manifold

    M = Manifold.invariant_hypersurface_example()
    M.strata
    monkeypatch.setattr(Manifold, "invariant_hypersurface_example", classmethod(lambda cls: M))
    calls = []
    radial_roots = integrate.radial_roots

    def counting(M, U):
        calls.append(len(U))
        return radial_roots(M, U)

    monkeypatch.setattr(integrate, "radial_roots", counting)
    code, _, _ = run_cli(
        capsys, "embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "60",
        "--immersion-samples", "30",
    )
    assert code == 0
    assert len(calls) == 2, calls


def test_embed_report_does_not_depend_on_samples(capsys):
    # embed whitens by the closed-form diagonal under auto: --samples is unread
    reports = []
    for samples in ("1000", "12500"):
        code, out, _ = run_cli(
            capsys, "embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "60",
            "--immersion-samples", "30", "--samples", samples,
        )
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["contracts"] == reports[1]["contracts"]


# the benchmark's embed campaign, without --seed
BENCH_EMBED = ("embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "60",
               "--samples", "12500", "--immersion-samples", "30")


@pytest.fixture
def philox_keys(monkeypatch):
    """(module, key) of every Philox bit generator made, in order."""
    import sys

    import numpy as np

    made = []
    Philox = np.random.Philox

    def recording(*args, **kwargs):
        bit_generator = Philox(*args, **kwargs)
        key = tuple(bit_generator.state["state"]["key"].tolist())
        made.append((sys._getframe(1).f_globals["__name__"], key))
        return bit_generator

    monkeypatch.setattr(np.random, "Philox", recording)
    return made


def _philox_key(seed, *spawn_key):
    """The Philox key of the stream with this spawn key under seed."""
    import numpy as np

    bit_generator = np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key))
    return tuple(bit_generator.state["state"]["key"].tolist())


def test_embed_campaign_draws_each_point_family_once(capsys, monkeypatch, philox_keys):
    # a timing-free guard on the benchmark's campaign: one point plan per
    # certificate, solved together in two radial_roots calls, checked by one
    # gradient pass and one rho pass each (the nested jobs these plans replaced
    # made 2 calls on 136 rays, 5 rho passes, 4 gradient passes and 15 generators)
    import collections

    import szegolab.integrate as integrate
    from szegolab.geometry import DefiningPolynomial, Manifold

    calls, rays = collections.Counter(), []
    radial_roots = integrate.radial_roots

    def counting_roots(M, U):
        rays.append(len(U))
        return radial_roots(M, U)

    monkeypatch.setattr(integrate, "radial_roots", counting_roots)
    strata_orders, strata_keys = Manifold.strata_orders, []

    def recording_strata(M):
        made = len(philox_keys)
        out = strata_orders(M)
        strata_keys.append(philox_keys[made:])  # the generators this call built
        return out

    monkeypatch.setattr(Manifold, "strata_orders", recording_strata)
    for name in ("value", "z_gradient"):
        def counting(self, *args, _fn=getattr(DefiningPolynomial, name), _name=name):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(DefiningPolynomial, name, counting)
    code, _, _ = run_cli(capsys, *BENCH_EMBED, "--seed", "0")
    assert code == 0
    assert len(rays) == 2 and sum(rays) == 124, rays
    assert calls == {"value": 2, "z_gradient": 2}
    # the strata of the fresh manifold are certified once, and build no
    # generator: their witness rays are fixed
    assert strata_keys == [[]]
    assert len(philox_keys) <= 5


@pytest.mark.parametrize("argv, searched", [
    ((*BENCH_EMBED, "--seed", "0"), []),
    ((*BENCH_EMBED, "--seed", "1"), []),
    (("embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "2000", "--seed", "0"), [21]),
    (("embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "2000", "--seed", "1"), [24]),
])
def test_embed_campaign_searches_only_the_pairs_its_bounds_leave_open(capsys, monkeypatch, argv, searched):
    # a timing-free guard: the exact orbit-distance bounds decide every
    # benchmark pair, and all but 21 (24) of 2,000 pairs at seed 0 (1);
    # no pair violates, so only those reach the orbit search
    from szegolab.geometry import Manifold

    rows, search = [], Manifold.orbit_distance_batch
    monkeypatch.setattr(Manifold, "orbit_distance_batch",
                        lambda M, X, Y: rows.append(len(X)) or search(M, X, Y))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]["violations"] == []
    assert rows == searched


# run in a fresh process: main once, with the allocator setting or with it
# replaced by a no-op, printing the minor page faults that main took
ONE_SHOT_FAULTS = """
import contextlib, io, resource, sys
from szegolab import cli

if sys.argv[1] == "off":
    cli._keep_freed_heap = lambda: None
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[2:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_the_allocator_setting_spares_a_one_shot_embed_most_page_faults():
    # README's 10,000-pair embed, one campaign per process as the command
    # runs it: about 4,100 minor faults with cli.main's mallopt setting and
    # 17,900 without, on glibc 2.36
    import ctypes
    import os
    import subprocess
    import sys

    pytest.importorskip("resource")
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("this libc has no mallopt")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    faults = {}
    for side in ("on", "off"):
        run = subprocess.run([sys.executable, "-c", ONE_SHOT_FAULTS, side, "embed", "--weights", "1,2,6",
                              "--m", "4", "--m0", "3", "--pairs", "10000"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        faults[side] = int(run.stdout)
    assert 2 * faults["on"] < faults["off"], faults


def test_main_runs_on_one_blas_thread_and_returns_the_callers_count(capsys, monkeypatch):
    # the campaign runs on one OpenBLAS thread; the caller's count is back
    # after main returns, on the error path too
    from szegolab import cli

    get, put = cli._openblas_threads()
    caller = get()
    if caller is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    put(2)
    seen = []

    def resolve(args):
        seen.append(get())
        raise cli.ConfigError("stop")

    monkeypatch.setattr(cli, "resolve_manifold", resolve)
    try:
        before = get()
        code, _, _ = run_cli(capsys, "kernel", "--weights", "1,1", "--point", "1,0", "--m", "1")
        assert (code, seen, get()) == (2, [1], before)
    finally:
        put(caller)


EXAMPLE2_POINT = ("--preset", "example2", "--point", "0,0,0.8260313576541872")
# argv without --seed, and the spawn key of each generator it builds, in order
# (integrate's key table)
CAMPAIGN_STREAMS = {
    "embed": (BENCH_EMBED, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]),
    "fit": (("fit", "--preset", "example2", "--m", "4..8", "--samples", "2000"), [(2,), ()]),
    "kernel": (("kernel", *EXAMPLE2_POINT, "--m", "4..6", "--samples", "2000"), [()]),
    # one ball stream per radius of the default three, the same draws scaled
    "ratio": (("ratio", *EXAMPLE2_POINT, "--m", "1..2", "--samples", "2000", "--points", "10"),
              [(), (4,), (4,), (4,)]),
}


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in CAMPAIGN_STREAMS for seed in (0, 3)],
    # the embed cases keep the ids they had when the test covered embed alone
    ids=[f"{name}-{seed}".removeprefix("embed-") for name in CAMPAIGN_STREAMS for seed in (0, 3)],
)
def test_embed_streams_share_no_key_material(capsys, philox_keys, name, seed):
    # every role of a campaign reads a stream of its own key, so no two roles
    # read the same stream; only ratio's radii share one, on purpose
    argv, roles = CAMPAIGN_STREAMS[name]
    code, _, _ = run_cli(capsys, *argv, "--seed", str(seed))
    assert code in (0, 1)
    keys = [key for _, key in philox_keys]
    assert keys == [_philox_key(seed, *role) for role in roles]
    assert len(set(keys)) == len(set(roles))


@pytest.mark.parametrize("seed", [0, 3])
def test_fit_point_is_not_a_node_of_its_gram_sample(capsys, monkeypatch, example2, seed):
    # a node of the Gram sample as the evaluation point would bias c_lead low
    # by that node's leverage
    import numpy as np

    from szegolab import kernel
    from szegolab.integrate import sample_hypersurface

    points = []
    fit_expansion = kernel.fit_expansion

    def recording(M, x, *args, **kwargs):
        points.append(x)
        return fit_expansion(M, x, *args, **kwargs)

    monkeypatch.setattr(kernel, "fit_expansion", recording)
    run_cli(capsys, *CAMPAIGN_STREAMS["fit"][0], "--seed", str(seed))
    [x] = points
    nodes = sample_hypersurface(example2, 2000, seed).points
    assert not np.any(np.all(nodes == x, axis=1))


@pytest.mark.parametrize(
    "argv, seed",
    [(BENCH_EMBED, seed) for seed in range(10)]
    + [(("embed", "--weights", "1,2,6", "--m", "4", "--pairs", "300"), seed) for seed in range(5)],
    ids=[f"example2-seed{seed}" for seed in range(10)] + [f"wsphere126-seed{seed}" for seed in range(5)],
)
def test_embed_passes_every_contract_at_any_seed(capsys, argv, seed):
    # the benchmark checks its embed campaign at whatever seed it runs
    code, out, _ = run_cli(capsys, *argv, "--seed", str(seed))
    report = json.loads(out)
    assert code == 0 and all(contract["passed"] for contract in report["contracts"])
    assert report["results"]["violations"] == []
    assert report["results"]["immersion_floor"] > 1e-6


@pytest.mark.parametrize(
    "manifold, option, value, bound",
    [
        (("--weights", "1,2,6"), "--pairs", "2", 3),
        # one regular sample, one per singular pattern (3) and one near sample
        (("--weights", "1,2,6"), "--immersion-samples", "0", 5),
        (("--preset", "sphere", "--n", "2"), "--pairs", "2", 3),
        (("--preset", "sphere", "--n", "2"), "--immersion-samples", "0", 1),
    ],
)
def test_embed_rejects_counts_it_cannot_certify(capsys, manifold, option, value, bound):
    # a certificate over no same-orbit pair or no immersion sample certifies nothing
    argv = ["embed", *manifold, "--m", "4", "--pairs", "30", "--immersion-samples", "6"]
    code, out, err = run_cli(capsys, *argv, option, value)
    assert code == 2
    assert out == ""
    assert f"{option} must be at least {bound}, got {value}" in err


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "0", "-0.5"])
def test_embed_rejects_a_delta_that_is_not_finite_and_positive(capsys, delta):
    code, out, err = run_cli(capsys, "embed", "--weights", "1,2", "--m", "2", "--pairs", "30",
                             "--immersion-samples", "10", f"--delta={delta}")
    assert code == 2
    assert out == ""
    assert "configuration error: --delta must be finite and > 0" in err


def test_embed_separation_fails_when_no_pair_clears_delta(capsys):
    # no two points of the unit sphere are 5 apart: no pair is held to the
    # floor, and a certificate over no pair certifies nothing
    code, out, err = run_cli(capsys, "embed", "--weights", "1,2", "--m", "2", "--pairs", "30",
                             "--immersion-samples", "10", "--delta", "5")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["separation_floor"] == math.inf
    assert report["results"]["violations"] == []
    [separation] = [c for c in report["contracts"] if c["name"] == "separation"]
    assert not separation["passed"]
    assert "no pair has quotient distance above --delta 5.0" in separation["detail"]
    assert "CONTRACT FAILED: separation: no pair" in err


@pytest.mark.parametrize("samples", [4, 5, 6, 7, 30])
def test_embed_csv_has_one_row_per_immersion_sample(capsys, tmp_path, samples):
    # on (1,2,6) the fewest stratified samples are 1 regular + 3 patterns + 1 near
    code, out, err = run_cli(
        capsys, "embed", "--weights", "1,2,6", "--m", "4", "--pairs", "30",
        "--immersion-samples", str(samples), "--out", str(tmp_path),
    )
    if samples < 5:
        assert code == 2 and out == ""
        assert f"--immersion-samples must be at least 5, got {samples}" in err
        return
    assert code == 0
    rows = (tmp_path / "embed.csv").read_text().splitlines()
    assert rows[0] == "sample,label,stratum_order,near_stratum,sigma_min"
    assert len(rows) - 1 == samples


# -- the lean parser main builds for one command -----------------------------

PARITY_ARGVS = [words[1:] for words in readme_commands()] + [
    ["dims", "--weights", "1,2", "--m", "3"],
    ["norms", "--preset", "sphere", "--n", "3", "--m", "0..2", "--out", "o"],
    ["kernel", "--preset", "example2", "--m", "2", "--point", "0,0,0.826", "--samples", "10"],
    ["fit", "--manifold", "spec.json", "--m", "4..8", "--tolerance", "fit=0.5",
     "--tolerance", "fit=0.2", "--measure", "round-exact"],
    ["vanish", "--weights", "1,2,6", "--point", "0,0,1", "--m", "1..5", "--seed", "3"],
    ["ratio", "--weights", "1,2", "--point", "0,1", "--m", "4,6", "--i-bound", "0.2",
     "--sigma", "0.1", "--points", "7"],
    ["project", "--weights", "1,2", "--point", "0.6,0.8", "--m", "0", "--function", "f.json"],
    ["embed", "--preset", "example2", "--m0", "3", "--extra-levels", "7,9", "--delta", "0.1",
     "--immersion-samples", "12", "--pairs", "30"],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=[" ".join(a) for a in PARITY_ARGVS])
def test_lean_parser_namespace_equals_full_parser(monkeypatch, argv):
    import szegolab.cli as cli

    seen, built = [], []
    # main runs no manifold, campaign or report: it hands on the namespace
    monkeypatch.setattr(cli, "resolve_manifold", seen.append)
    monkeypatch.setattr(cli, "emit_report", lambda *report: 0)
    for name, (help_text, options, _, *report_format) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name,
                            (help_text, options, lambda M, args: ({}, [], []), *report_format))
    full_parser = cli.build_parser

    def recording(commands=tuple(cli.COMMANDS)):
        built.append(tuple(commands))
        return full_parser(commands)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(argv) == 0
    assert built == [(argv[0],)]
    assert vars(seen[0]) == vars(full_parser().parse_args(argv))


def _exit_of(call, capsys):
    try:
        code = call()
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["-h"], [], ["bogus"], ["fit", "-h"], ["fit", "--bogus"], ["embed", "--pairs", "x"],
     ["fit", "--m", "3", "--bogus"], ["-h", "fit"]],
    ids=["help", "no-argv", "bogus", "fit-help", "fit-bogus", "embed-pairs-x", "fit-unrecognized",
         "help-before-command"],
)
def test_lean_parser_prints_what_the_full_parser_prints(capsys, argv):
    from szegolab.cli import build_parser

    lean = _exit_of(lambda: main(argv), capsys)
    full = _exit_of(lambda: build_parser().parse_args(argv), capsys)
    assert lean == full
    assert lean[0] in (0, 2) and lean[1] + lean[2]


# -- malformed specs and --function files ----------------------------------

# values put where a JSON integer or an exponent list belongs; none is a JSON
# integer, and a bool or a float does not count as one
NOT_INTEGERS = st.one_of(st.floats(), st.booleans(), st.none(),
                         st.lists(st.integers(0, 3), max_size=2), st.text(max_size=3))


def _is_integer(value):
    return type(value) is int


def _integers_only(terms):
    return all(type(e) is list and all(map(_is_integer, e))
               for t in terms for e in (t["z_exponents"], t["zbar_exponents"]))


@st.composite
def _spec_and_function(draw):
    """(n, spec, function terms) in n <= 3 variables with exponents at most 3
    (the ray table grows with the degree).  rho is the unit sphere's, with
    random terms up to 4 in all, and there are up to 4 --function terms.  In
    half the draws any integer or exponent list may become a NOT_INTEGERS."""
    corrupt = draw(st.booleans())

    def value(v):
        return draw(NOT_INTEGERS) if corrupt and draw(st.integers(0, 3)) == 0 else v

    def term(a, b, coeff):
        return {"coeff": coeff, "z_exponents": value([value(k) for k in a]),
                "zbar_exponents": value([value(k) for k in b])}

    n = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def random_terms(count):
        terms = []
        for _ in range(count):
            a = draw(exponents)
            # a term with b == a is real and invariant, so the spec may load
            b = a if draw(st.booleans()) else draw(exponents)
            terms.append(term(a, b, draw(st.sampled_from(["1", "-1", "1/2"]))))
        return terms

    unit = [[int(j == k) for k in range(n)] for j in range(n)]
    rho = [term(e, e, "1") for e in unit] + [term([0] * n, [0] * n, "-1")]
    rho += random_terms(draw(st.integers(0, 4 - len(rho))))
    weights = [value(w) for w in draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))]
    spec = {"n": value(n), "weights": value(weights), "rho": rho}
    return n, spec, random_terms(draw(st.integers(0, 4)))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(_spec_and_function())
def test_malformed_spec_or_function_exits_zero_one_or_two(inputs):
    n, spec, function = inputs
    spec_integers_only = (_is_integer(spec["n"]) and type(spec["weights"]) is list
                          and all(map(_is_integer, spec["weights"])) and _integers_only(spec["rho"]))
    point = ",".join(["0"] * (n - 1) + ["1"])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"spec": Path(tmp) / "m.json", "function": Path(tmp) / "f.json"}
        paths["spec"].write_text(json.dumps(spec))
        paths["function"].write_text(json.dumps(function))
        for argv, integers_only in (
            (["dims", "--m", "4"], spec_integers_only),
            (["project", "--point", point, "--m", "0..2", "--function", str(paths["function"])],
             spec_integers_only and _integers_only(function)),
            (["vanish", "--point", point, "--m", "1", "--samples", "2000"], spec_integers_only),
        ):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, "--manifold", str(paths["spec"])])
            # main never raises, and a non-integer n, weight or exponent is a
            # configuration error
            assert code in (0, 1, 2), argv
            assert integers_only or code == 2, (argv, err.getvalue())
