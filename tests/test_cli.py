"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import hashlib
import json
from collections import Counter

import pytest

import qdq.twist
from qdq.cli import EXIT_INTERNAL, run
from qdq.frt import build_T, perturbed
from qdq.io_json import matrix_from_json, ncsquare_to_json
from qdq.linalg import Matrix
from qdq.quasidet import NCSquare
from qdq.rmatrix import standard_r
from qdq.scalars import MAX_EXPONENT, MAX_ROOT_ORDER, ScalarField
from qdq.twist import enumerate_triples


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_std_r_output_and_determinism(capsys):
    code1, out1, _ = invoke(capsys, "std-r", "--n", "2")
    code2, out2, _ = invoke(capsys, "std-r", "--n", "2")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    obj = json.loads(out1)
    f = ScalarField(obj["root_order"])
    assert matrix_from_json(obj["matrix"], f) == standard_r(2, f)


def test_solve_theta_cli(capsys):
    code, out, _ = invoke(
        capsys, "solve-theta", "--n", "3", "--g1", "1", "--g2", "2", "--tau", "1>2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["residuals"] == []
    assert len(obj["theta"]) == 3


def test_solve_theta_cli_derives_and_checks_once(capsys, monkeypatch):
    # the CLI prints the residuals the solve computed: one validation of
    # the triple, one Cartan derivation and one residual evaluation
    calls = Counter()
    for name in ("validate_triple", "cartan_data", "_residuals"):
        inner = getattr(qdq.twist, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(qdq.twist, name, counted)
    argv = ["solve-theta", "--n", "5", "--g1", "1,2", "--g2", "3,4", "--tau", "1>3,2>4"]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["residuals"] == []
    assert calls == {"validate_triple": 1, "cartan_data": 1, "_residuals": 1}


def test_check_main_untwisted(capsys):
    code, out, _ = invoke(capsys, "check", "main", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["check"] == "main" and obj["pass"] is True


def test_check_main_text_format(capsys):
    code, out, _ = invoke(capsys, "check", "main", "--n", "2", "--format", "text")
    assert code == 0
    assert "main" in out and "pass" in out and "FAIL" not in out
    lines = out.splitlines()
    assert lines and all(line.endswith(" ms") or " ms  [" in line for line in lines)
    (cert,) = [line for line in lines if "qdet-coaction" in line]
    assert cert.endswith("[one-row certificate]")
    (cert,) = [line for line in lines if "det-sigma-consistency" in line]
    assert cert.endswith("[commuting-factors certificate]")


def test_text_format_names_the_failed_premise(capsys, monkeypatch):
    monkeypatch.setattr(
        "qdq.frt.build_T", lambda tw, k1, k2: perturbed(build_T(tw, k1, k2))
    )
    code, out, _ = invoke(capsys, "check", "main", "--n", "2", "--format", "text")
    assert code == 1
    (cert,) = [line for line in out.splitlines() if "qdet-coaction" in line]
    assert "FAIL" in cert and cert.endswith("(premise failed: frt)")
    assert "(first failure: frt)" in out.splitlines()[0]


def test_degenerate_hecke_names_both_dimension_pairs(capsys, monkeypatch):
    # q Id passes the Hecke relation with all of V (x) V its q-eigenspace
    monkeypatch.setattr(
        "qdq.cli.r_hat", lambda r: Matrix.identity(r.rows, r.field).scale(r.field.q)
    )
    code, out, _ = invoke(capsys, "check", "hecke", "--n", "2", "--format", "text")
    assert code == 1
    (line,) = out.splitlines()
    assert "FAIL" in line and line.endswith("eigenspace dims (4, 0) != expected (3, 1)")
    code, out, _ = invoke(capsys, "check", "hecke", "--n", "2")
    assert code == 1
    want = {"eigenspace_dims": [4, 0], "expected_dims": [3, 1]}
    assert json.loads(out)["witness"] == want


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stage broke")

    monkeypatch.setattr("qdq.frt.frt_check", broken)
    code, out, err = invoke(capsys, "check", "main", "--n", "2")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError: stage broke")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("exc", [ValueError("deep value"), KeyError("deep key")])
def test_library_value_and_key_errors_are_internal(capsys, monkeypatch, exc):
    # only the boundary's InputError means invalid input (exit 2)
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("qdq.frt.frt_check", broken)
    code, out, err = invoke(capsys, "check", "main", "--n", "2")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}: ")
    assert len(err.splitlines()) == 1


def test_check_main_json_format(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = invoke(
        capsys,
        "check",
        "main",
        "--n",
        "2",
        "--format",
        "json",
        "--json",
        str(target),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    saved = json.loads(target.read_text())
    assert saved == obj


def test_check_main_invalid_triple(capsys):
    code, _, err = invoke(
        capsys, "check", "main", "--n", "3", "--g1", "1", "--g2", "1", "--tau", "1>1"
    )
    assert code == 2
    assert "error" in err


def test_check_ybe_hecke(capsys):
    for kind in ("ybe", "hecke"):
        code, out, _ = invoke(capsys, "check", kind, "--n", "3")
        assert code == 0, out


def test_check_cocycle_with_theta_files(capsys, tmp_path):
    good = tmp_path / "theta.json"
    good.write_text(
        json.dumps(
            {
                "theta": [
                    ["0", "1/2", "1/2"],
                    ["1/2", "0", "1/2"],
                    ["0", "1/2", "0"],
                ]
            }
        )
    )
    code, _, _ = invoke(
        capsys,
        "check",
        "cocycle",
        "--n",
        "3",
        "--g1",
        "1",
        "--g2",
        "2",
        "--tau",
        "1>2",
        "--theta",
        str(good),
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "theta": [
                    ["1", "1/2", "1/2"],
                    ["1/2", "0", "1/2"],
                    ["0", "1/2", "0"],
                ]
            }
        )
    )
    code, out, _ = invoke(
        capsys,
        "check",
        "cocycle",
        "--n",
        "3",
        "--g1",
        "1",
        "--g2",
        "2",
        "--tau",
        "1>2",
        "--theta",
        str(bad),
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["witness"] is not None


def test_check_frt_cg(capsys):
    code, _, _ = invoke(
        capsys, "check", "frt", "--n", "3", "--g1", "1", "--g2", "2", "--tau", "1>2"
    )
    assert code == 0


def test_quasidet_scalar_file(capsys, tmp_path):
    f = ScalarField(1)
    x = NCSquare(
        [[f.from_rational(1), f.from_rational(2)],
         [f.from_rational(3), f.from_rational(4)]],
        f,
    )
    path = tmp_path / "x.json"
    path.write_text(json.dumps(ncsquare_to_json(x)))
    code, out, _ = invoke(
        capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"num": ["-1/2"], "den": ["1"]}


def test_quasidet_singular_exit_code(capsys, tmp_path):
    f = ScalarField(1)
    x = NCSquare(
        [[f.from_rational(1), f.from_rational(1), f.from_rational(1)],
         [f.from_rational(1), f.from_rational(1), f.from_rational(1)],
         [f.from_rational(1), f.from_rational(1), f.from_rational(2)]],
        f,
    )
    path = tmp_path / "x.json"
    path.write_text(json.dumps(ncsquare_to_json(x)))
    code, _, err = invoke(
        capsys, "quasidet", "--file", str(path), "--i", "3", "--j", "3"
    )
    assert code == 3
    assert "singular" in err.lower()


def test_quasidet_operator_file(capsys, tmp_path):
    f = ScalarField(1)
    ident = Matrix.identity(2, f)
    x = NCSquare([[ident, ident.scale(f.q)], [Matrix.zeros(2, 2, f), ident]], f)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(ncsquare_to_json(x)))
    code, out, _ = invoke(
        capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1"
    )
    assert code == 0
    obj = json.loads(out)
    got = matrix_from_json(obj["value"], f)
    assert got == ident


def test_sigma_subset(capsys):
    code, _, _ = invoke(
        capsys,
        "check",
        "main",
        "--n",
        "3",
        "--sigma",
        "123,321",
    )
    assert code == 0


def test_bad_sigma_rejected(capsys):
    code, _, err = invoke(
        capsys, "check", "main", "--n", "2", "--sigma", "11"
    )
    assert code == 2
    assert "error" in err


def test_missing_file_invalid(capsys):
    code, _, _ = invoke(
        capsys, "quasidet", "--file", "/nonexistent/x.json", "--i", "1", "--j", "1"
    )
    assert code == 2


def test_malformed_grid_file_invalid(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text(json.dumps({"thetaa": [["0"]]}))
    code, _, err = invoke(
        capsys,
        "check",
        "cocycle",
        "--n",
        "3",
        "--g1",
        "1",
        "--g2",
        "2",
        "--tau",
        "1>2",
        "--theta",
        str(p),
    )
    assert code == 2
    assert "error" in err
    q = tmp_path / "shape.json"
    q.write_text(json.dumps({"theta": [["0", "0"], ["0", "0"]]}))
    code, _, _ = invoke(
        capsys,
        "check",
        "cocycle",
        "--n",
        "3",
        "--g1",
        "1",
        "--g2",
        "2",
        "--tau",
        "1>2",
        "--theta",
        str(q),
    )
    assert code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["check"])  # missing positional
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "main", "--n", "0"],  # used to die in a ZeroDivisionError
        ["check", "ybe", "--n", "-2"],  # used to report an entry-grid shape error
        ["check", "frt", "--n", "2", "--k1", "0"],
        ["check", "main", "--n", "2", "--k2", "-1"],
        ["std-r", "--n", "2", "--root-order", "0"],
        ["solve-theta", "--n", "zero"],
    ],
)
def test_integer_arguments_validated_before_work(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer >= 1" in err and "Traceback" not in err


def test_check_has_no_root_order_flag(capsys):
    # the root order of a check follows from the triple; std-r keeps the flag
    with pytest.raises(SystemExit) as exc:
        run(["check", "ybe", "--n", "2", "--root-order", "2"])
    assert exc.value.code == 2
    assert "--root-order" in capsys.readouterr().err


_ONE = {"num": ["1"], "den": ["1"]}
_UNIT_BLOCK = {"rows": 1, "cols": 1, "entries": [[_ONE]]}

# each used to print only "error: 'num'", the Fraction message or
# "error: 'entries'", with neither the file nor the entry
_BAD_ENTRIES = [
    ({"size": 2, "entries": [[_ONE, _ONE], [{"den": ["1"]}, _ONE]]}, "(2, 1)"),
    ({"size": 2, "entries": [[_ONE, {"num": ["x"], "den": ["1"]}], [_ONE, _ONE]]}, "(1, 2)"),
    ({"size": 1, "inner_dim": 1, "entries": [[_ONE]]}, "(1, 1)"),
]


@pytest.mark.parametrize(
    "payload",
    [
        {"root_order": 1, "size": 0, "entries": []},  # used to die in an IndexError
        {"root_order": 1, "size": 3, "entries": [[_ONE, _ONE], [_ONE, _ONE]]},
        {"root_order": 1, "size": 1, "inner_dim": 3, "entries": [[_UNIT_BLOCK]]},
        {"root_order": 1, "size": 1, "entries": [[{"num": ["1"], "den": ["0"]}]]},
        {"root_order": 1, "size": 1, "entries": [[{"num": ["1/0"], "den": ["1"]}]]},
        [[_ONE]],  # a top-level list used to die in an AttributeError
        *(payload for payload, _ in _BAD_ENTRIES),
        {"entries": [[{"num": [float("inf")], "den": ["1"]}]]},  # used to exit 4
    ],
)
def test_quasidet_file_validated_before_work(capsys, tmp_path, payload):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(
        capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload, where", _BAD_ENTRIES)
def test_quasidet_bad_entry_names_file_and_position(capsys, tmp_path, payload, where):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    code, _, err = invoke(capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1")
    assert code == 2
    assert err.startswith(f"error: {path}: entry {where} of the square is malformed: ")


@pytest.mark.parametrize("value", [1.5, True, "x", None, 0])
def test_quasidet_root_order_must_be_a_positive_integer(capsys, tmp_path, value):
    # 1.5 and true used to run as root order 1 and exit 0
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"root_order": value, "entries": [[_ONE]]}))
    code, out, err = invoke(capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1")
    assert code == 2 and out == ""
    assert err == f"error: {path}: root_order must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize(
    "payload, says",
    [
        ({"size": True, "entries": [[_ONE]]}, "size must be an integer, got True"),
        (
            {"size": 2.0, "entries": [[_ONE, _ONE], [_ONE, _ONE]]},
            "size must be an integer, got 2.0",
        ),
        (
            {"inner_dim": True, "entries": [[_UNIT_BLOCK]]},
            "inner_dim must be an integer, got True",
        ),
        (
            {"inner_dim": 1, "entries": [[{**_UNIT_BLOCK, "rows": True, "cols": True}]]},
            "entry (1, 1) of the square is malformed: rows must be an integer, got True",
        ),
        (
            {"inner_dim": 1, "entries": [[{**_UNIT_BLOCK, "rows": 1.0}]]},
            "entry (1, 1) of the square is malformed: rows must be an integer, got 1.0",
        ),
    ],
    ids=["size-true", "size-float", "inner-dim-true", "rows-cols-true", "rows-float"],
)
def test_quasidet_shape_keys_must_be_integers(capsys, tmp_path, payload, says):
    # the first four used to exit 0; rows 1.0 died in Matrix.zeros and exited 4
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, "quasidet", "--file", str(path), "--i", "1", "--j", "1")
    assert code == 2 and out == ""
    assert err == f"error: {path}: {says}\n"


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_unreadable_input_file_named(capsys, tmp_path, content):
    # the decoder's message used to come without the file's name
    path = tmp_path / "x.json"
    path.write_bytes(content)
    for argv in (
        ["quasidet", "--file", str(path), "--i", "1", "--j", "1"],
        ["check", "ybe", "--n", "2", "--theta", str(path)],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


_BLOCK_2 = {"rows": 2, "cols": 2, "entries": [[_ONE, _ONE], [_ONE, _ONE]]}
_SQUARE_2 = {"entries": [[_ONE, _ONE], [_ONE, _ONE]]}


@pytest.mark.parametrize(
    "payload, puncture, library, says",
    [
        ({"entries": [[_ONE, _ONE], [_ONE]]}, "11", "qdq.io_json.NCSquare", "square grid"),
        (
            {"inner_dim": 1, "entries": [[_UNIT_BLOCK, _BLOCK_2], [_UNIT_BLOCK] * 2]},
            "11",
            "qdq.io_json.NCSquare",
            "operator entries must share one square size",
        ),
        (_SQUARE_2, "01", "qdq.cli.quasideterminant", "puncture (0,1) outside 1..2"),
        (_SQUARE_2, "13", "qdq.cli.quasideterminant", "puncture (1,3) outside 1..2"),
    ],
    ids=["non-square", "mixed-blocks", "i-0", "j-3"],
)
def test_quasidet_input_refused_before_the_library(
    capsys, monkeypatch, tmp_path, payload, puncture, library, says
):
    # each used to reach the library, whose ValueError now means exit 4
    def no_work(*args, **kwargs):
        raise AssertionError("the library was called on invalid input")

    monkeypatch.setattr(library, no_work)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    i, j = puncture
    code, out, err = invoke(capsys, "quasidet", "--file", str(path), "--i", i, "--j", j)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and says in err


@pytest.mark.parametrize("kind", ["ybe", "hecke"])
@pytest.mark.parametrize("flag", ["--theta", "--beta"])
def test_empty_triple_checks_read_their_flag_files(capsys, tmp_path, kind, flag):
    # the empty triple used to take the standard R and never open the files
    code, out, err = invoke(capsys, "check", kind, "--n", "3", flag, "/nonexistent.json")
    assert code == 2 and out == "" and err.startswith("error: ")
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([["1/0", "0", "0"], ["0"] * 3, ["0"] * 3]))
    code, out, err = invoke(capsys, "check", kind, "--n", "3", flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: entry (1, 1) ")


@pytest.mark.parametrize(
    "flag, value, token",
    [("--tau", "1>2>3", "'1>2>3'"), ("--g1", "1,x", "'x'"), ("--g2", "y", "'y'")],
)
def test_parse_errors_name_argument_and_token(capsys, flag, value, token):
    argv = ["check", "ybe", "--n", "3", "--g1", "1", "--g2", "2", "--tau", "1>2"]
    argv[argv.index(flag) + 1] = value
    code, _, err = invoke(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: {token}")


@pytest.mark.parametrize("entry", ["1/0", None, ["1"], "x", True])
@pytest.mark.parametrize("flag", ["--theta", "--beta"])
def test_bad_grid_entry_names_file_and_position(capsys, tmp_path, flag, entry):
    # "1/0" used to die in a ZeroDivisionError, null and lists in a TypeError
    grid = [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["0", "1/2", "0"]]
    grid[0][1] = entry
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({flag[2:]: grid}))
    argv = ["check", "main", "--n", "3", "--g1", "1", "--g2", "2", "--tau", "1>2"]
    code, out, err = invoke(capsys, *argv, flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: entry (1, 2) ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "value, token", [("1x", "'1x'"), ("12,2", "'2'"), ("123", "'123'"), (",", "','")]
)
def test_bad_sigma_named_before_any_work(capsys, monkeypatch, value, token):
    def no_work(*args, **kwargs):
        raise AssertionError("the twist was built before --sigma was checked")

    monkeypatch.setattr("qdq.cli.build_twist", no_work)
    code, out, err = invoke(capsys, "check", "main", "--n", "2", "--sigma", value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --sigma: {token}")


def _strip_ms(obj):
    if isinstance(obj, dict):
        return {k: _strip_ms(v) for k, v in obj.items() if k != "ms"}
    if isinstance(obj, list):
        return [_strip_ms(v) for v in obj]
    return obj


def test_cli_outputs_golden_digest(capsys, tmp_path):
    # solve-theta for every triple with n <= 4; check ybe, hecke, cocycle
    # and main for every triple with n <= 3; and a cocycle check with a
    # bad Theta, which fails with a witness.  The JSON outputs, timings
    # stripped, are pinned byte for byte by one sha256.
    runs = []
    for n in range(1, 5):
        for t in enumerate_triples(n):
            args = [
                "--n", str(n),
                "--g1", ",".join(map(str, t.gamma1)),
                "--g2", ",".join(map(str, t.gamma2)),
                "--tau", ",".join(f"{a}>{b}" for a, b in t.tau_pairs),
            ]
            runs.append((["solve-theta", *args], 0))
            if n <= 3:
                for kind in ("ybe", "hecke", "cocycle", "main"):
                    runs.append((["check", kind, *args], 0))
    bad = tmp_path / "theta.json"
    bad.write_text(json.dumps({"theta": [["1/2", "0", "0"], ["0"] * 3, ["0"] * 3]}))
    cg = ["--n", "3", "--g1", "1", "--g2", "2", "--tau", "1>2"]
    runs.append((["check", "cocycle", *cg, "--theta", str(bad)], 1))
    payload = []
    certified = {
        "frt": {
            "route": "coproduct certificate",
            "premises": {"rll_plus": True, "rll_minus": True, "t_is_product": True},
        },
        "det-sigma-consistency": {
            "route": "commuting-factors certificate",
            "premises": {"factors_commute": True},
        },
    }
    for argv, want in runs:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (want, ""), argv
        label = [a if a != str(bad) else "theta.json" for a in argv]
        obj = _strip_ms(json.loads(out))
        # the digest predates the frt and det-sigma certificates: pop
        # exactly their keys
        subs = obj.get("details", {}).get("checks", [])
        for check, keys in certified.items():
            cert_subs = [sub for sub in subs if sub["check"] == check]
            assert len(cert_subs) == (argv[:2] == ["check", "main"]), argv
            for sub in cert_subs:
                if check == "det-sigma-consistency":
                    orderings = sub["details"].pop("orderings")
                    assert orderings == sub["params"]["sigmas"], argv
                assert {k: sub["details"].pop(k) for k in keys} == keys
                assert sub["details"] == {}
        payload.append([label, code, obj])
    assert "coords" in payload[-1][2]["witness"]
    assert len(payload) == 33
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "20df6a0c41424b416d50c0498d16c85c672eda64a4ca508af05487a431762656"
    )


def test_root_order_past_the_bound_is_a_usage_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "std-r", "--n", "2", "--root-order", str(MAX_ROOT_ORDER + 1))
    assert code == 2 and out == "" and "exceeds the bound" in err
    # a Theta entry 1/1031 asks for the root order 1031, and the JSON float
    # 0.1 is read exactly, with the denominator 2^55
    theta = tmp_path / "theta.json"
    for entry, order in [("1/1031", 1031), (0.1, 2**55)]:
        theta.write_text(json.dumps({"theta": [[entry, "0"], ["0", "0"]]}))
        code, out, err = invoke(capsys, "check", "cocycle", "--n", "2", "--theta", str(theta))
        assert code == 2 and out == "" and f"root order {order} exceeds" in err
    square = tmp_path / "x.json"
    one = {"num": ["1"], "den": ["1"]}
    square.write_text(json.dumps({"root_order": MAX_ROOT_ORDER + 1, "size": 1, "entries": [[one]]}))
    code, out, err = invoke(capsys, "quasidet", "--file", str(square), "--i", "1", "--j", "1")
    assert code == 2 and out == "" and "exceeds the bound" in err


def test_cartan_exponent_past_the_bound_is_a_usage_error(capsys, tmp_path):
    # the integral entry keeps the root order at 1; the exponent bound refuses it
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"theta": [[str(MAX_EXPONENT + 1), "0"], ["0", "0"]]}))
    code, out, err = invoke(capsys, "check", "cocycle", "--n", "2", "--theta", str(theta))
    assert code == 2 and out == "" and f"exceeds the bound {MAX_EXPONENT}" in err
    # the bound itself is admitted
    theta.write_text(json.dumps({"theta": [[str(MAX_EXPONENT), "0"], ["0", "0"]]}))
    code, out, err = invoke(capsys, "check", "cocycle", "--n", "2", "--theta", str(theta))
    assert code == 0 and err == ""
