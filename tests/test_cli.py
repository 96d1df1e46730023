import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohint import InputError, catalog_emit, catalog_keys, enumerate_strata, parse_input
from cohint.cli import EXIT_OK, EXIT_VALIDATION, _indented, main, run
from cohint.documents import MAX_DEGREE, document_from_dict

from conftest import CATALOG_INSTANCES
from reference import total

GL2_DOC = {
    "name": "gl2-cotangent",
    "rank": 2,
    "weyl_generators": [[[0, 1], [1, 0]]],
    "g_weights": [
        {"alpha": [0, 0], "multiplicity": 2},
        {"alpha": [1, -1], "multiplicity": 1},
        {"alpha": [-1, 1], "multiplicity": 1},
    ],
    "v_weights": [
        {"alpha": [1, 0], "multiplicity": 1},
        {"alpha": [0, 1], "multiplicity": 1},
        {"alpha": [-1, 0], "multiplicity": 1},
        {"alpha": [0, -1], "multiplicity": 1},
    ],
}


class TestParseInput:
    def test_valid_document(self):
        doc = parse_input(json.dumps(GL2_DOC))
        assert doc.rank == 2
        assert total(doc.v_weights) == 4

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed JSON"):
            parse_input("{not json")

    @pytest.mark.parametrize("text,message", [
        ("[" * 100_000 + "]" * 100_000, "malformed JSON: nested too deeply"),
        ('{"rank": ' + "7" * 5000 + "}",
         "malformed JSON: an integer literal has too many digits"),
    ], ids=["deep-nesting", "long-integer"])
    def test_parser_limits_fail_validation(self, text, message, tmp_path, capsys):
        # Python raises RecursionError and ValueError here, worded differently
        # by version; the report has one fixed wording
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["validate", "--input", str(path)]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out) == {
            "status": "validation_failed", "error": message}

    def test_wrong_alpha_length(self):
        bad = json.loads(json.dumps(GL2_DOC))
        bad["v_weights"][0]["alpha"] = [1]
        with pytest.raises(InputError, match=r"v_weights\[0\].alpha"):
            parse_input(json.dumps(bad))

    @pytest.mark.parametrize("edit,location", [
        (lambda d, b: d.update(rank=b), r"^rank: expected a positive integer$"),
        (lambda d, b: d.update(weyl_generators=[[[0, b], [1, 0]]]),
         r"^weyl_generators\[0\]: expected a 2x2 integer matrix$"),
        (lambda d, b: d["v_weights"][0].update(alpha=[b, 0]),
         r"^v_weights\[0\].alpha: expected a list of 2 integers$"),
        (lambda d, b: d["g_weights"][1].update(multiplicity=b),
         r"^g_weights\[1\].multiplicity: expected a positive integer$"),
        (lambda d, b: d.update(options={"max_degree": b}),
         r"^options.max_degree: expected a nonnegative integer$"),
        (lambda d, b: d.update(options={"group_cap": b}),
         r"^options.group_cap: expected a positive integer$"),
    ], ids=["rank", "generator-entry", "alpha", "multiplicity", "max_degree", "group_cap"])
    @pytest.mark.parametrize("boolean", [True, False])
    def test_boolean_is_not_an_integer(self, edit, location, boolean):
        bad = json.loads(json.dumps(GL2_DOC))
        edit(bad, boolean)
        with pytest.raises(InputError, match=location):
            parse_input(json.dumps(bad))

    @pytest.mark.parametrize("edit,location", [
        (lambda d: d.update(v_weigths=d.pop("v_weights")), "v_weigths"),
        (lambda d: d.update(options={"max_degre": 3}), "options.max_degre"),
        (lambda d: d["g_weights"][1].update(multiplicty=d["g_weights"][1].pop("multiplicity")),
         r"g_weights\[1\].multiplicty"),
    ], ids=["top-level", "options", "weight-entry"])
    def test_unknown_key_is_rejected(self, edit, location, tmp_path, capsys):
        bad = json.loads(json.dumps(GL2_DOC))
        edit(bad)
        with pytest.raises(InputError, match=f"^{location}: unknown key$"):
            parse_input(json.dumps(bad))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", "--input", str(path)]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out)["status"] == "validation_failed"

    def test_non_invertible_generator(self):
        bad = json.loads(json.dumps(GL2_DOC))
        bad["weyl_generators"] = [[[2, 0], [0, 1]]]
        with pytest.raises(InputError, match=(
            r"^g_weights are not stable under weyl_generators\[0\]$"
        )):
            run("validate", parse_input(json.dumps(bad)))

    def test_unstable_v_weights(self):
        bad = json.loads(json.dumps(GL2_DOC))
        bad["v_weights"] = [
            {"alpha": [1, 0], "multiplicity": 1},
            {"alpha": [-1, 0], "multiplicity": 1},
        ]
        with pytest.raises(InputError, match="stable"):
            run("validate", parse_input(json.dumps(bad)))

    def test_infinite_group(self):
        # two reflections in the root (1, 0) whose product is a shear
        bad = json.loads(json.dumps(GL2_DOC))
        bad["weyl_generators"] = [[[-1, 0], [0, 1]], [[-1, -2], [0, 1]]]
        bad["g_weights"] = [{"alpha": [0, 0], "multiplicity": 2},
                            {"alpha": [1, 0], "multiplicity": 1},
                            {"alpha": [-1, 0], "multiplicity": 1}]
        bad["v_weights"] = []
        bad["options"] = {"group_cap": 50}
        with pytest.raises(InputError, match="not finite"):
            run("validate", parse_input(json.dumps(bad)))
        with pytest.raises(InputError, match="not finite"):
            run("strata", parse_input(json.dumps(bad)))

    @pytest.mark.parametrize("rank,generator,g_weights", [
        (2, [[1, 1], [0, 1]], [[0, 0]]),  # a shear
        (2, [[-1, 0], [0, -1]], [[0, 0]]),  # -I
        (2, [[0, -1], [1, 0]], [[0, 0]]),  # the rotation by 90 degrees
        (2, [[0, 1], [1, 0]], [[0, 0]]),  # the swap, with the roots removed
        (2, [[0, 1], [1, 0]], [[0, 0], [1, 1], [-1, -1]]),  # the swap, another root
        (4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [[0] * 4]),  # (12)(34)
        (3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0] * 3]),  # a 3-cycle
        (2, [[1, 0], [0, 1]], [[0, 0], [1, -1], [-1, 1]]),  # the identity
    ])
    def test_generator_not_a_root_reflection(self, rank, generator, g_weights):
        zero = [0] * rank
        doc = {
            "rank": rank,
            "weyl_generators": [generator],
            "g_weights": [{"alpha": w, "multiplicity": rank if w == zero else 1}
                          for w in g_weights],
            "v_weights": [{"alpha": [s * int(i == k) for i in range(rank)]}
                          for k in range(rank) for s in (1, -1)],
        }
        with pytest.raises(InputError, match=(
            r"^weyl_generators\[0\] is not the reflection in a root of g_weights$"
        )):
            run("validate", parse_input(json.dumps(doc)))

    def test_not_weakly_symmetric_parses(self):
        doc = json.loads(json.dumps(GL2_DOC))
        doc["weyl_generators"] = []
        doc["g_weights"] = [{"alpha": [0, 0], "multiplicity": 2}]
        doc["v_weights"] = [{"alpha": [1, 0], "multiplicity": 1}]
        parsed = parse_input(json.dumps(doc))
        report, code = run("validate", parsed)
        assert code == EXIT_VALIDATION
        assert report["symmetry_class"] == "not_weakly_symmetric"


class TestCatalog:
    def test_keys_listing(self):
        keys = catalog_keys()
        assert "gl2-cotangent" in keys
        assert "trivial:sl3" in keys

    def test_sl2_irrep_weights(self):
        doc = catalog_emit("sl2-irrep:4")
        assert doc.v_weights.supports() == ((-3,), (-1,), (1,), (3,))

    def test_adjoint_duplicates_group_weights(self):
        doc = catalog_emit("adjoint:gl2")
        assert doc.v_weights == doc.g_weights

    def test_unknown_key(self):
        with pytest.raises(InputError, match="unknown"):
            catalog_emit("so5-spin")

    @pytest.mark.parametrize("key", ["gl2-cotangent:", "sl2-irrep:", "sl2-adjoint:"])
    def test_empty_parameter_is_not_an_integer(self, key, capsys):
        with pytest.raises(InputError, match=f"^catalog key '{key}' needs an integer parameter$"):
            catalog_emit(key)
        assert main(["validate", "--catalog", key]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "validation_failed",
                       "error": f"catalog key '{key}' needs an integer parameter"}

    @pytest.mark.parametrize("key", [
        "sl2-irrep:1_0", "sl2-irrep: 3", "gl2-cotangent:+2", "sl2-irrep:\u0663", "sl2-irrep:03",
    ])
    def test_parameter_is_a_plain_decimal(self, key, capsys):
        # int() reads each of these, which would give one document several names
        assert main(["validate", "--catalog", key]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "validation_failed",
                       "error": f"catalog key '{key}' needs an integer parameter"}

    def test_fixed_key_with_a_colon_is_unknown(self, capsys):
        with pytest.raises(InputError, match="^unknown catalog key 'torus2-cotangent:'$"):
            catalog_emit("torus2-cotangent:")
        assert main(["validate", "--catalog", "torus2-cotangent:"]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "unknown catalog key 'torus2-cotangent:'"

    def test_all_emitted_documents_validate(self):
        keys = [
            "torus2-cotangent",
            "gl2-cotangent",
            "gl2-cotangent:3",
            "sl2-irrep:6",
            "sl2-adjoint:2",
            "trivial:sl2",
            "trivial:gl2",
            "trivial:sl3",
            "trivial:gl3",
            "adjoint:gl2",
            "adjoint:gl3",
            "adjoint:sl3",
        ]
        for key in keys:
            doc = catalog_emit(key)
            report, code = run("validate", doc)
            assert code == EXIT_OK, key
            assert report["status"] == "ok"

    def test_roundtrip_through_json(self):
        doc = catalog_emit("gl2-cotangent")
        again = document_from_dict(doc.to_dict())
        assert again == doc
        with_degree = replace(doc, max_degree=3)
        assert document_from_dict(with_degree.to_dict()) == with_degree

    @pytest.mark.parametrize("key", ["gl2-cotangent:3", "sl2-irrep:4", "adjoint:sl3"])
    def test_emitted_document_reads_back_through_input(self, key, tmp_path, capsys):
        assert main(["catalog", "--catalog", key]) == EXIT_OK
        path = tmp_path / "doc.json"
        path.write_text(capsys.readouterr().out)
        assert main(["strata", "--input", str(path)]) == EXIT_OK
        via_input = json.loads(capsys.readouterr().out)
        assert main(["strata", "--catalog", key]) == EXIT_OK
        assert via_input == json.loads(capsys.readouterr().out)


class TestRunCommands:
    def test_validate_weakly_symmetric(self):
        doc = {
            "name": "scaled-pair",
            "rank": 1,
            "weyl_generators": [],
            "g_weights": [{"alpha": [0], "multiplicity": 1}],
            "v_weights": [
                {"alpha": [1], "multiplicity": 1},
                {"alpha": [-2], "multiplicity": 1},
            ],
        }
        report, code = run("validate", parse_input(json.dumps(doc)))
        assert code == EXIT_OK
        assert report["symmetry_class"] == "weakly_symmetric"

    def test_strata_counts(self):
        report, code = run("strata", catalog_emit("torus2-cotangent"))
        assert code == EXIT_OK
        assert report["strata_count"] == 4
        assert report["orbit_count"] == 4

    def test_bps_report_for_quartic_forms(self):
        report, code = run("bps", catalog_emit("sl2-irrep:5"))
        assert code == EXIT_OK
        sections = {s["stratum"]: s for s in report["bps"]}
        top = report["strata_count"] - 1  # the everything-fixed stratum sorts last
        assert sections[top]["dt_table"] == {"-2": 1}
        assert sections[0]["dt_table"] == {"0": 1}

    def test_orbit_filter(self):
        report, _ = run("bps", catalog_emit("gl2-cotangent"), orbit=1)
        assert [s["orbit"] for s in report["bps"]] == [1]

    def test_verify_passes(self):
        report, code = run("verify", catalog_emit("gl2-cotangent"), max_degree=4)
        assert code == EXIT_OK
        assert report["status"] == "ok"
        assert report["verification"]["hilbert_passed"]
        assert report["verification"]["isomorphism_passed"]
        assert report["verification"]["associativity_passed"]

    def test_molien_series(self):
        report, code = run("molien", catalog_emit("gl2-cotangent"), max_degree=5)
        assert code == EXIT_OK
        assert report["molien"] == [1, 1, 2, 2, 3, 3]

    def test_default_max_degree_from_strata(self):
        report, _ = run("verify", catalog_emit("sl2-irrep:2"))
        assert report["max_degree"] == 3  # largest fixed space is 2-dim

    def test_deterministic_json(self):
        first, _ = run("verify", catalog_emit("torus2-cotangent"), max_degree=4)
        second, _ = run("verify", catalog_emit("torus2-cotangent"), max_degree=4)
        assert json.dumps(first) == json.dumps(second)


class TestMain:
    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert "catalog_keys" in out

    def test_catalog_emit(self, capsys):
        assert main(["catalog", "--catalog", "sl2-irrep:4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 1

    @pytest.mark.parametrize("key", [None, *CATALOG_INSTANCES])
    def test_catalog_bytes(self, key, capsys):
        """The catalog listing and every entry print json.dumps(indent=2)'s
        bytes and a newline."""
        if key is None:
            argv, listing = ["catalog"], {"catalog_keys": list(catalog_keys())}
        else:
            argv, listing = ["catalog", "--catalog", key], catalog_emit(key).to_dict()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(listing, indent=2) + "\n"

    def test_strata_via_catalog(self, capsys):
        assert main(["strata", "--catalog", "gl2-cotangent"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["strata_count"] == 5

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "gl2.json"
        path.write_text(json.dumps(GL2_DOC))
        assert main(["validate", "--input", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["symmetry_class"] == "symmetric"

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["validate", "--input", str(path)]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"

    @pytest.mark.parametrize("make", ["missing", "directory", "not-utf8"])
    def test_unreadable_input_is_a_validation_failure(self, make, tmp_path, capsys):
        path = tmp_path / "doc.json"
        if make == "directory":
            path.mkdir()
        elif make == "not-utf8":
            path.write_bytes(b"\xff\xfe")
        assert main(["strata", "--input", str(path)]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"
        assert str(path) in out["error"]

    @pytest.mark.parametrize("command", ["verify", "molien"])
    def test_negative_max_degree_is_rejected(self, command, capsys):
        argv = [command, "--catalog", "adjoint:gl2", "--max-degree", "-1"]
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"
        assert out["error"].startswith("max_degree:")
        with pytest.raises(InputError, match="max_degree"):
            run(command, catalog_emit("adjoint:gl2"), max_degree=-1)

    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10**8, 10**20 - 1])
    @pytest.mark.parametrize("command", ["verify", "molien"])
    def test_max_degree_above_the_bound_is_rejected(self, command, degree, capsys):
        # 10**20 - 1 overflowed a list size in molien_coefficients and 10**8
        # never ended; both now stop before any work
        argv = [command, "--catalog", "adjoint:gl2", "--max-degree", str(degree)]
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "validation_failed",
                       "error": f"max_degree: expected at most {MAX_DEGREE}, got {degree}"}
        with pytest.raises(InputError, match=f"^max_degree: expected at most {MAX_DEGREE}"):
            run(command, catalog_emit("adjoint:gl2"), max_degree=degree)

    def test_max_degree_at_the_bound_is_accepted(self):
        assert MAX_DEGREE >= 16  # the degree the benchmark's sweep verifies to
        report, code = run("molien", catalog_emit("adjoint:gl2"), max_degree=MAX_DEGREE)
        assert code == EXIT_OK
        assert len(report["molien"]) == MAX_DEGREE + 1

    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10**20])
    def test_document_max_degree_above_the_bound_is_rejected(self, degree, tmp_path, capsys):
        message = f"options.max_degree: expected at most {MAX_DEGREE}, got {degree}"
        with pytest.raises(InputError, match=f"^{message}$"):
            document_from_dict({**GL2_DOC, "options": {"max_degree": degree}})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**GL2_DOC, "options": {"max_degree": degree}}))
        assert main(["molien", "--input", str(path)]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out) == {
            "status": "validation_failed", "error": message}
        assert document_from_dict(
            {**GL2_DOC, "options": {"max_degree": MAX_DEGREE}}).max_degree == MAX_DEGREE

    def test_text_format(self, capsys):
        assert main(["strata", "--catalog", "torus2-cotangent", "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "strata:" in out
        assert "flat_dim=2" in out

    def test_text_format_error_has_no_command_line(self, capsys):
        argv = ["verify", "--catalog", "nosuch", "--format", "text"]
        assert main(argv) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.startswith("status: validation_failed\nerror: ")
        assert "command" not in out

    @pytest.mark.parametrize("argv,error", [
        (["verify"], "exactly one of --input or --catalog is required"),
        (["frob", "--catalog", "gl2-cotangent"], "argument command: invalid choice: 'frob'"),
        (["verify", "--catalog", "gl2-cotangent", "--max-degree", "abc"],
         "argument --max-degree: invalid int value: 'abc'"),
        # no format was parsed, so the report is JSON
        (["strata", "--catalog", "gl2-cotangent", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
    ], ids=["no-source", "unknown-command", "non-integer-degree", "unknown-format"])
    def test_usage_error_is_a_validation_failure(self, argv, error, capsys):
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"
        assert out["error"].startswith(error)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cohint")

    @pytest.mark.parametrize("command", ["strata", "verify", "molien", "validate"])
    def test_orbit_is_rejected_outside_bps(self, command, capsys):
        argv = [command, "--catalog", "gl2-cotangent", "--orbit", "99"]
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"
        assert out["error"] == f"--orbit applies only to bps, not to {command}"
        with pytest.raises(InputError, match="--orbit applies only to bps"):
            run(command, catalog_emit("gl2-cotangent"), orbit=0)

    @pytest.mark.parametrize("command", ["validate", "strata", "bps"])
    def test_max_degree_is_rejected_outside_verify_and_molien(self, command, capsys):
        argv = [command, "--catalog", "gl2-cotangent", "--max-degree", "3"]
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out == {"status": "validation_failed", "error": (
            f"--max-degree applies only to verify and molien, not to {command}")}
        with pytest.raises(InputError, match="^--max-degree applies only to verify and molien"):
            run(command, catalog_emit("gl2-cotangent"), max_degree=3)

    @pytest.mark.parametrize("command", ["validate", "strata", "bps"])
    def test_document_max_degree_is_accepted_by_every_report(self, command):
        doc = document_from_dict({**GL2_DOC, "options": {"max_degree": 3}})
        assert doc.max_degree == 3
        assert run(command, doc)[1] == EXIT_OK

    def test_group_cap_flag(self, capsys):
        code = main(["validate", "--catalog", "trivial:sl3", "--group-cap", "2"])
        assert code == EXIT_VALIDATION

    def test_group_cap_flag_overrides_the_document_cap(self, tmp_path, capsys):
        doc = catalog_emit("adjoint:gl3").to_dict()
        doc["options"] = {"group_cap": 2}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path), "--group-cap", "100"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["weyl_order"] == 6
        assert main(["validate", "--input", str(path)]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert "group not finite within cap (cap=2)" in out["error"]
        assert "raise --group-cap" in out["error"]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("source", ["input", "catalog"])
    def test_group_cap_below_one_is_rejected(self, cap, source, tmp_path, capsys):
        if source == "input":
            path = tmp_path / "gl2.json"
            path.write_text(json.dumps(GL2_DOC))
            argv = ["validate", "--input", str(path)]
        else:
            argv = ["validate", "--catalog", "torus2-cotangent"]
        assert main([*argv, "--group-cap", cap]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "status": "validation_failed",
            "error": f"--group-cap: expected a positive integer, got {cap}",
        }

    @pytest.mark.parametrize("command", ["validate", "strata", "verify"])
    @pytest.mark.parametrize("source", ["input", "catalog"])
    @pytest.mark.parametrize("group_cap", [[], ["--group-cap", "100"]], ids=["no-cap", "cap"])
    def test_each_report_enumerates_its_group_once(
        self, command, source, group_cap, monkeypatch, tmp_path, capsys
    ):
        from cohint import arrangement, cli, weyl

        calls = []
        enumerate_group = weyl.enumerate_group

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_group(*args, **kwargs)

        for module in (weyl, arrangement, cli):
            monkeypatch.setattr(module, "enumerate_group", counting)
        if source == "input":
            path = tmp_path / "gl2.json"
            path.write_text(json.dumps(GL2_DOC))
            argv = [command, "--input", str(path)]
        else:
            argv = [command, "--catalog", "gl2-cotangent"]
        degree = ["--max-degree", "2"] if command == "verify" else []
        assert main([*argv, *group_cap, *degree]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["validate", "strata", "bps", "verify", "molien"])
    def test_doubled_roots_are_rejected(self, command, tmp_path, capsys):
        # gl2 on C^2 + (C^2)* with its roots doubled in g, and the adjoint of
        # gl2 with its roots doubled in g and in V alike
        weights = [{"alpha": [0, 0], "multiplicity": 2},
                   {"alpha": [1, -1], "multiplicity": 2},
                   {"alpha": [-1, 1], "multiplicity": 2}]
        message = "g_weights entry (-1, 1) has multiplicity 2; a root has multiplicity 1"
        for v_weights in (GL2_DOC["v_weights"], weights):
            path = tmp_path / "doubled-roots.json"
            doc = {**GL2_DOC, "g_weights": weights, "v_weights": v_weights}
            path.write_text(json.dumps(doc))
            argv = [command, "--input", str(path)]
            if command in ("verify", "molien"):
                argv += ["--max-degree", "2"]
            assert main(argv) == EXIT_VALIDATION
            assert json.loads(capsys.readouterr().out) == {
                "status": "validation_failed", "error": message,
            }
            assert main([*argv, "--format", "text"]) == EXIT_VALIDATION
            assert capsys.readouterr().out == f"status: validation_failed\nerror: {message}\n"

    @pytest.mark.parametrize("command", ["validate", "strata", "bps", "verify", "molien"])
    def test_no_warnings_key_without_warnings(self, command):
        # validation has no non-fatal outcome, so no report carries warnings
        degree = {"max_degree": 2} if command in ("verify", "molien") else {}
        for key in CATALOG_INSTANCES:
            report, _ = run(command, catalog_emit(key), **degree)
            assert "warnings" not in report, key

    @pytest.mark.parametrize("command", ["validate", "strata", "verify"])
    def test_each_report_classifies_v_once(self, command, monkeypatch, capsys):
        from cohint import arrangement, cli, lattice

        calls = []
        symmetry_class = lattice.symmetry_class

        def counting(v_weights):
            calls.append(v_weights)
            return symmetry_class(v_weights)

        for module in (lattice, arrangement, cli):
            monkeypatch.setattr(module, "symmetry_class", counting)
        degree = ["--max-degree", "2"] if command == "verify" else []
        assert main([command, "--catalog", "gl2-cotangent", *degree]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--input", ["--input", "doc.json"]),
            ("--orbit", ["--orbit", "0"]),
            ("--max-degree", ["--max-degree", "2"]),
            ("--group-cap", ["--group-cap", "100"]),
            ("--format text", ["--format", "text"]),
        ],
    )
    def test_catalog_rejects_report_flags(self, flag, argv, capsys):
        for key in (["--catalog", "gl2-cotangent"], []):
            assert main(["catalog", *key, *argv]) == EXIT_VALIDATION
            out = capsys.readouterr().out
            assert f"{flag} applies only to the report commands, not to catalog" in out

    def test_internal_assertion_exit_code(self, monkeypatch, capsys):
        from cohint import cli
        from cohint.errors import InternalCheckError

        def boom(*args, **kwargs):
            raise InternalCheckError("kernel sum is not polynomial")

        monkeypatch.setattr(cli, "enumerate_strata", boom)
        assert main(["strata", "--catalog", "gl2-cotangent"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "internal_error"

    def test_report_roundtrips_through_json(self):
        for command in ("bps", "verify"):
            report, _ = run(command, catalog_emit("gl2-cotangent"))
            assert json.loads(json.dumps(report)) == report

    def test_each_bps_space_is_built_once(self, monkeypatch):
        from cohint import integrality

        built, signs, forms, kernels, series = [], [], [], [], []
        bps_space, epsilon = integrality.bps_space, integrality.epsilon
        averaged_form = integrality.averaged_form
        kernel, target_series = integrality.kernel, integrality.target_series

        def counting(strat, stratum):
            built.append(stratum.index)
            return bps_space(strat, stratum)

        def counting_epsilon(strat, stratum):
            signs.append(stratum.index)
            return epsilon(strat, stratum)

        def counting_form(group):
            forms.append(group.order)
            return averaged_form(group)

        def counting_kernel(strat, mu, target):
            kernels.append((mu, target))
            return kernel(strat, mu, target)

        def counting_series(strat, cutoff):
            series.append(cutoff)
            return target_series(strat, cutoff)

        monkeypatch.setattr(integrality, "bps_space", counting)
        monkeypatch.setattr(integrality, "epsilon", counting_epsilon)
        monkeypatch.setattr(integrality, "averaged_form", counting_form)
        monkeypatch.setattr(integrality, "kernel", counting_kernel)
        monkeypatch.setattr(integrality, "target_series", counting_series)
        doc = catalog_emit("gl2-cotangent")
        strat = enumerate_strata(doc)
        assert main(["verify", "--catalog", "gl2-cotangent"]) == EXIT_OK
        assert len(built) == len(strat.orbits)
        assert sorted(signs) == sorted(members[0] for members in strat.orbits)
        assert len(forms) == 1
        assert kernels and len(set(kernels)) == len(kernels)
        assert len(series) == 1
        built.clear()
        assert main(["bps", "--catalog", "gl2-cotangent", "--orbit", "0"]) == EXIT_OK
        assert built == [strat.orbits[0][0]]


# Strs mixing ASCII, quotes, backslashes, control characters, non-ASCII and
# astral characters.
TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-(2**200), max_value=2**200) | st.floats() | TEXT)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.lists(st.integers(min_value=-(2**100), max_value=2**100))
                      | st.dictionaries(TEXT, children)),
    max_leaves=20,
)


class TestIndentedJson:
    """cli._indented writes json.dumps(value, indent=2)'s bytes."""

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES)
    @example({"": {}, "a": [[], {}, [[], [{}]], ()], "b": [{"c": []}]})
    @example([[-1, 2**64, -(2**130)], (True, False, None), "\"\\\x01\u00ff"])
    def test_matches_json_dumps(self, value):
        assert _indented(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1: 2}, {"a": [{None: 0}]}, {("a",): 0}])
    def test_a_non_str_key_raises(self, value):
        with pytest.raises(TypeError):
            _indented(value)
