import json

import pytest

from cohint import InputError, catalog_emit, catalog_keys, enumerate_strata, parse_input
from cohint.cli import EXIT_OK, EXIT_VALIDATION, main, run
from cohint.documents import document_from_dict

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
        assert doc.v_weights.total() == 4

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed JSON"):
            parse_input("{not json")

    def test_wrong_alpha_length(self):
        bad = json.loads(json.dumps(GL2_DOC))
        bad["v_weights"][0]["alpha"] = [1]
        with pytest.raises(InputError, match=r"v_weights\[0\].alpha"):
            parse_input(json.dumps(bad))

    def test_non_invertible_generator(self):
        bad = json.loads(json.dumps(GL2_DOC))
        bad["weyl_generators"] = [[[2, 0], [0, 1]]]
        with pytest.raises(InputError, match="invertible"):
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
        bad = json.loads(json.dumps(GL2_DOC))
        bad["weyl_generators"] = [[[1, 1], [0, 1]]]
        bad["g_weights"] = [{"alpha": [0, 0], "multiplicity": 2}]
        bad["v_weights"] = []
        bad["options"] = {"group_cap": 50}
        with pytest.raises(InputError, match="not finite"):
            run("validate", parse_input(json.dumps(bad)))
        with pytest.raises(InputError, match="not finite"):
            run("strata", parse_input(json.dumps(bad)))

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

    @pytest.mark.parametrize("command", ["strata", "verify", "molien", "validate"])
    def test_orbit_is_rejected_outside_bps(self, command, capsys):
        argv = [command, "--catalog", "gl2-cotangent", "--orbit", "99"]
        assert main(argv) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "validation_failed"
        assert out["error"] == f"--orbit applies only to bps, not to {command}"
        with pytest.raises(InputError, match="--orbit applies only to bps"):
            run(command, catalog_emit("gl2-cotangent"), orbit=0)

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
        assert main([*argv, *group_cap, "--max-degree", "2"]) == EXIT_OK
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
        report, _ = run("bps", catalog_emit("gl2-cotangent"))
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
        strat = enumerate_strata(doc.group_data(), doc.rep_data())
        assert main(["verify", "--catalog", "gl2-cotangent"]) == EXIT_OK
        assert len(built) == len(strat.orbits)
        assert sorted(signs) == sorted(members[0] for members in strat.orbits)
        assert len(forms) == 1
        assert kernels and len(set(kernels)) == len(kernels)
        assert len(series) == 1
        built.clear()
        assert main(["bps", "--catalog", "gl2-cotangent", "--orbit", "0"]) == EXIT_OK
        assert built == [strat.orbits[0][0]]
