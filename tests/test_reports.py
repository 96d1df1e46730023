"""Golden stdout of ``strata``, ``verify``, ``bps`` and ``validate`` reports,
and of the error reports of documents that fail validation.

``report_hashes.json`` holds the exit code and the SHA-256 of the stdout of
every report that ``scripts/report_hashes.py`` lists (368 of them), as that
script printed them before the Weyl group's permutation rows moved into its
closure; ``test_every_listed_report_matches_its_recorded_hash`` compares them
all.  The tables below pin some of the same reports under their own test
names, with their own history, and reports outside that list.

Each SHA-256 below is the hash of the JSON report the command prints.  The
``strata`` hashes were recorded before the group layer stopped building a
multiplication table; the reports carry every stratum's orbit and stabilizer
orders, so these hashes pin them byte for byte.  The ``verify`` and ``bps``
hashes were recorded before BPS spaces, kernel characters, the averaged form
and induction data were memoised on the stratification; they pin every DT
table, kernel character and ledger row.  The ``validate`` and error hashes
were recorded while the parser still validated every document and enumerated
its group; they pin the reported Weyl group orders and the error that a
document failing several checks reports.  The four error hashes of the two
shear documents were re-recorded when validation began to require every Weyl
generator to be the reflection in a root; the group-cap error they pinned
before is pinned by the root-reflection infinite group, unchanged.  The
``validate`` hashes were re-recorded when the reports lost their
always-empty ``warnings`` list (a doubled root became an input error), and
the two error hashes of the non-invertible generator when validation stopped
inverting generators: diag(2, 1) now fails the stability of ``g_weights``,
the first rule it breaks.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cohint.cli import EXIT_OK, EXIT_VALIDATION, main

from conftest import gl_document

CATALOG = {
    "torus2-cotangent":
        "ee237e69c09192e8a68cc88cb3b534acde6a6d4104a5831a4b5cbf95e8090a82",
    "gl2-cotangent":
        "1f3590643be1e605e8dd92f24725a6ef3e5fa19cfbfac4c81ecfefda4b42f770",
    "gl2-cotangent:3":
        "36949193b428a7be3443c4188c9b240a225ab0b90250806c4459539fd3eca03a",
    "sl2-irrep:3":
        "16d3c02abf3d709720d98fd796cdf1070aa28c51d9acd3144a8d55eeb064db81",
    "sl2-adjoint:2":
        "b95c1854978d1be1d02957672ade71a919f2da486d12d61789f0447eccf0d05d",
    "trivial:gl2":
        "57be9131b52a464727706bce2f5fe57d45989c4a4c15070cf2b73fa4eba69ae9",
    "trivial:gl3":
        "d991f986c83396a34ef2e429d22b2884ad2d4b99677bb1577fa153d71d69fbf3",
    "trivial:sl2":
        "211094059b9c4f6a300bdb406100d7803aa7669618c35486ac9bf78b010f18c3",
    "trivial:sl3":
        "6cde41f1c77af80b514cb259eff6f27a71651682e5ca3e36d31b4293cd7734cd",
    "trivial:torus2":
        "8659de14c0bd25fc7c57b1b85580f5f9bb0b1db5441181342564510a7e5d6d67",
    "adjoint:gl2":
        "817232f67abd03d053f056a11bd4c5a59dcb19e2b43ac08818f1e0d8f05c414e",
    "adjoint:gl3":
        "da31d435070910cbf96e317686c72927836190a74d1c6db1b098b4aaf1974e78",
    "adjoint:sl2":
        "7c7ec17515d6a1e5267b218feab42bb0166a2d4e82a7081a3d2bd263bd6d57d1",
    "adjoint:sl3":
        "489c5469c06119ef6cc1f19349220cc0e41b6ad6426552263d21d701429bf059",
    "adjoint:torus2":
        "a6a10056c95738ca6cb2894c54176c5b1aa8a6c38775dd54bcdffa3b67b1316c",
}

# Reports of ``verify --max-degree 8``, ``bps`` and ``bps --orbit 0`` over the
# catalog keys above.
COMPUTED = {
    ("verify", "--max-degree", "8"): {
        "adjoint:gl2":
            "f6e38c3bcde6700b1f3ea7a4a7264af1e64fd327374493fd9e5b281a48da73c6",
        "adjoint:gl3":
            "3210e500f572be4147e5d77b847267849152fe153c129156fd00c233160ffddb",
        "adjoint:sl2":
            "388c502298a7cdb7d81a9279692735750c1d404bf1f3ee41e2ff0441ea8bb3a9",
        "adjoint:sl3":
            "0606b8c5e044b6871caa487bb900a47afc18c4ee0f52dd538491c87e4ef4abd3",
        "adjoint:torus2":
            "3f7b279e991e63fe6520d993530c93380928ca46d25e6839412dcb58caced99d",
        "gl2-cotangent":
            "084d2be826dbbdc71aad5d52b01ede6ea867f8234fc091c8d3b700795fa21312",
        "gl2-cotangent:3":
            "0f7af2e4cf2548aec459320b757ca249d3a2c714b7fd9770373fdedd7fc1ce4b",
        "sl2-adjoint:2":
            "a0f92b1d82ffac80893e91de904db057f8792c5d95e74b87e7b5512652c2ff13",
        "sl2-irrep:3":
            "94c24dc10afc815f609d4bdb977b2f17ede935d29c697caaa1a78902921ace25",
        "torus2-cotangent":
            "0c61dce44e33a0a8ba7572f2e664585dd73993b21d06efebd035c86ea8bca771",
        "trivial:gl2":
            "b9a275d25931927345e77c17258029d556ec173c8e6a32247a6a56488a160dbb",
        "trivial:gl3":
            "5a798672160384082a5d936c40c4d011f79318e31964b6cdff0522fde64e2bd0",
        "trivial:sl2":
            "a7a1c3e49ee423260597cc8f98af50b58865f0b61632a98e34e4eeb546928509",
        "trivial:sl3":
            "ff5efd716d27612bf415afe659f066cb284c4ce368de05b477232b69a5e7bfed",
        "trivial:torus2":
            "ac84a710619d54b09c84ea9983e2dd38defc52e85bef34e8891307b43248936e",
    },
    ("bps",): {
        "adjoint:gl2":
            "9a469ae957e7e97769e1106666334bb544e1d5dfb31539c852d5cc79b301892c",
        "adjoint:gl3":
            "15ec3ba29d77fa61d3a7b7812daa82590b93b167a1867fe29acfbbe58bcab7bf",
        "adjoint:sl2":
            "0be1b670bb23bf76355c680c6a743fb82916c8047a27a3fc1d728405ea23e4d5",
        "adjoint:sl3":
            "08c53d82033936ac7ee2c4a7d7ab98194c229977d2e15f71e7e755a46c8a375f",
        "adjoint:torus2":
            "f90272580407921d3e8b74aea89a0604c475849866bb2ddecb12b892a88bed1a",
        "gl2-cotangent":
            "9b63d9e885e1be9c05781b65a8d06e8f0c231b137d4cec366f783356e8d86618",
        "gl2-cotangent:3":
            "63c2027069c635f0209f670874fd7b81f7c85aec3efb3267cdaaecdf98be7dbe",
        "sl2-adjoint:2":
            "243fa11e59b8b3f72398620e1f92cd54c6dd347ad387c042b6123473a9b8a1c1",
        "sl2-irrep:3":
            "bb84a6e7391401374af173a9e67cf0d46c23915666910d1445d6b98361bf5268",
        "torus2-cotangent":
            "8e2748e652cb72746b9d54f353627ee3d254272d09e5616ab874ccc27bb0329e",
        "trivial:gl2":
            "679ae74a2eb13d0d23d19c753f530175773cee535c405c1475f04a02729836ff",
        "trivial:gl3":
            "379cdb1e8e789f38a687a19da3da931e4e77bc5b67fc688080c4e7b0caf89e23",
        "trivial:sl2":
            "2bbf788c23b1c45d05c23eb4a346b865eae550d63e81d107079dea6bde44f696",
        "trivial:sl3":
            "bd875ad889144a22f5491b6fa3e4820283e959ce1643679ba6e89d75b8a382f8",
        "trivial:torus2":
            "9f75a4f6665997832961fb86264b069d0ef11221150deba43beb0bf6f50e2631",
    },
    ("bps", "--orbit", "0"): {
        "adjoint:gl2":
            "3cc2aca84c8f3f18a9e1a020589a0ecb61c8d557208a849e759b507e6941c3bf",
        "adjoint:gl3":
            "f7b5744bce0f967e23bf936d6d0ec6cef03a6e1c4709b4ecbfe8201c0f9ecd0a",
        "adjoint:sl2":
            "ef995ba8b26412bbaf3c1e0e43848cedbdf980fc78961efed40fb3dfaafa3209",
        "adjoint:sl3":
            "f8a8f5ae005a2d5843b100d9bccac4f45beb5f52ffaba30134ec962f0b055e0f",
        "adjoint:torus2":
            "f90272580407921d3e8b74aea89a0604c475849866bb2ddecb12b892a88bed1a",
        "gl2-cotangent":
            "4de95419f8619d52a6f3c03b91ff64eb5661f0bb56bb6e1040d648415c9accf2",
        "gl2-cotangent:3":
            "461b9647f33f7db41fea300be510362144146edf0795eb53a9da4e34c780d30f",
        "sl2-adjoint:2":
            "edef032e0b7c459bc9a222c9c9949daeb8d33824fddb771d385d245b9bd1b9d3",
        "sl2-irrep:3":
            "b66b838e70e7e127965669521b35fee383a1f8055b411027f5e67ef1c6ad3f20",
        "torus2-cotangent":
            "145cdbd21201a1789171f263e07398affb94a9aa211b6f0e47fbb98db4e62862",
        "trivial:gl2":
            "a13688bfe09156950a6e9e457eae148e5c097b9a10b91dab31d6ff860fc4c923",
        "trivial:gl3":
            "3b48b31b6d441280e09e893226a3733806be9ffd93d1d834b74a14cecf97ca74",
        "trivial:sl2":
            "29a58118e97d1e74af86df0d31746800f6711c8e5385ad7139fa68411f302e0e",
        "trivial:sl3":
            "77014c32f663afd61a8be7bd282b3065c724e08dfe1df1944456a245a28b0873",
        "trivial:torus2":
            "9f75a4f6665997832961fb86264b069d0ef11221150deba43beb0bf6f50e2631",
    },
}

# Text reports of ``verify --max-degree 6 --format text``, recorded while the
# ledger rows of the JSON report were written out field by field; they pin the
# text rendering of every ledger row.
TEXT_VERIFY = {
    "adjoint:sl3":
        "7ea59e009a4266740fbdd7868f273243ec85daa18cb46b96abb0ae3904957a92",
    "gl2-cotangent":
        "13035d1ad14af697b9c1191cea2e6aae7804da490c8a8aafd12efe6aeb8e47c1",
}

# (kind, multiplicity of the nonzero v weights, multiplicity of the zero weight)
GL4_DOCUMENTS = {
    ("adjoint", 1, 0):
        "d1ed4d7ef38b099237d08fc1322ef37a83ee781352469331d0408d970910d988",
    ("adjoint", 3, 2):
        "01cc954bdb53c679ab884c346a96e485a428c6c878294e42f0a7d1f7bb8a8284",
    ("cotangent", 1, 0):
        "c8ae53ee8606b373c2bb9ae5bcc457216410bf3465482412c0c275b2244d0e57",
    ("cotangent", 2, 4):
        "bd073e9af7a4b4b352335729ca01dbd533d87d25aae0cf38d8121c498c39b78a",
}

# ``strata`` reports of gl5 acting by its adjoint and on C^5 + (C^5)*, recorded
# while every point stabilizer was a scan of the whole Weyl group and every
# element's weight permutation was read off its own matrix.
GL5_DOCUMENTS = {
    ("adjoint", 1, 0):
        "ca572bf55df410ef9cf5d8766dd7ffc59e1af4fad4cc1195787b43d08416864b",
    ("cotangent", 1, 0):
        "1d3099d1868c8c75015d57f7a1e0bbde0f3380340ee75fa4b8a5e1eef5e378b2",
}


# Reports of ``validate`` over the catalog keys and the gl4 documents above.
VALIDATE_CATALOG = {
    "adjoint:gl2":
        "b9abdc7845226bf9fe05e6d283135b97dba2514a56d776cdf0067c0613c1cd01",
    "adjoint:gl3":
        "4f399cc64b94994e8cd718652868ffdee9a71d916c569dafbeae38b733f032f4",
    "adjoint:sl2":
        "c20b5e543f8bc5727f2884f4d65ffe382fff1be5b91a8671d34fb6788140239a",
    "adjoint:sl3":
        "28c1cbf946652f370189732a94fbc04255484f6d735a610a0a55e5e77516c01f",
    "adjoint:torus2":
        "8dd6b990d87ab7400c99f03989eaad5c9247cb891cfd3d9d49723b9feb8dcbc9",
    "gl2-cotangent":
        "3fd795937183018901dfaaf1c7e3fc028e6625f69ca0c5e15a00036a1c4bd4b9",
    "gl2-cotangent:3":
        "4162e0bed18cb42966d4c36fcb41884a897b1795c189402ace5b52238f52419b",
    "sl2-adjoint:2":
        "69e9447fd0b6771924c3b3df3e1b78dfffe7ca8f64abf4e4d16c2c42ada12f04",
    "sl2-irrep:3":
        "4b80df982c414e7dd8b9c8ccee4c60071701e4cbd3baca7dcb7fd09ff09aa4a2",
    "torus2-cotangent":
        "0980fb53d0c853e8e846020b18f171da2ce8f7944bf81937dda30c387a409dfb",
    "trivial:gl2":
        "30599c9d7beb5c74c74cac86dd8359451732dc86e7c33e5fbdb4a8c0686d5f08",
    "trivial:gl3":
        "64b7016e376cf3a20440a14a34a9d45ee19eb89e43e025b8180b7f02f9b11177",
    "trivial:sl2":
        "9e7d680c696f41afb8b2a7b79a0a99e02bb82e694e5cbcad6c2f4db8f91f5552",
    "trivial:sl3":
        "621bfbf148c29a75c7df958f4eb341ef3c10339a1eccec9cc215b355bbf5c2a9",
    "trivial:torus2":
        "475bcfad638e396759a661303298d72963ae67a9e0e8f7a49f322f5283837fd7",
}
VALIDATE_GL4 = {
    ("adjoint", 1, 0):
        "dba5aa52760ff525247f9b40e8c53a94ac6779707844e47593d304af688aa35c",
    ("adjoint", 3, 2):
        "41759e9b90adc93517714f1157725732ea6342379858686cec3eaf0ca1d8fdfe",
    ("cotangent", 1, 0):
        "d4ca5379aaa757b240bb5454c1bccf608201044ccaef47bba4e4f1d0422e4f3b",
    ("cotangent", 2, 4):
        "ec067303918c0c1db64778efa3918fcc9752cec78ad4cf2f43b2320d44728d4a",
}

def _gl2_edited(**fields) -> dict:
    doc = gl_document(2, "cotangent", 1, 0)
    doc.update(fields)
    return doc


# Documents that fail validation.  The shear would generate an infinite
# group, but it is not the reflection in a root, which validation reports
# first; the second shear document also fails weak symmetry, and reports the
# shear.  Two reflections in the same root generate an infinite group, which
# fails at the cap.
ERROR_DOCUMENTS = {
    "infinite-group": _gl2_edited(
        weyl_generators=[[[1, 1], [0, 1]]],
        g_weights=[{"alpha": [0, 0], "multiplicity": 2}],
        v_weights=[],
        options={"group_cap": 50},
    ),
    "infinite-group-not-weakly-symmetric": _gl2_edited(
        weyl_generators=[[[1, 1], [0, 1]]],
        g_weights=[{"alpha": [0, 0], "multiplicity": 2}],
        v_weights=[{"alpha": [1, 0], "multiplicity": 1}],
        options={"group_cap": 50},
    ),
    "root-reflection-infinite-group": _gl2_edited(
        weyl_generators=[[[-1, 0], [0, 1]], [[-1, -2], [0, 1]]],
        g_weights=[{"alpha": [0, 0], "multiplicity": 2},
                   {"alpha": [1, 0], "multiplicity": 1}, {"alpha": [-1, 0], "multiplicity": 1}],
        v_weights=[],
        options={"group_cap": 50},
    ),
    "non-invertible-generator": _gl2_edited(weyl_generators=[[[2, 0], [0, 1]]]),
    "unstable-v-weights": _gl2_edited(
        v_weights=[{"alpha": [1, 0], "multiplicity": 1}, {"alpha": [-1, 0], "multiplicity": 1}],
    ),
}

# Error reports of (command, document) above, all with exit code 1.
ERROR_REPORTS = {
    ("strata", "infinite-group"):
        "aa21c1e09d7541a1cde3bc85fc7460e4bf165f63b367bdb74ce834b55ce6549a",
    ("validate", "infinite-group"):
        "aa21c1e09d7541a1cde3bc85fc7460e4bf165f63b367bdb74ce834b55ce6549a",
    ("strata", "infinite-group-not-weakly-symmetric"):
        "aa21c1e09d7541a1cde3bc85fc7460e4bf165f63b367bdb74ce834b55ce6549a",
    ("validate", "infinite-group-not-weakly-symmetric"):
        "aa21c1e09d7541a1cde3bc85fc7460e4bf165f63b367bdb74ce834b55ce6549a",
    ("strata", "root-reflection-infinite-group"):
        "a623200219abf2374bed3ca85922de2ee1fec1a1abf25c52fc9dbf1d4ad8736e",
    ("validate", "root-reflection-infinite-group"):
        "a623200219abf2374bed3ca85922de2ee1fec1a1abf25c52fc9dbf1d4ad8736e",
    ("strata", "non-invertible-generator"):
        "0252a702248ade7782d578a44732b4f5d69aba45eb16741b8eee62dca7fa7458",
    ("validate", "non-invertible-generator"):
        "0252a702248ade7782d578a44732b4f5d69aba45eb16741b8eee62dca7fa7458",
    ("strata", "unstable-v-weights"):
        "a134d3e245bf874062930e5164866dc1235b34fcc9ae98e016e565e3fbad712a",
    ("validate", "unstable-v-weights"):
        "a134d3e245bf874062930e5164866dc1235b34fcc9ae98e016e565e3fbad712a",
}

# Error reports of ``<command> --catalog trivial:sl3 --group-cap 2`` (|W| = 6).
CATALOG_CAP_ERRORS = {
    "strata":
        "1ab927e6122cccc05abed3baf7d7ea89d172caf1cc587619a1c0e8ced93d89e5",
    "validate":
        "1ab927e6122cccc05abed3baf7d7ea89d172caf1cc587619a1c0e8ced93d89e5",
}


def load_script(name: str):
    """scripts/<name>.py as a module: report_hashes for its report list,
    ceiling for its reports and their pinned digests."""
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The large reports that scripts/ceiling.py times, with the digests it pins.
CEILING = {(argv, shape): digest for argv, shape, digest in load_script("ceiling").REPORTS}


def test_every_listed_report_matches_its_recorded_hash(tmp_path):
    script = load_script("report_hashes")
    recorded = json.loads((Path(__file__).parent / "report_hashes.json").read_text())
    listed = script.reports(str(tmp_path))
    assert [name for name, _ in listed] == list(recorded)
    differ = [name for name, argv in listed if script.report(main, argv) != recorded[name]]
    assert not differ, f"{len(differ)} of {len(listed)} reports differ: {differ}"


def stdout_sha256(argv, capsys, expected_code=EXIT_OK) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code, out
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_catalog_strata_report(key, capsys):
    assert stdout_sha256(["strata", "--catalog", key], capsys) == CATALOG[key]


@pytest.mark.parametrize("spec", sorted(GL4_DOCUMENTS), ids=lambda s: "-".join(map(str, s)))
def test_gl4_strata_report(spec, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gl_document(4, *spec)))
    assert stdout_sha256(["strata", "--input", str(path)], capsys) == GL4_DOCUMENTS[spec]


@pytest.mark.parametrize("spec", sorted(GL5_DOCUMENTS), ids=lambda s: "-".join(map(str, s)))
def test_gl5_strata_report(spec, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gl_document(5, *spec)))
    assert stdout_sha256(["strata", "--input", str(path)], capsys) == GL5_DOCUMENTS[spec]


@pytest.mark.parametrize(
    "argv,key",
    [(argv, key) for argv in COMPUTED for key in sorted(COMPUTED[argv])],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v,
)
def test_catalog_computed_report(argv, key, capsys):
    assert stdout_sha256([*argv, "--catalog", key], capsys) == COMPUTED[argv][key]


@pytest.mark.parametrize("key", sorted(TEXT_VERIFY))
def test_catalog_text_verify_report(key, capsys):
    argv = ["verify", "--catalog", key, "--max-degree", "6", "--format", "text"]
    assert stdout_sha256(argv, capsys) == TEXT_VERIFY[key]


@pytest.mark.parametrize("key", sorted(VALIDATE_CATALOG))
def test_catalog_validate_report(key, capsys):
    assert stdout_sha256(["validate", "--catalog", key], capsys) == VALIDATE_CATALOG[key]


@pytest.mark.parametrize("spec", sorted(VALIDATE_GL4), ids=lambda s: "-".join(map(str, s)))
def test_gl4_validate_report(spec, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gl_document(4, *spec)))
    assert stdout_sha256(["validate", "--input", str(path)], capsys) == VALIDATE_GL4[spec]


@pytest.mark.parametrize("command,name", sorted(ERROR_REPORTS))
def test_error_report(command, name, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(ERROR_DOCUMENTS[name]))
    digest = stdout_sha256([command, "--input", str(path)], capsys, EXIT_VALIDATION)
    assert digest == ERROR_REPORTS[(command, name)]


@pytest.mark.parametrize("command", sorted(CATALOG_CAP_ERRORS))
def test_catalog_group_cap_error_report(command, capsys):
    argv = [command, "--catalog", "trivial:sl3", "--group-cap", "2"]
    assert stdout_sha256(argv, capsys, EXIT_VALIDATION) == CATALOG_CAP_ERRORS[command]


@pytest.mark.parametrize("argv,spec", sorted(CEILING),
                         ids=lambda v: "-".join(map(str, v)))
def test_ceiling_report(argv, spec, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gl_document(*spec)))
    command, *options = argv
    digest = stdout_sha256([command, "--input", str(path), *options], capsys)
    assert digest == CEILING[argv, spec]
