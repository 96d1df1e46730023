"""Golden stdout of ``strata`` reports.

Each SHA-256 below is the hash of the JSON report ``cohint strata`` prints,
recorded before the group layer stopped building a multiplication table.
The reports carry every stratum's orbit and stabilizer orders, so these
hashes pin them byte for byte.
"""

import hashlib
import json

import pytest

from cohint.cli import EXIT_OK, main

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


def stdout_sha256(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_catalog_strata_report(key, capsys):
    assert stdout_sha256(["strata", "--catalog", key], capsys) == CATALOG[key]


@pytest.mark.parametrize("spec", sorted(GL4_DOCUMENTS), ids=lambda s: "-".join(map(str, s)))
def test_gl4_strata_report(spec, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(gl_document(4, *spec)))
    assert stdout_sha256(["strata", "--input", str(path)], capsys) == GL4_DOCUMENTS[spec]
