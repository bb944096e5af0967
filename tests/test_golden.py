"""Golden digests of everything the canonical order decides.

The canonical simplex order picks the free face a greedy collapse takes
first, orders each removed interval, and orders the facets of every
rendered complex.  The sha256 digests below were recorded from the
original per-comparison ``label_key`` ordering (the neighborhood-complex
greedy certificates from the rank-relabelling greedy collapse, the verify
reports from the order-complex route to Hom homology, the thm-1.2 reports
and the ``homcx homology`` outputs from homology of the greedily
collapsed core); a change to the order, to the collapse, to the homology
route or to the rendering changes them.  The thm-1.3 reports are the one
deliberate exception: they were re-recorded when the suite moved from
collapsed order complexes to the cellular homology of Hom, and now print
cell counts per dimension in place of chain and collapse counts.
"""

import hashlib
import json

import pytest

from homcx import (
    CORE_FIXTURE_NAMES,
    build_g_kx,
    certificate_to_dict,
    complete_graph,
    core_fixture,
    enumerate_hom,
    greedy_collapse,
    hom_order_complex,
    neighborhood_complex,
    run_suite,
    save_complex,
    save_graph,
    suite_to_dict,
)
from homcx.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CLI_OUTPUT = {
    ("collapse", "delta2"): "23e74d183621113b30f0366ab1572fb46bcd67caeca17d80839467f26f8f3a08",
    ("collapse", "boundary_delta3"): "1d72fa8ffd45397919269652454cc22fde6d7433d67cefef7f4f050dbfedb5c3",
    ("nerve", "boundary_delta3"): "d7fc75440b58e4d01866eef9e72bf40e1ba78b9913ffb0c0a54dfdcd69541034",
    ("klfilt", "boundary_delta3"): "05a3b46c79e998f65ccc66d5567d46caea4d332a0f0d43d4506f927c3574b2c3",
    ("sd", "boundary_delta2"): "85170499a406e975075365c96a156d8087f5774f1085d4c9a1f2033cf4781d28",
}

# `homcx homology` output, by homology profile
HOMOLOGY_OUTPUT = {
    "point": "48c9bff7de090f63dd0f8f3281c5160690e5587ec808b44aedfd864b06e0e8f2",
    "circle": "c56c96d7fba1582b953ce8cb4414d81e1812b1434562d86e99525836283d5833",
    "sphere": "b9b02e1eb3faf947ce3e9fa1166f4bdbfcdfe2fa0f34e240b23ae08940ee14a7",
    "two_circles": "3fabb0ee85a4794ad8256337702532250ecaac3a870f642fb0bbd18ee5b674b3",
    "projective_plane": "799de98c4f2bedc980b1a9b4bd0017b78a24400ec9c26b8b5c16b645dd9cb02b",
}
HOMOTOPY_TYPE = {
    "point": "point",
    "delta1": "point",
    "path2": "point",
    "boundary_delta2": "circle",
    "delta2": "point",
    "boundary_delta3": "sphere",
    "wedge_triangles": "two_circles",
    "rp2": "projective_plane",
}
CLI_OUTPUT.update(
    {("homology", name): HOMOLOGY_OUTPUT[kind] for name, kind in HOMOTOPY_TYPE.items()}
)

HOM_K2_CIRCLE_POSET = "3d696f6f0bf7e437ba0aed1e111a7ff9e766dd990a156d18dcfa4b2dfb4e7ea0"

HOM_K2_CIRCLE_GREEDY_CERTIFICATE = (
    "6f33a0cbd5146821fa7357772ffaf916a4130e958b78c2e8f0aa831935b22277"
)

# greedy certificates of the neighborhood complexes N(G(X)), frozenset labels
NBHD_GREEDY_CERTIFICATES = {
    "point": "12a38459c58325cf623fe508bcdc10cea4746427c2fa107725e66505d93b1801",
    "delta1": "da3c79ddf4bbe014e25e4cf67536d6191d23eec3b630d1a9d6917bc893dbccc2",
    "path2": "28dc701f2612b6c0c831a196b0a792905c6725fd8b1794af5b93437f04a62539",
    "boundary_delta2": "cb35ce9aa7799979002df8ae7c03ba1ed4693fee61cd0314a99381b42fb45f06",
    "delta2": "94f2108f131ba36f623e0e854a82cfc5afb58c8045c4b992d9d8494d49326778",
    "boundary_delta3": "e1bfa331a5b8eb26e9367f4d461753b735feee9106e67f09b2edf08367898980",
    "wedge_triangles": "cfd2cf54e05180270508f53d6e937c074dd9ef990f0edc5e808a9a8fdc12d042",
    "rp2": "38818c9ced80d58089179304266f2cf3b30b41c58105d78efaa7c2a70ce28d42",
}

PROP_COLLAPSE_CERTIFICATES = {
    "point": None,
    "delta1": "9d301884476cd898a06c33affd086ab8e634d8de5401be123a0cd385245ec5b6",
    "path2": "037e461cd417b395c46cd694ed2124414225f0e63f19a3e0a04270ab4b126e6f",
    "boundary_delta2": "11e367f6d10a8fa2161d1bf3bed10297a523e0f4ecb49d4e2f96650fe7060371",
    "delta2": "4e03f050fe6698d50fae383d83a2717dff5086b70e3fb92ac2a6cde4570ae99f",
    "boundary_delta3": "78f3cb6a78f1b427c1308626773e161bcd9b299efabcfec403af6ff35919b090",
    "wedge_triangles": "c05d75f00dad6aaf865606aa36e05dc76256beb65ccf71c11b0acaf9742b893b",
    "rp2": "064bec2512a186a3b4b437faf773507be66a9c35519b015ce8c5f9a5cb7b48cc",
}


# verify reports without wall times: lemma-hom-nbhd, thm-1.2, quillen and
# prop-4.1 one fixture at a time; thm-1.1, thm-1.3 and fold on the first
# three core fixtures, their former defaults, and thm-1.3 also on a
# longer comma-separated list; the five Hom suites whose default fixtures
# are all the core fixtures at their defaults (None)
SUITE_REPORTS = {
    ("lemma-hom-nbhd", "point"): "1fddd8ef4bc9eb909f672de4e92d41bd265cc875c4d6f2ddbe9684d4ccb5ed73",
    ("lemma-hom-nbhd", "delta1"): "1e21c3849c30ebb9f6f5825f18d298b4ec7b2185a47625ce98c23cd2639cd6af",
    ("lemma-hom-nbhd", "boundary_delta2"): "1e0c1e29059261c46afedf89b07fe8ba9a03f20b7923353be4b2b90be9ee8996",
    ("lemma-hom-nbhd", "path2"): "483fe2dafa679cb54b0af5d16608f857d96a60071b27694875bed0c411dcdfb0",
    ("lemma-hom-nbhd", "wedge_triangles"): "22c96e65ca928020cf9f6feb83df899092d47359889e5ae048ed84e21d4ffd55",
    ("thm-1.1", "point,delta1,boundary_delta2"): (
        "1a69dbf0ff875fddd5d9ecb463a921910ab7a6073dbfccfc538984a43bc7e426"
    ),
    ("fold", "point,delta1,boundary_delta2"): (
        "3f585346235dc4e7dc2227d8f16addd74616c4d544dc43c847cc338969f93476"
    ),
    ("thm-1.2", "point"): "dd0ee195686347b77469726a7dab0ad476f82b8084640a9de7ae7e549c6dc4f7",
    ("thm-1.2", "delta1"): "2a49675a06103867498ad7ce4481e64f711877db0d09a643ebb29ca6ae30acaa",
    ("thm-1.2", "path2"): "0f43a05a25862403a5d4977743dabde33245eb41a886aa3c4b9101cd5e102279",
    ("thm-1.2", "boundary_delta2"): "e45df1557cb298c577c471f31423a9313398842ab3c306658cc5e6e4b7c4255a",
    ("thm-1.2", "delta2"): "a4adedd5f858ecce177c457613fed486881822f6d3a13cb0b1a9c3b2b91d378a",
    ("thm-1.2", "boundary_delta3"): "264b3a6334f7d08323003409ad8cb29fcb77cb19477d0d384ad5a8a2095b75a9",
    ("thm-1.2", "wedge_triangles"): "3630de258c403f60c8f57ea2de7f93ae145014f064278d331c0ea2c62af2caaa",
    ("thm-1.2", "rp2"): "cd0ca2f1240e4f4aa11ef4c584f5dbd959a7444bcc93258ab1752995ab934441",
    ("thm-1.3", "point,delta1,boundary_delta2"): (
        "aa0c782caa4ee9b0d110263e2d72cdbffea3b8ebf36031c521ac33659862d9e7"
    ),
    ("thm-1.3", "path2,delta2,wedge_triangles,boundary_delta3"): (
        "bf5d1515dbc7362f138d5de23f9e67089a807375372fd7912d50d42d267046ca"
    ),
    ("quillen", "point"): "6df0100d4e703e61b32aecde07bce059b4971c4d0907899c948f4172ce35ab1d",
    ("quillen", "delta1"): "c7a695ef8849dae8f6c6f09a61f414a9bbd68b3ae30373324a75c71acc153f08",
    ("quillen", "boundary_delta2"): "c490081fb4bce204fbb789f8e81b9475114cc00e33092dd7e5d856c8538aeba1",
    ("quillen", "delta2"): "2b61268c77adafba57798787b0b549c30897adb83d9dc78168b11f6093c9be69",
    ("quillen", "wedge_triangles"): "521c6df2cdee457274499f8466e334dcf4741feb3743acc3c6d6edc2bd9a2648",
    ("prop-4.1", "point"): "656e6d3525c3b71a2bf9c332e1af7f562f3f4f3c247ce5be06486266f8171d5c",
    ("prop-4.1", "delta1"): "3f612e99edbc0d58dc6dbcc8f53962315bc8cf96307fa1b3bb64f2487cccd9ab",
    ("prop-4.1", "boundary_delta2"): "c00dece616ced9f2f49a7ba07277a5b3bb866c771b712035eef8866c10d0cf58",
    ("prop-4.1", "delta2"): "cc8908b3c57d5e44ba8e88ea85c05fc0b9d7174b16048bee1d0f90326a0037a9",
    ("prop-4.1", "wedge_triangles"): "f2f5116b0a5cac418f4a92435e1f80c139b9afb2c715da07281d088a315f284c",
    ("prop-4.1", "boundary_delta3"): "86d046dfd28212811f4eceb14693d898838c2813eb267a34306352047af91fff",
    ("thm-1.1", None): "480056bae1c818e0838adadea3934aee10447c6f4758332f8155aa98c69b29bf",
    ("thm-1.3", None): "2cf606ae05bd9158d523ca6fd7ce86e5f71fc9c17cffa79347746ff6631c4a10",
    ("prop-4.1", None): "5c9a82d1e859136226ab5f1e3cda150406c33deed7378c8b72ebfc01b2a7412e",
    ("quillen", None): "e1dc11345ac048ab3f958c41db59cc74ad41e23f9849976bc5487722344573ba",
    ("fold", None): "0ea78a49b7e7b3a6c1f08104ba908ae44ae938db4d887ddbb95b0710bbe877ea",
}


def without_wall_times(d):
    if isinstance(d, dict):
        return {k: without_wall_times(v) for k, v in d.items() if k != "wall_time_s"}
    if isinstance(d, list):
        return [without_wall_times(v) for v in d]
    return d


@pytest.mark.parametrize("theorem,fixture", list(SUITE_REPORTS))
def test_suite_report_digest(theorem, fixture):
    result = run_suite(theorem, fixtures=None if fixture is None else fixture.split(","))
    assert result.passed
    blob = json.dumps(
        without_wall_times(suite_to_dict(result)), sort_keys=True, separators=(",", ":")
    )
    assert sha256(blob) == SUITE_REPORTS[theorem, fixture]


@pytest.mark.parametrize("command,fixture", sorted(CLI_OUTPUT))
def test_cli_output_digest(capsys, tmp_path, command, fixture):
    path = tmp_path / "x.json"
    save_complex(core_fixture(fixture), str(path))
    assert main([command, str(path)]) == 0
    assert sha256(capsys.readouterr().out) == CLI_OUTPUT[command, fixture]


@pytest.mark.parametrize("name", CORE_FIXTURE_NAMES)
def test_homology_output_digest_of_neighborhood_complex(capsys, tmp_path, name):
    path = tmp_path / "n.json"
    save_complex(neighborhood_complex(build_g_kx(core_fixture(name), 1)), str(path))
    assert main(["homology", str(path)]) == 0
    assert sha256(capsys.readouterr().out) == HOMOLOGY_OUTPUT[HOMOTOPY_TYPE[name]]


def test_hom_poset_output_digest(capsys, tmp_path):
    path = tmp_path / "g.json"
    save_graph(build_g_kx(core_fixture("boundary_delta2"), 1), str(path))
    assert main(["hom", "--g", "K2", str(path)]) == 0
    assert sha256(capsys.readouterr().out) == HOM_K2_CIRCLE_POSET


def test_greedy_certificate_with_multihom_labels():
    P = enumerate_hom(complete_graph(2), build_g_kx(core_fixture("boundary_delta2"), 1))
    _, cert = greedy_collapse(hom_order_complex(P))
    blob = json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))
    assert sha256(blob) == HOM_K2_CIRCLE_GREEDY_CERTIFICATE


def test_greedy_certificates_of_neighborhood_complexes():
    digests = {}
    for name in CORE_FIXTURE_NAMES:
        _, cert = greedy_collapse(neighborhood_complex(build_g_kx(core_fixture(name), 1)))
        blob = json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))
        digests[name] = sha256(blob)
    assert digests == NBHD_GREEDY_CERTIFICATES


def test_prop_collapse_certificate_digests():
    result = run_suite("prop-collapse", fixtures=CORE_FIXTURE_NAMES)
    assert result.passed
    digests = {r.fixture: r.artifacts.get("certificate_sha256") for r in result.reports}
    assert digests == PROP_COLLAPSE_CERTIFICATES
