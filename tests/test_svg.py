import hashlib
from xml.etree import ElementTree as ET

import pytest

from subgrid.core import BoxDomain
from subgrid.errors import SubgridError
from subgrid.functions import Objective, get_objective
from subgrid.slm import Sense, SlmConfig, slm_run
from subgrid.slmga import GaConfig, ga_run
from subgrid.svgtrace import emit_trace_svg

NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def easom_run():
    obj = get_objective("easom")
    return slm_run(obj, SlmConfig(h_tol=0.1)), obj


class TestStructure:
    def test_well_formed_single_root(self, easom_run):
        rep, obj = easom_run
        doc = emit_trace_svg(rep, obj)
        root = ET.fromstring(doc)
        assert root.tag == NS + "svg"
        assert root.get("width") and root.get("height")

    def test_cell_outline_per_level(self, easom_run):
        rep, obj = easom_run
        root = ET.fromstring(emit_trace_svg(rep, obj))
        outlines = root.findall(".//%srect[@class='cell-outline']" % NS)
        assert len(outlines) == rep.generations == 11
        levels = [g.get("data-level") for g in root.findall(".//%sg[@class='step']" % NS)]
        assert levels == [str(i) for i in range(1, 12)]

    def test_best_marker_present(self, easom_run):
        rep, obj = easom_run
        root = ET.fromstring(emit_trace_svg(rep, obj))
        marker = root.findall(".//%scircle[@class='best']" % NS)
        assert len(marker) == 1

    def test_background_shading(self, easom_run):
        rep, obj = easom_run
        root = ET.fromstring(emit_trace_svg(rep, obj))
        shade = root.find(".//%sg[@class='shade']" % NS)
        assert shade is not None
        assert len(shade) == 64 * 64

    def test_vertex_labels_annotated(self, easom_run):
        rep, obj = easom_run
        root = ET.fromstring(emit_trace_svg(rep, obj))
        labels = root.findall(".//%stext[@class='label']" % NS)
        assert labels, "expected annotated vertex labels"
        assert all(t.text in {"0", "1", "2"} for t in labels)


    def test_a_constant_objective_is_shaded_one_gray(self):
        obj = Objective(name="flat", box=BoxDomain.cube(-1.0, 1.0, 2), eval_fn=lambda x: 3.0)
        root = ET.fromstring(emit_trace_svg(slm_run(obj, SlmConfig(h_tol=0.5)), obj))
        shade = root.find(".//%sg[@class='shade']" % NS)
        assert {rect.get("fill") for rect in shade} == {"#ebebeb"}


class TestSlmgaTrace:
    def test_two_dim_ga_run_renders(self):
        obj = get_objective("f2")
        rep = ga_run(obj, GaConfig(h_tol=0.02, seed=0))
        root = ET.fromstring(emit_trace_svg(rep, obj))
        assert root.tag == NS + "svg"


class TestDimensionGuard:
    def test_three_dim_rejected(self):
        obj = get_objective("f1")
        rep = ga_run(obj, GaConfig(h_tol=1.0, seed=0))
        with pytest.raises(SubgridError, match=r"^trace rendering requires a 2-d objective, got 3-d$"):
            emit_trace_svg(rep, obj)


# sha256 of the whole document, at h_tol = 1e-3 and seed 0: a change to the
# renderer or to the runs it draws must leave every digest as it is
SVG_DIGESTS = [
    ("easom", lambda obj: slm_run(obj, SlmConfig(h_tol=1e-3)),
     "654c0ea455a9fba2b8955e548f27b8e392f7c38cb1ebc5607618b332a3e26392"),
    ("f2", lambda obj: slm_run(obj, SlmConfig(h_tol=1e-3, sense=Sense.MAXIMIZE)),
     "0d4768b826852c7d12384ab8895062a79c88ed206debe86137ed8c578543ee55"),
    ("goldstein-price", lambda obj: ga_run(obj, GaConfig(h_tol=1e-3, seed=0)),
     "7d43258af19285915da8d195307bc818cd8dc7e1388df6b6e853f10f931556e0"),
]


class TestBytes:
    @pytest.mark.parametrize("name,run,digest", SVG_DIGESTS, ids=["easom-slm", "f2-slm-max",
                                                                  "goldstein-price-slmga"])
    def test_document_digest(self, name, run, digest):
        obj = get_objective(name)
        doc = emit_trace_svg(run(obj), obj)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
