"""SVG output: strict XML, determinism, geometric fidelity, rect counts."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from conftest import partition, polygon, side_circle

from fuchsian import FigureSpec, build_attractor, render_attractor, render_polygon
from fuchsian.render import block_color

NS = "{http://www.w3.org/2000/svg}"

# SHA-256 of render_polygon at the default FigureSpec: any change to a
# side's arc, its flags or a coordinate's digits shows here.  0;2,3;1 has
# two diameter sides
POLYGON_SVG_SHA256 = {
    ("0;2,3;1", "left"):
        "e2843016c0ac9cdd5c42485af925e4dcd3036ebe29fd04beaa78756306f0e4e6",
    ("0;2,3;1", "right"):
        "8db0c0f431c70538554e60846ac95b68c052740d9690f246cf4ff4ab74f24f95",
    ("0;2,3;1", "midpoint"):
        "e4e1028d6418419fb8efc733ffc39f7afb1cfe3ef7d21657c1eda186d2dc4907",
    ("1;2,3,7;2", "left"):
        "5410064ac90f9c1485641d4cb98a7d6f737e0f0ac3c8ccd75cdc0f88195041b8",
    ("1;2,3,7;2", "right"):
        "9b9178e4a7d612dd515aef2f07a4f8d18eda971afce9753c3baf0df519e12256",
    ("1;2,3,7;2", "midpoint"):
        "52d2604701d834fe34c5131f1686ad2b3ca64e5bd43d8698c5cbb3fbcfd63df6",
    ("20;2,3,17,29;8", "left"):
        "fd3c5ea235b2b00b807ffe38dfcc8f4305b7b3b2e65637dec40971478e957108",
    ("20;2,3,17,29;8", "right"):
        "13f6d3eea45e00d6f27c7effd85d57af7e4ae287cafc33aa1798f456ff21edcc",
    ("20;2,3,17,29;8", "midpoint"):
        "2dfb88192a013fb8aba379a15bd71d6dbb325ebdc2cd2cc5f3db15a60d3ec9ec",
}

# SHA-256 of render_attractor at the default FigureSpec, on the same cases:
# any change to a rectangle's seam split, its tags or a coordinate's digits
# shows here
ATTRACTOR_SVG_SHA256 = {
    ("0;2,3;1", "left"):
        "ca1b90e26433550e1886fcb383c87f6d5b729759ec4afa3f5d4f62fe004996ce",
    ("0;2,3;1", "right"):
        "66312b1123128b3b995d404293fee7f303b4bb4555150ffb27757426822515a3",
    ("0;2,3;1", "midpoint"):
        "b2259a38537cba3ad1b3042dcb5bfcfddaf25a40dcfc32962c1eaca005069e23",
    ("1;2,3,7;2", "left"):
        "4259b23f9348df6c35cb71d3ae3832d122070afd5085401e48e7903432a7938e",
    ("1;2,3,7;2", "right"):
        "a3d9a4c9d69a93d99ac24008d37e20b77411e8162bdfd7da6047dac6bff86b74",
    ("1;2,3,7;2", "midpoint"):
        "9f4be47546e4dd8b34e52eae432e338caeb8dbc41a4e033bd06a2885b6b0f101",
    ("20;2,3,17,29;8", "left"):
        "9103f7f7b8cc5a41d82a648d91b92c1e1f86c98023c6454b213d0b5eef93c147",
    ("20;2,3,17,29;8", "right"):
        "cf4a283794266c17ef095b3b108b076a5055549c31f8f912619dfbc22a606c67",
    ("20;2,3,17,29;8", "midpoint"):
        "ad24193ac6323ad719fd7c45d2740b5cd2691536ad67125f158e6b3fe6985047",
}


def svg_root(text):
    return ET.fromstring(text)


def arc_center_from_svg(x1, y1, r, large, sweep, x2, y2):
    """Endpoint-to-center conversion from the SVG arc specification
    (independent oracle for the arc flags)."""
    dx, dy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    num = r * r * r * r - r * r * (dx * dx + dy * dy) + 0j
    den = r * r * (dx * dx + dy * dy)
    co = (num / den) ** 0.5
    if large == sweep:
        co = -co
    cxp = co.real * r * dy / r
    cyp = -co.real * r * dx / r
    return cxp + (x1 + x2) / 2.0, cyp + (y1 + y2) / 2.0


class TestPolygonFigure:
    def test_strict_xml_and_deterministic(self):
        poly = polygon("1;2,3,7;2")
        part = partition("1;2,3,7;2", "midpoint")
        spec = FigureSpec()
        doc = render_polygon(poly, part, spec)
        svg_root(doc)
        assert doc == render_polygon(poly, part, spec)

    @pytest.mark.parametrize("text, mode", POLYGON_SVG_SHA256,
                             ids=[f"{t}-{m}" for t, m in POLYGON_SVG_SHA256])
    def test_bytes_are_pinned(self, text, mode):
        doc = render_polygon(polygon(text), partition(text, mode), FigureSpec())
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == POLYGON_SVG_SHA256[text, mode])

    def test_modular_has_line_sides(self):
        doc = render_polygon(polygon("0;2,3;1"),
                             partition("0;2,3;1", "midpoint"), FigureSpec())
        root = svg_root(doc)
        lines = [e for e in root.iter(f"{NS}line") if e.get("class") == "side"]
        paths = [e for e in root.iter(f"{NS}path") if e.get("class") == "side"]
        assert len(lines) == 2 and len(paths) == 2  # two diameter sides

    def test_side_count_and_sector_count(self):
        poly = polygon("1;2,3,7;2")
        doc = render_polygon(poly, partition("1;2,3,7;2", "midpoint"),
                             FigureSpec())
        root = svg_root(doc)
        sides = [e for e in root.iter()
                 if e.get("class") == "side"]
        rays = [e for e in root.iter() if e.get("class") == "sector-ray"]
        assert len(sides) == poly.n_sides
        assert len(rays) == poly.ell
        colors = {e.get("stroke") for e in sides}
        assert len(colors) == poly.ell  # one color per block

    def test_equal_radii_for_single_block(self):
        poly = polygon("1;;1")
        doc = render_polygon(poly, partition("1;;1", "midpoint"), FigureSpec())
        root = svg_root(doc)
        radii = set()
        for e in root.iter(f"{NS}path"):
            if e.get("class") != "side":
                continue
            radii.add(e.get("d").split()[4])
        assert len(radii) == 1

    def test_arc_flags_reproduce_model_center(self):
        poly = polygon("1;2,3,7;2")
        spec = FigureSpec()
        doc = render_polygon(poly, partition("1;2,3,7;2", "midpoint"), spec)
        root = svg_root(doc)
        size = spec.size
        cx = cy = size / 2.0
        R = 0.42 * size
        arcs = []
        for e in root.iter(f"{NS}path"):
            if e.get("class") == "side":
                t = e.get("d").split()
                arcs.append((float(t[1]), float(t[2]), float(t[4]),
                             int(t[7]), int(t[8]), float(t[9]), float(t[10])))
        assert arcs
        k = 0
        for i in range(poly.n_sides):
            circle = side_circle(poly, i)
            if circle is None:
                continue
            x1, y1, r, large, sweep, x2, y2 = arcs[k]
            k += 1
            gx, gy = arc_center_from_svg(x1, y1, r, large, sweep, x2, y2)
            ex = cx + R * circle[0].real
            ey = cy - R * circle[0].imag
            assert math.hypot(gx - ex, gy - ey) < 0.5  # fidelity within .5 px


class TestAttractorFigure:
    @pytest.mark.parametrize("text, mode", ATTRACTOR_SVG_SHA256,
                             ids=[f"{t}-{m}" for t, m in ATTRACTOR_SVG_SHA256])
    def test_bytes_are_pinned(self, text, mode):
        dom = build_attractor(polygon(text), partition(text, mode))
        doc = render_attractor(dom, FigureSpec())
        assert (hashlib.sha256(doc.encode()).hexdigest()
                == ATTRACTOR_SVG_SHA256[text, mode])

    def test_strict_xml_deterministic_and_counts(self):
        for text in ("1;2,3,7;2", "2;2,5,8;2"):
            poly = polygon(text)
            part = partition(text, "midpoint")
            dom = build_attractor(poly, part)
            spec = FigureSpec()
            doc = render_attractor(dom, spec)
            assert doc == render_attractor(dom, spec)
            root = svg_root(doc)
            groups = [g for g in root.iter(f"{NS}g")
                      if g.get("class") == "omega-rect"]
            assert len(groups) == len(dom.rects)

    def test_seam_split_preserves_extent(self):
        dom = build_attractor(polygon("0;2,3;1"),
                              partition("0;2,3;1", "midpoint"))
        spec = FigureSpec()
        doc = render_attractor(dom, spec)
        root = svg_root(doc)
        side = spec.size - 2 * 0.08 * spec.size
        sc = side / (2 * math.pi)
        groups = [g for g in root.iter(f"{NS}g")
                  if g.get("class") == "omega-rect"]
        for g, rect in zip(groups, dom.rects):
            pieces = list(g.iter(f"{NS}rect"))
            widths = sum(float(p.get("width")) for p in pieces)
            u_pieces = {(p.get("y"), p.get("height")) for p in pieces}
            # per-axis extents add up to the stored sweeps
            expect = rect.u_arc.sweep * sc * len(
                {(p.get("y")) for p in pieces})
            assert abs(widths - expect) < 1e-2

    def test_canvas_floor(self):
        with pytest.raises(ValueError):
            FigureSpec(size=50)

    def test_nan_canvas_rejected(self):
        # a NaN size passed the floor and wrote width="nan" into the SVG
        with pytest.raises(ValueError):
            FigureSpec(size=math.nan)

    def test_infinite_canvas_rejected(self):
        # an infinite size passed the floor and wrote width="inf" into the SVG
        with pytest.raises(ValueError, match="finite"):
            FigureSpec(size=math.inf)

    def test_palette_is_stable(self):
        assert block_color(0) == block_color(0)
        assert block_color(0) != block_color(1)
