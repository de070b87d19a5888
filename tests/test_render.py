"""SVG output: strict XML, determinism, geometric fidelity, rect counts."""

import math
import xml.etree.ElementTree as ET

import pytest

from conftest import partition, polygon

from fuchsian import FigureSpec, build_attractor, render_attractor, render_polygon
from fuchsian.render import block_color

NS = "{http://www.w3.org/2000/svg}"


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
        for side in poly.sides:
            if side.is_diameter:
                continue
            x1, y1, r, large, sweep, x2, y2 = arcs[k]
            k += 1
            gx, gy = arc_center_from_svg(x1, y1, r, large, sweep, x2, y2)
            ex = cx + R * side.circle.center.real
            ey = cy - R * side.circle.center.imag
            assert math.hypot(gx - ex, gy - ey) < 0.5  # fidelity within .5 px


class TestAttractorFigure:
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

    def test_palette_is_stable(self):
        assert block_color(0) == block_color(0)
        assert block_color(0) != block_color(1)
