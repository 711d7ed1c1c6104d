"""SVG rendering of a two-dimensional run: shaded objective background,
per-step grid lines and chosen-cell outlines, labeled vertices and a
marker on the best point found.
"""

from __future__ import annotations

import math
from xml.etree import ElementTree as ET

from .core import Cell, GridSpec, RunReport, cell_vertices, position_of
from .errors import SubgridError
from .functions import Objective

CANVAS = 640
MARGIN = 40
SHADE_CELLS = 64


def _scaler(box):
    (x0, y0), (x1, y1) = box.lower, box.upper
    span = CANVAS - 2 * MARGIN

    def to_px(x, y):
        px = MARGIN + (x - x0) / (x1 - x0) * span
        py = CANVAS - MARGIN - (y - y0) / (y1 - y0) * span  # y grows upward
        return px, py

    return to_px


def _shade_values(obj: Objective):
    """Objective sampled on cell centers of a SHADE_CELLS^2 raster."""
    (x0, y0), (x1, y1) = obj.box.lower, obj.box.upper
    vals = []
    for iy in range(SHADE_CELLS):
        for ix in range(SHADE_CELLS):
            x = x0 + (ix + 0.5) / SHADE_CELLS * (x1 - x0)
            y = y0 + (iy + 0.5) / SHADE_CELLS * (y1 - y0)
            vals.append(obj.noiseless((x, y)))
    return vals


def _gray(v, lo, hi):
    # log-compress: these objectives span many orders of magnitude
    if hi <= lo:
        t = 0.0
    else:
        t = math.log1p(v - lo) / math.log1p(hi - lo)
    level = int(round(235 - 180 * t))
    return "#%02x%02x%02x" % (level, level, level)


def emit_trace_svg(report: RunReport, obj: Objective) -> str:
    """Serialized SVG document for a 2-D run; raises on other dimensions."""
    if obj.dim != 2:
        raise SubgridError("trace rendering requires a 2-d objective, got %d-d" % obj.dim)
    box = obj.box
    to_px = _scaler(box)
    span = CANVAS - 2 * MARGIN

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(CANVAS), "height": str(CANVAS),
        "viewBox": "0 0 %d %d" % (CANVAS, CANVAS),
    })
    title = ET.SubElement(svg, "title")
    title.text = "%s on %s" % (report.meta.get("algorithm", "run"),
                               report.meta.get("objective", "objective"))

    shade = ET.SubElement(svg, "g", {"class": "shade"})
    vals = _shade_values(obj)
    lo, hi = min(vals), max(vals)
    cell_px = span / SHADE_CELLS
    for iy in range(SHADE_CELLS):
        for ix in range(SHADE_CELLS):
            v = vals[iy * SHADE_CELLS + ix]
            ET.SubElement(shade, "rect", {
                "x": "%.2f" % (MARGIN + ix * cell_px),
                "y": "%.2f" % (CANVAS - MARGIN - (iy + 1) * cell_px),
                "width": "%.2f" % cell_px, "height": "%.2f" % cell_px,
                "fill": _gray(v, lo, hi),
            })

    ET.SubElement(svg, "rect", {
        "class": "border", "x": str(MARGIN), "y": str(MARGIN),
        "width": str(span), "height": str(span),
        "fill": "none", "stroke": "#333", "stroke-width": "1.5",
    })

    for step in report.steps:
        g = ET.SubElement(svg, "g", {"class": "step", "data-level": str(step.level)})
        grid = GridSpec(box, step.level)
        _draw_population(g, step, to_px)
        if step.chosen_cell is not None:
            _draw_cell(g, step.chosen_cell, grid, to_px)

    bx, by = to_px(*report.best.x)
    ET.SubElement(svg, "circle", {
        "class": "best", "cx": "%.2f" % bx, "cy": "%.2f" % by,
        "r": "5", "fill": "none", "stroke": "#c22", "stroke-width": "2",
    })
    label = ET.SubElement(svg, "text", {
        "class": "best-label", "x": "%.2f" % (bx + 8), "y": "%.2f" % (by - 8),
        "font-size": "11", "fill": "#c22",
    })
    label.text = "f=%.6g" % report.best.f

    return ET.tostring(svg, encoding="unicode", xml_declaration=True) + "\n"


def _draw_population(g, step, to_px):
    annotate = len(step.labels) <= 64
    for lv in step.labels:
        px, py = to_px(*lv.candidate.x)
        ET.SubElement(g, "circle", {
            "class": "vertex", "cx": "%.2f" % px, "cy": "%.2f" % py,
            "r": "2.2", "fill": "#06c",
        })
        if annotate:
            t = ET.SubElement(g, "text", {
                "class": "label", "x": "%.2f" % (px + 4), "y": "%.2f" % (py - 4),
                "font-size": "9", "fill": "#06c",
            })
            t.text = str(lv.label)


def _draw_cell(g, cell: Cell, grid: GridSpec, to_px):
    # positions never decrease as k grows, so the anchor and the opposite
    # vertex are the outline's lower and upper corners
    vertices = cell_vertices(cell)
    (xa, ya), (xb, yb) = position_of(vertices[0], grid), position_of(vertices[-1], grid)
    x0, y0 = to_px(xa, yb)
    x1, y1 = to_px(xb, ya)
    ET.SubElement(g, "rect", {
        "class": "cell-outline",
        "x": "%.2f" % x0, "y": "%.2f" % y0,
        "width": "%.2f" % (x1 - x0), "height": "%.2f" % (y1 - y0),
        "fill": "none", "stroke": "#e80", "stroke-width": "1.2",
    })
