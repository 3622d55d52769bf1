"""SVG export of drawings and projected diagrams.

This is the single place where exact rationals become decimals.  Rendering is
deterministic: fixed canvas, fixed precision, elements emitted in graph order.
A plain drawing shows every crossing as a small hollow marker (there is no
over/under data to show); a projected diagram instead interrupts the lower
strand around each crossing, knot-diagram style.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .geometry import key_point
from .graphs import PlanarDrawing, extract_crossings
from .projection import ProjectedDiagram

_CANVAS = 640.0
_MARGIN = 40.0
_GAP = 7.0          # half-length of the under-strand gap, canvas units
_VERTEX_R = 4.0
_CROSS_R = 4.5
_PREC = 3


def _fmt(v: float) -> str:
    text = f"{v:.{_PREC}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


class _Mapper:
    """Affine map from model coordinates to the canvas, y flipped."""

    def __init__(self, points):
        try:
            xs = [float(p.x) for p in points] or [0.0]
            ys = [float(p.y) for p in points] or [0.0]
        except OverflowError:
            raise ValidationError("cannot render: a coordinate does not fit a float") from None
        self.minx, self.maxy = min(xs), max(ys)
        spanx = max(xs) - min(xs)
        spany = max(ys) - min(ys)
        if not math.isfinite(spanx + spany):
            raise ValidationError("cannot render: the drawing's extent does not fit a float")
        self.scale = (_CANVAS - 2 * _MARGIN) / max(spanx, spany, 1e-9)
        self.width = 2 * _MARGIN + spanx * self.scale
        self.height = 2 * _MARGIN + spany * self.scale

    def to_canvas(self, p) -> tuple[float, float]:
        return (
            _MARGIN + (float(p.x) - self.minx) * self.scale,
            _MARGIN + (self.maxy - float(p.y)) * self.scale,
        )


def _polyline_path(canvas_pts) -> str:
    head = canvas_pts[0]
    parts = [f"M {_fmt(head[0])} {_fmt(head[1])}"]
    parts += [f"L {_fmt(x)} {_fmt(y)}" for x, y in canvas_pts[1:]]
    return " ".join(parts)


def _gapped_path(canvas_pts, gaps_by_side) -> str:
    """Path for a polyline, skipping an interval around each gap point.

    gaps_by_side maps a side index to the canvas points to cut around; the
    cut has half-length _GAP along the side.
    """
    parts = []
    pending = None  # start of the sub-segment being accumulated
    for i in range(len(canvas_pts) - 1):
        ax, ay = canvas_pts[i]
        bx, by = canvas_pts[i + 1]
        side_len = math.hypot(bx - ax, by - ay)
        if side_len == 0:
            continue
        cuts = []
        for gx, gy in gaps_by_side.get(i, ()):
            t = math.hypot(gx - ax, gy - ay) / side_len
            cuts.append((max(0.0, t - _GAP / side_len), min(1.0, t + _GAP / side_len)))
        cuts.sort()
        pos = 0.0
        segment_points = []
        for lo, hi in cuts:
            if lo > pos:
                segment_points.append((pos, lo))
            pos = max(pos, hi)
        if pos < 1.0:
            segment_points.append((pos, 1.0))
        at = lambda t: (ax + (bx - ax) * t, ay + (by - ay) * t)
        for lo, hi in segment_points:
            start, end = at(lo), at(hi)
            if lo == 0.0 and pending is not None:
                parts.append(f"L {_fmt(end[0])} {_fmt(end[1])}")
            else:
                parts.append(
                    f"M {_fmt(start[0])} {_fmt(start[1])} L {_fmt(end[0])} {_fmt(end[1])}"
                )
            pending = end if hi == 1.0 else None
        if not segment_points:
            pending = None
    return " ".join(parts)


def render_svg(obj) -> bytes:
    """An SVG 1.1 document for a PlanarDrawing or a ProjectedDiagram."""
    if isinstance(obj, ProjectedDiagram):
        drawing = obj.drawing
        crossings = obj.crossings
        show_depth = True
    elif isinstance(obj, PlanarDrawing):
        drawing = obj
        crossings = extract_crossings(obj) if drawing.graph.edges else ()
        show_depth = False
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")

    g = drawing.graph
    every_point = [p for e in g.edges for p in drawing.route[e].vertices]
    every_point += [drawing.position[v] for v in g.vertices]
    mapper = _Mapper(every_point)

    # per edge, the canvas points where its strand passes under
    gaps = {e: {} for e in g.edges}
    if show_depth:
        for c in crossings:
            under, side = (c.edge2, c.side2) if c.upper == c.edge1 else (c.edge1, c.side1)
            gaps[under].setdefault(side, []).append(mapper.to_canvas(key_point(c.key)))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" '
        f'viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">',
        f'<rect width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" fill="white"/>',
    ]
    for e in g.edges:
        canvas_pts = [mapper.to_canvas(p) for p in drawing.route[e].vertices]
        d = (
            _gapped_path(canvas_pts, gaps[e])
            if show_depth and gaps[e]
            else _polyline_path(canvas_pts)
        )
        lines.append(
            f'<path d="{d}" fill="none" stroke="black" stroke-width="1.5"/>'
            f"<!-- {e[0]}-{e[1]} -->"
        )
    if not show_depth:
        for c in crossings:
            x, y = mapper.to_canvas(key_point(c.key))
            lines.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_CROSS_R)}" '
                'fill="white" stroke="grey" stroke-width="1"/>'
            )
    for v in g.vertices:
        x, y = mapper.to_canvas(drawing.position[v])
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_VERTEX_R)}" fill="black"/>'
        )
        lines.append(
            f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}" '
            f'font-family="sans-serif" font-size="14">{v}</text>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
