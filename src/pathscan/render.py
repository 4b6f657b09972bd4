"""SVG rendering of scanpaths over grade maps."""

from __future__ import annotations

from xml.sax.saxutils import escape

from .synth import GradeMap
from .trajectory import Scanpath

GRADE_COLORS = {
    0: "#f5f5f5",  # Background
    1: "#b5d6a7",  # Benign
    2: "#ffd27f",  # G3
    3: "#ff9955",  # G4
    4: "#e04a3a",  # G5
}

MAG_COLORS = ["#1b6ca8", "#2a9d8f", "#7cb518", "#e9c46a", "#f4845f", "#d62246"]
SIZE_PX = 640  # the longer side of the drawing


def render_svg(sp: Scanpath, gm: GradeMap, comment: str = "") -> str:
    """Scanpath as SVG 1.1: grade-map cells, path line, magnification-coded dots."""
    h_g, w_g = gm.grid.shape
    cell = SIZE_PX / max(h_g, w_g)
    width, height = w_g * cell, h_g * cell
    sx = width / gm.width_px
    sy = height / gm.height_px

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    if comment:
        parts.append(f"<!-- {escape(comment)} -->")

    for r in range(h_g):
        for c in range(w_g):
            color = GRADE_COLORS[int(gm.grid[r, c])]
            parts.append(
                f'<rect x="{c * cell:.2f}" y="{r * cell:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}"/>'
            )

    points = [(f.x * sx, f.y * sy) for f in sp.fixations]
    if len(points) > 1:
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#333333" '
            f'stroke-width="1.5" stroke-opacity="0.7"/>'
        )
    for i, (f, (x, y)) in enumerate(zip(sp.fixations, points)):
        radius = 3.0 + 1.2 * f.mag.index
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}" '
            f'fill="{MAG_COLORS[f.mag.index]}" fill-opacity="0.85" '
            f'stroke="#222222" stroke-width="0.5">'
            f"<title>#{i + 1} {f.mag.factor}X</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
