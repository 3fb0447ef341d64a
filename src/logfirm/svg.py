"""Deterministic SVG rendering for rank-2 lattice diagrams.

One kind of picture: a box of lattice points split into members (filled
black circles) and non-members (hollow circles).  The grid spacing is
fixed at 40 pixels per lattice unit and all elements are emitted in sorted
order, so identical inputs produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

UNIT = 40
MARGIN = 30
POINT_RADIUS = 6


class RankUnsupported(Exception):
    """Only rank-2 data can be drawn."""


def _fmt(x) -> str:
    return f"{float(x):.2f}"


def _pixel(x, y, box):
    return (MARGIN + UNIT * Fraction(x), MARGIN + UNIT * (Fraction(box) - Fraction(y)))


def _header(box: int, legend: str) -> list[str]:
    side = 2 * MARGIN + UNIT * box
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<!-- {legend} -->',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
    ]


def _axes(box: int) -> list[str]:
    x0, y0 = _pixel(0, 0, box)
    x1, _ = _pixel(box, 0, box)
    _, y1 = _pixel(0, box, box)
    return [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" '
        f'y2="{_fmt(y1)}" stroke="black" stroke-width="1"/>',
    ]


def emit_point_grid(box: int, members) -> str:
    """SVG of the lattice box [0, box]^2.

    Filled black circles mark members; hollow (white with black stroke)
    circles mark the remaining points of the box.
    """
    members = {tuple(p) for p in members}
    for p in members:
        if len(p) != 2:
            raise RankUnsupported("point grid drawing needs rank 2")
    non_members = {(a, b) for a in range(box + 1) for b in range(box + 1)
                   if (a, b) not in members}
    lines = _header(
        box, "filled circles: members; hollow circles: non-members")
    lines += _axes(box)
    for (a, b) in sorted(non_members):
        x, y = _pixel(a, b, box)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{POINT_RADIUS}" '
            'fill="white" stroke="black" stroke-width="1.5"/>')
    for (a, b) in sorted(members):
        x, y = _pixel(a, b, box)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{POINT_RADIUS}" '
            'fill="black"/>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
