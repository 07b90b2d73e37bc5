"""Static SVG timelines: one colored bar strip per label sequence."""

from __future__ import annotations

import colorsys

from . import metrics as M

STRIP_HEIGHT = 26
GAP = 10
LABEL_WIDTH = 90
WIDTH = 900


def class_color(class_id: int, num_classes: int) -> str:
    hue = (class_id / max(num_classes, 1)) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.65, 0.92)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_timeline(strips: list[tuple[str, list]], num_classes: int) -> str:
    """SVG with one strip per (name, labels) row; same class, same color."""
    height = len(strips) * (STRIP_HEIGHT + GAP) + GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'font-family="sans-serif" font-size="12">'
    ]
    bar_width = WIDTH - LABEL_WIDTH - GAP
    for row, (name, labels) in enumerate(strips):
        y = GAP + row * (STRIP_HEIGHT + GAP)
        parts.append(
            f'<text x="{LABEL_WIDTH - 6}" y="{y + STRIP_HEIGHT / 2 + 4}" '
            f'text-anchor="end">{name}</text>'
        )
        total = len(labels)
        if total == 0:
            continue
        for seg in M.extract_segments(labels):
            x = LABEL_WIDTH + bar_width * seg.start / total
            w = bar_width * seg.length / total
            color = class_color(int(seg.label), num_classes)
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{STRIP_HEIGHT}" '
                f'fill="{color}"><title>{seg.label}: {seg.start}-{seg.end}</title></rect>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
