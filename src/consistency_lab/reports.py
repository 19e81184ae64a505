"""Deterministic serialization: canonical JSON, CSV tables, and SVG line charts.

Floats are rendered with 17 significant digits everywhere so that a rerun with
the same seed reproduces every output file byte for byte.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence


def format_value(value) -> str:
    """A bool as ``true``/``false``, a float to 17 significant digits (``nan``,
    ``inf`` and ``-inf`` when not finite), anything else by ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def dumps_canonical(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, stable layout."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{child}{json.dumps(str(key))}: {dumps_canonical(obj[key], indent + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{child}{dumps_canonical(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError("canonical JSON cannot carry non-finite floats")
    if isinstance(obj, (int, float)):  # bools too
        return format_value(obj)
    return json.dumps(str(obj))


def write_json(path: Path, obj) -> None:
    path.write_text(dumps_canonical(obj) + "\n", encoding="utf-8")


def scenario_hash(scenario_dict: dict) -> str:
    import hashlib  # deferred: only a manifest needs it, and it loads OpenSSL

    return hashlib.sha256(dumps_canonical(scenario_dict).encode("utf-8")).hexdigest()


def write_csv(path: Path, columns: Sequence[str], rows, manifest: Mapping) -> None:
    """CSV with the run manifest embedded as leading comment lines."""
    lines = [f"# {key}={format_value(manifest[key])}" for key in sorted(manifest)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def svg_line_chart(
    title: str, x_values: Sequence[float], series: Mapping[str, Sequence[float]]
) -> str:
    """Minimal 720 x 440 multi-series line chart; enough for eyeballing error curves."""
    width, height, margin = 720, 440, 60
    xs = [float(x) for x in x_values]
    finite = [
        float(v)
        for values in series.values()
        for v in values
        if not (math.isnan(float(v)) or math.isinf(float(v)))
    ]
    if not xs or not finite:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * inner_h

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        'font-family="sans-serif" font-size="12">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#333"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#333"/>',
        f'<text x="{margin}" y="{height - margin + 18}">{format_value(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end">'
        f"{format_value(x_hi)}</text>",
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end">{format_value(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end">{format_value(y_hi)}</text>',
    ]
    for index, (label, values) in enumerate(series.items()):
        color = palette[index % len(palette)]
        points = []
        for x, y in zip(xs, values):
            y = float(y)
            if math.isnan(y) or math.isinf(y):
                continue
            points.append(f"{sx(float(x)):.2f},{sy(y):.2f}")
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(points)}"/>'
            )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * index + 4}" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
