"""Terminal rendering of span trees and hotspot tables.

Used by ``uncleanliness trace <run>`` and the ``--profile`` flag.
Formatting is self-contained (no dependency on the experiment table
helpers) so :mod:`repro.obs` stays importable from every layer.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["render_span_tree", "hotspot_rows", "render_hotspots"]

_ATTR_ORDER = ("outcome", "key", "trials", "flows", "events")


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}ms"


def _attr_summary(attrs: dict, limit: int = 3) -> str:
    if not attrs:
        return ""
    keys = [k for k in _ATTR_ORDER if k in attrs]
    keys += [k for k in sorted(attrs) if k not in keys]
    parts = [f"{k}={attrs[k]}" for k in keys[:limit]]
    if len(keys) > limit:
        parts.append("...")
    return "  [" + " ".join(parts) + "]"


def render_span_tree(span: dict, max_depth: int = 12) -> str:
    """An indented tree with total and self wall time per span."""
    lines: List[str] = []

    def walk(node: dict, depth: int) -> None:
        wall = float(node.get("wall", 0.0))
        children = node.get("children", ())
        self_wall = max(wall - sum(float(c.get("wall", 0.0)) for c in children), 0.0)
        lines.append(
            f"{'  ' * depth}{node.get('name', '?')}"
            f"  total={_ms(wall)} self={_ms(self_wall)}"
            f"{_attr_summary(node.get('attrs') or {})}"
        )
        if depth + 1 >= max_depth and children:
            lines.append(f"{'  ' * (depth + 1)}... ({len(children)} children)")
            return
        for child in children:
            walk(child, depth + 1)

    walk(span, 0)
    return "\n".join(lines)


def hotspot_rows(span: dict) -> List[dict]:
    """Spans aggregated by name, ranked by total *self* time."""
    agg: Dict[str, dict] = {}

    def walk(node: dict) -> None:
        wall = float(node.get("wall", 0.0))
        cpu = float(node.get("cpu", 0.0))
        children = node.get("children", ())
        self_wall = max(wall - sum(float(c.get("wall", 0.0)) for c in children), 0.0)
        row = agg.setdefault(
            node.get("name", "?"),
            {"name": node.get("name", "?"), "count": 0, "total_s": 0.0,
             "self_s": 0.0, "cpu_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += wall
        row["self_s"] += self_wall
        row["cpu_s"] += cpu
        for child in children:
            walk(child)

    walk(span)
    return sorted(agg.values(), key=lambda r: r["self_s"], reverse=True)


def render_hotspots(span: dict, top: int = 15) -> str:
    """A fixed-width top-N hotspot table for one span tree."""
    rows = hotspot_rows(span)[:top]
    total = max(float(span.get("wall", 0.0)), 1e-12)
    name_width = max([len(r["name"]) for r in rows] + [len("span")])
    header = (
        f"{'span'.ljust(name_width)}  {'count':>5}  {'total':>10}  "
        f"{'self':>10}  {'cpu':>10}  {'self%':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name'].ljust(name_width)}  {r['count']:>5}  "
            f"{_ms(r['total_s']):>10}  {_ms(r['self_s']):>10}  "
            f"{_ms(r['cpu_s']):>10}  {100.0 * r['self_s'] / total:>5.1f}%"
        )
    return "\n".join(lines)
