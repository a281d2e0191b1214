"""Plain-text and markdown rendering for tables and series, and the one
writer that puts rendered tables on disk."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

#: One table artifact: ``(stem, title, headers, rows)``.  The stem names
#: the file it is written to; the title heads it on stdout.
Table = Tuple[str, str, Sequence[str], Sequence[Sequence[object]]]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table.

    >>> print(render_table(["a", "b"], [[1, "xy"]]))
    a | b
    --+---
    1 | xy
    """
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "-+-".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def render_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavored markdown table.

    >>> print(render_markdown_table(["a", "b"], [[1, "x|y"]]))
    | a | b |
    |---|---|
    | 1 | x\\|y |
    """
    def escape(cell: object) -> str:
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(escape(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        cells = [escape(cell) for cell in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(headers)} columns"
            )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def write_tables(
    tables: Iterable[Table],
    output_dir: Union[str, Path],
    suffixes: Sequence[str] = ("txt",),
) -> List[Path]:
    """Write each table as ``<stem>.<suffix>``; returns the files written.

    ``txt`` renders with :func:`render_table`, ``md`` with
    :func:`render_markdown_table`.
    """
    renderers = {"txt": render_table, "md": render_markdown_table}
    target = Path(output_dir)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for stem, _title, headers, rows in tables:
        for suffix in suffixes:
            path = target / f"{stem}.{suffix}"
            path.write_text(renderers[suffix](headers, rows) + "\n", encoding="utf-8")
            written.append(path)
    return written


def render_sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a crude one-line plot of ``values`` scaled to ``width``.

    Useful for eyeballing Fig 7 series in terminal output.
    """
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    top = max(values) or 1.0
    picked = list(values)
    if len(picked) > width:
        stride = len(picked) / width
        picked = [picked[int(i * stride)] for i in range(width)]
    return "".join(blocks[min(8, int(v / top * 8))] for v in picked)


def format_bytes(count: float) -> str:
    """Human-readable byte count (binary units)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.2f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


def format_duration(seconds: float) -> str:
    """Human-readable wall time: ``840us``, ``12ms``, ``3.42s``, ``2m08s``."""
    if seconds < 0:
        raise ValueError(f"duration must be >= 0, got {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:02.0f}s"
