"""CSV and config-file helpers: 17 significant digits, atomic writes."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

FLOAT_FMT = "%.17g"


def _format_cell(x) -> str:
    if isinstance(x, float):  # np.float64 too: most cells, so tested first
        return FLOAT_FMT % x
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return FLOAT_FMT % float(x)


def atomic_write_text(path, text: str) -> None:
    """Write-temp-then-rename so partial files never appear under the target name."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv_columns(path) -> dict[str, list]:
    """Read a small numeric CSV written by this package into named columns."""
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = [h.strip() for h in lines[0].split(",")]
    cols: dict[str, list] = {}
    for h in header:
        if h in cols:
            raise ValueError(f"{path}: column {h!r} appears twice in the header")
        cols[h] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: ragged CSV row: {ln!r}")
        for h, p in zip(header, parts):
            try:
                cols[h].append(float(p))
            except ValueError:
                cols[h].append(p)
    return cols


def load_key_value_config(path) -> dict[str, str]:
    """Flat UTF-8 ``key = value`` lines; '#' starts a comment; blank lines
    skipped; a key given twice is an error."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out
