"""Run-report assembly: CSV tables, canonical JSON, atomic file writes.

scores.csv and report.json are two serializations of the same in-memory
rows, so they cannot disagree.  Floats are rendered with repr (shortest
round-trip form), which makes every output byte-reproducible for a fixed
invocation.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np


def fmt_cell(value) -> str:
    """CSV cell: repr for finite floats, empty for None/NaN."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not np.isfinite(v):
        return ""
    return repr(v)


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows, quoted: int = 0) -> str:
    """A CSV table written by the csv module, one newline-ended line per row.

    A cell is quoted where it needs it, such as a name holding a comma or
    a quote; the first ``quoted`` cells of every data row always are.
    """
    buf = io.StringIO()
    minimal = csv.writer(buf, lineterminator="\n")
    leading = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator=",")
    minimal.writerow(header)
    for row in rows:
        if quoted:
            leading.writerow(row[:quoted])
        minimal.writerow(row[quoted:])
    return buf.getvalue()


def labels_csv_text(labels) -> str:
    return _csv_text(["label"], ([int(v)] for v in labels))


def scores_csv(rows) -> str:
    cells = (
        [row.G] + [""] * 6
        if row.error is not None
        else list(map(fmt_cell, (row.G, row.logL, row.n_k, row.aic, row.sbc, row.caic, row.icomp)))
        for row in rows
    )
    return _csv_text(["G", "logL", "n_k", "AIC", "SBC", "CAIC", "ICOMP"], cells)


def ga_csv(records) -> str:
    rows = (
        [rec.mask.render(), *map(fmt_cell, (float(rec.rel_freq), rec.aic, rec.caic, rec.sbc))]
        for rec in records
    )
    return _csv_text(["subset", "rel_freq", "AIC", "CAIC", "SBC"], rows, quoted=1)


def components_csv(tables) -> str:
    rows = (
        [table["component"], row["name"], *(fmt_cell(row[c]) for c in ("beta", "se", "lo", "hi"))]
        for table in tables
        for row in table["rows"]
    )
    return _csv_text(["component", "variable", "beta", "se", "lo_2.5", "hi_97.5"], rows)


def summary_csv(stats) -> str:
    rows = ([name, *map(fmt_cell, (cs.mean, cs.sd, cs.min, cs.max))] for name, cs in stats.items())
    return _csv_text(["name", "mean", "sd", "min", "max"], rows)


def sanitize(obj):
    """Recursively convert to plain JSON-safe types; non-finite floats -> None."""
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(payload: dict) -> str:
    return json.dumps(sanitize(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, plus the metadata needed to repeat it.

    ``invocation`` always embeds the seed and the fully resolved flag
    list; re-running that argv reproduces every output byte-for-byte.
    """

    invocation: dict
    family: str | None = None
    score_table: list = field(default_factory=list)
    chosen: dict = field(default_factory=dict)
    selected_G: int | None = None
    criterion: str | None = None
    components: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    ga_records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_payload(self) -> dict:
        """The report as nested dicts and lists, score rows included."""
        return asdict(self)
