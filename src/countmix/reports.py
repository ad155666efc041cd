"""Run-report assembly: CSV tables, canonical JSON, atomic file writes.

scores.csv and report.json are two serializations of the same in-memory
rows, so they cannot disagree.  Floats are rendered with repr (shortest
round-trip form), which makes every output byte-reproducible for a fixed
invocation.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .criteria import ScoreRow


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


def labels_csv_text(labels) -> str:
    lines = ["label"]
    lines.extend(str(int(v)) for v in labels)
    return "\n".join(lines) + "\n"


def scores_csv(rows) -> str:
    lines = ["G,logL,n_k,AIC,SBC,CAIC,ICOMP"]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.G},,,,,,")
            continue
        lines.append(
            ",".join(
                [
                    str(row.G),
                    fmt_cell(row.logL),
                    str(row.n_k),
                    fmt_cell(row.aic),
                    fmt_cell(row.sbc),
                    fmt_cell(row.caic),
                    fmt_cell(row.icomp),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def ga_csv(records) -> str:
    lines = ["subset,rel_freq,AIC,CAIC,SBC"]
    for rec in records:
        lines.append(
            ",".join(
                [
                    '"' + rec.mask.render() + '"',
                    fmt_cell(float(rec.rel_freq)),
                    fmt_cell(rec.aic),
                    fmt_cell(rec.caic),
                    fmt_cell(rec.sbc),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def components_csv(tables) -> str:
    lines = ["component,variable,beta,se,lo_2.5,hi_97.5"]
    for table in tables:
        for row in table["rows"]:
            lines.append(
                ",".join(
                    [
                        str(table["component"]),
                        row["name"],
                        fmt_cell(row["beta"]),
                        fmt_cell(row["se"]),
                        fmt_cell(row["lo"]),
                        fmt_cell(row["hi"]),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def summary_csv(stats) -> str:
    lines = ["name,mean,sd,min,max"]
    for name, cs in stats.items():
        lines.append(
            ",".join(
                [name, fmt_cell(cs.mean), fmt_cell(cs.sd), fmt_cell(cs.min), fmt_cell(cs.max)]
            )
        )
    return "\n".join(lines) + "\n"


def score_row_dict(row: ScoreRow) -> dict:
    return {
        "G": row.G,
        "logL": row.logL,
        "n_k": row.n_k,
        "aic": row.aic,
        "sbc": row.sbc,
        "caic": row.caic,
        "icomp": row.icomp,
        "ifim_condition": row.ifim_condition,
        "error": row.error,
    }


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
        return {
            "invocation": self.invocation,
            "family": self.family,
            "score_table": [score_row_dict(r) for r in self.score_table],
            "chosen": self.chosen,
            "selected_G": self.selected_G,
            "criterion": self.criterion,
            "components": self.components,
            "summaries": self.summaries,
            "ga_records": self.ga_records,
            "warnings": list(self.warnings),
        }
