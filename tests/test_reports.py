import csv
import io
import json
import os

import numpy as np
import pytest

from countmix import ColumnStats, CovariateMask, SubsetRecord
from countmix.criteria import ScoreRow
from countmix.reports import (
    components_csv,
    fmt_cell,
    ga_csv,
    report_json,
    sanitize,
    scores_csv,
    summary_csv,
    write_text_atomic,
)


class TestFmtCell:
    def test_floats_use_shortest_roundtrip_form(self):
        assert fmt_cell(849.86) == "849.86"
        assert fmt_cell(0.1 + 0.2) == "0.30000000000000004"

    def test_unavailable_is_empty(self):
        assert fmt_cell(None) == ""
        assert fmt_cell(float("nan")) == ""

    def test_integers_stay_integers(self):
        assert fmt_cell(3) == "3"


class TestGaCsv:
    def test_published_row_renders_exactly(self):
        # format fixture: the reported subset {4, 7} with its scores
        rec = SubsetRecord(
            mask=CovariateMask.from_numbers(8, (4, 7)),
            aic=849.86, caic=887.33, sbc=876.33, wins=21, runs=200,
        )
        text = ga_csv([rec])
        lines = text.strip().splitlines()
        assert lines[0] == "subset,rel_freq,AIC,CAIC,SBC"
        assert lines[1] == '"4, 7",0.105,849.86,887.33,876.33'

    def test_intercept_only_mask_renders_none(self):
        rec = SubsetRecord(
            mask=CovariateMask.none(3), aic=1.0, caic=2.0, sbc=3.0, wins=1, runs=1
        )
        assert '"none"' in ga_csv([rec])


class TestScoresCsv:
    def test_unavailable_icomp_is_empty_cell(self):
        row = ScoreRow(
            G=5, logL=-10.0, n_k=4, aic=28.0, sbc=30.0, caic=34.0,
            icomp=None, ifim_condition=None,
        )
        line = scores_csv([row]).strip().splitlines()[1]
        assert line == "5,-10.0,4,28.0,30.0,34.0,"

    def test_failed_row_keeps_g_only(self):
        row = ScoreRow(
            G=3, logL=np.nan, n_k=0, aic=np.nan, sbc=np.nan, caic=np.nan,
            icomp=None, ifim_condition=None, error="collapsed",
        )
        assert scores_csv([row]).strip().splitlines()[1] == "3,,,,,,"


class TestNameCells:
    """Covariate and column names holding commas or quotes round-trip through csv."""

    NAMES = ("plain", "cases, 2010", 'say "hi"')

    def test_components_csv_round_trips(self):
        rows = [
            {"name": name, "beta": 0.5, "se": 0.1, "lo": 0.304, "hi": 0.696}
            for name in self.NAMES
        ]
        text = components_csv([{"component": 1, "rows": rows}])
        parsed = list(csv.reader(io.StringIO(text)))
        assert [len(r) for r in parsed] == [6] * 4
        assert [r[1] for r in parsed[1:]] == list(self.NAMES)
        assert text.splitlines()[1] == "1,plain,0.5,0.1,0.304,0.696"

    def test_summary_csv_round_trips(self):
        stats = {name: ColumnStats(mean=1.0, sd=0.5, min=0.0, max=2.0) for name in self.NAMES}
        parsed = list(csv.reader(io.StringIO(summary_csv(stats))))
        assert [len(r) for r in parsed] == [5] * 4
        assert [r[0] for r in parsed[1:]] == list(self.NAMES)


class TestSanitize:
    def test_nonfinite_floats_become_null(self):
        assert sanitize({"a": float("inf"), "b": float("nan")}) == {"a": None, "b": None}

    def test_numpy_types_converted(self):
        out = sanitize({"i": np.int64(4), "f": np.float64(2.5), "arr": np.arange(3)})
        assert out == {"i": 4, "f": 2.5, "arr": [0, 1, 2]}

    def test_report_json_is_stable(self):
        payload = {"b": 1, "a": [1.5, None]}
        assert report_json(payload) == report_json(dict(reversed(payload.items())))
        json.loads(report_json(payload))


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "x.txt"
        write_text_atomic(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "x.txt"
        write_text_atomic(path, "one\n")
        write_text_atomic(path, "two\n")
        assert path.read_text() == "two\n"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []
