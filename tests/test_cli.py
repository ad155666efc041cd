import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate", "--out", str(out), "--seed", "42",
            "--groups", "2", "--n-per-group", "40",
        ]
    )
    assert code == 0
    return out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_reproducible_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--out", str(out), "--seed", "9", "--n-per-group", "10"]) == 0
        for name in ("data.csv", "labels.csv"):
            assert _read(a / name) == _read(b / name)

    def test_metadata_records_seed_and_generator(self, sim_dir):
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["generator"] == "numpy.random.PCG64"
        assert "--seed" in meta["argv"]
        assert len(meta["groups"]) == 2

    def test_six_groups_is_input_error(self, tmp_path):
        out = tmp_path / "bad"
        assert run(["simulate", "--out", str(out), "--seed", "1", "--groups", "6"]) == 2
        assert not (out / "data.csv").exists()

    def test_seed_drawn_and_recorded_when_absent(self, tmp_path):
        out = tmp_path / "drawn"
        assert run(["simulate", "--out", str(out), "--n-per-group", "5"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        argv = meta["argv"]
        assert "--seed" in argv
        # re-running the recorded invocation reproduces the data exactly
        out2 = tmp_path / "drawn2"
        argv2 = [a if a != str(out) else str(out2) for a in argv]
        assert run(argv2) == 0
        assert _read(out / "data.csv") == _read(out2 / "data.csv")

    def test_spec_mode(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "weights": [0.5, 0.5],
                    "betas": [[0.5, 0.8], [2.5, -0.4]],
                    "alphas": [0.0, 0.0],
                }
            )
        )
        out = tmp_path / "mix"
        code = run(
            ["simulate", "--out", str(out), "--seed", "3", "--spec", str(spec), "--n", "60"]
        )
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["mode"] == "regression-mixture"
        rows = (out / "data.csv").read_text().strip().splitlines()
        assert len(rows) == 61

    def test_bad_spec_file_is_input_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not valid json")
        assert run(["simulate", "--out", str(tmp_path / "x"), "--seed", "1", "--spec", str(spec)]) == 2


def _sweep_args(sim_dir, out, extra=()):
    return [
        "sweep",
        "--data", str(sim_dir / "data.csv"),
        "--outcome", "y",
        "--covariates", "x",
        "--seed", "7",
        "--gmax", "3",
        "--restarts", "1",
        "--family", "poisson",
        "--out", str(out),
        *extra,
    ]


class TestSweep:
    def test_writes_scores_and_report(self, sim_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run(_sweep_args(sim_dir, out)) == 0
        rows = list(csv.DictReader(open(out / "scores.csv")))
        assert [r["G"] for r in rows] == ["1", "2", "3"]
        report = json.loads((out / "report.json").read_text())
        assert report["family"] == "poisson"
        assert report["invocation"]["seed"] == 7

    def test_scores_csv_agrees_with_report(self, sim_dir, tmp_path):
        out = tmp_path / "sweep2"
        assert run(_sweep_args(sim_dir, out)) == 0
        report = json.loads((out / "report.json").read_text())
        rows = list(csv.DictReader(open(out / "scores.csv")))
        for csv_row, rep_row in zip(rows, report["score_table"]):
            assert int(csv_row["G"]) == rep_row["G"]
            if rep_row["aic"] is not None:
                assert float(csv_row["AIC"]) == rep_row["aic"]
            icomp_cell = csv_row["ICOMP"]
            if rep_row["icomp"] is None:
                assert icomp_cell == ""
            else:
                assert float(icomp_cell) == rep_row["icomp"]

    def test_argmin_markers_match(self, sim_dir, tmp_path):
        out = tmp_path / "sweep3"
        assert run(_sweep_args(sim_dir, out)) == 0
        report = json.loads((out / "report.json").read_text())
        rows = {r["G"]: r for r in report["score_table"] if r["error"] is None}
        for crit, chosen in report["chosen"].items():
            values = {g: r[crit] for g, r in rows.items() if r[crit] is not None}
            assert chosen == min(values, key=lambda g: (values[g], g))

    def test_gmax_one(self, sim_dir, tmp_path):
        out = tmp_path / "one"
        argv = [
            "sweep", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
            "--covariates", "x", "--seed", "7", "--gmax", "1",
            "--restarts", "1", "--family", "poisson", "--out", str(out),
        ]
        assert run(argv) == 0
        rows = list(csv.DictReader(open(out / "scores.csv")))
        assert len(rows) == 1

    def test_missing_file_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "missing"
        code = run(
            [
                "sweep", "--data", str(tmp_path / "nope.csv"), "--outcome", "y",
                "--covariates", "x", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_rerun_from_recorded_argv_reproduces_bytes(self, sim_dir, tmp_path):
        out = tmp_path / "repro"
        assert run(_sweep_args(sim_dir, out)) == 0
        first_scores = _read(out / "scores.csv")
        first_report = _read(out / "report.json")
        argv = json.loads(first_report)["invocation"]["argv"]
        assert run(argv) == 0
        assert _read(out / "scores.csv") == first_scores
        assert _read(out / "report.json") == first_report

    def test_every_g_failed_names_the_dependent_column(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 40
        x1 = rng.normal(size=n)
        y = rng.poisson(np.exp(1.0 + 0.3 * x1))
        path = tmp_path / "const.csv"
        lines = ["y,x1,x2"] + [f"{int(y[i])},{float(x1[i])!r},1.5" for i in range(n)]
        path.write_text("\n".join(lines) + "\n")
        code = run(
            [
                "sweep", "--data", str(path), "--outcome", "y", "--covariates", "x1,x2",
                "--seed", "1", "--gmax", "2", "--family", "poisson",
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "G=1: " in err and "G=2: " in err
        assert "dependent column(s): x2" in err
        assert "G=2: all restarts failed at G=2: restart 0 discarded: " in err
        assert "Traceback" not in err


class TestGa:
    def test_force_mask_all_matches_sweep_scores(self, sim_dir, tmp_path):
        sweep_out = tmp_path / "fsweep"
        assert run(_sweep_args(sim_dir, sweep_out, ["--criterion", "caic"])) == 0
        report = json.loads((sweep_out / "report.json").read_text())
        chosen = report["selected_G"]
        chosen_row = next(r for r in report["score_table"] if r["G"] == chosen)

        ga_out = tmp_path / "fga"
        code = run(
            [
                "ga",
                "--data", str(sim_dir / "data.csv"),
                "--outcome", "y",
                "--covariates", "x",
                "--seed", "7",
                "--gmax", "3",
                "--restarts", "1",
                "--family", "poisson",
                "--criterion", "caic",
                "--force-mask", "all",
                "--out", str(ga_out),
            ]
        )
        assert code == 0
        ga_rows = list(csv.DictReader(open(ga_out / "ga.csv")))
        assert len(ga_rows) == 1
        assert float(ga_rows[0]["AIC"]) == chosen_row["aic"]
        assert float(ga_rows[0]["CAIC"]) == chosen_row["caic"]
        assert float(ga_rows[0]["SBC"]) == chosen_row["sbc"]

    def test_malformed_mask_exits_2(self, sim_dir, tmp_path):
        code = run(
            [
                "ga", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--seed", "1", "--force-mask", "1,banana",
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 2

    def test_mask_number_out_of_range_exits_2(self, sim_dir, tmp_path):
        code = run(
            [
                "ga", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--seed", "1", "--force-mask", "3",
                "--out", str(tmp_path / "range"),
            ]
        )
        assert code == 2

    def test_small_search_finds_oracle_subset(self, tmp_path):
        # two covariates, only the first informative
        rng = np.random.default_rng(50)
        n = 120
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = rng.poisson(np.exp(1.0 + 0.9 * x1))
        path = tmp_path / "two.csv"
        lines = ["y,x1,x2"] + [
            f"{int(y[i])},{float(x1[i])!r},{float(x2[i])!r}" for i in range(n)
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ga_small"
        code = run(
            [
                "ga", "--data", str(path), "--outcome", "y",
                "--covariates", "x1,x2", "--seed", "5", "--g", "1",
                "--restarts", "1", "--family", "poisson",
                "--runs", "6", "--pop", "6", "--gens", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "ga.csv")))
        assert rows[0]["subset"] == "1"
        assert (out / "components.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["ga_records"][0]["subset"] == "1"

    def test_winner_refit_at_smaller_g_exits_3(self, sim_dir, tmp_path, capsys, monkeypatch):
        # a fixed-G run must not report a winner refit with fewer components
        import countmix.ga as ga_mod

        real_em_fit = ga_mod.em_fit

        def shrinking(d, G, family, **kwargs):
            return real_em_fit(d, G - 1, family, **kwargs)

        monkeypatch.setattr(ga_mod, "em_fit", shrinking)
        out = tmp_path / "ga_shrunk"
        code = run(
            [
                "ga", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--seed", "7", "--g", "2",
                "--restarts", "1", "--family", "poisson",
                "--force-mask", "all", "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "'1'" in err and "G=2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_resweep_g_reports_the_winner_sweep_choice(self, tmp_path):
        # each mask is scored at its own G, and the report carries the G that
        # a sweep of the winning mask chooses by CAIC; a rerun is byte-identical
        from countmix import POISSON, CovariateMask, apply_mask, load_csv, sweep

        rng = np.random.default_rng(1)
        n = 120
        x1, x2 = rng.normal(size=(2, n))
        group = rng.random(n) < 0.5
        y = rng.poisson(np.where(group, 2.0, 12.0) * np.exp(0.4 * x1))
        path = tmp_path / "groups.csv"
        lines = ["y,x1,x2"] + [
            f"{int(y[i])},{float(x1[i])!r},{float(x2[i])!r}" for i in range(n)
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "resweep"
        argv = [
            "ga", "--data", str(path), "--outcome", "y", "--covariates", "x1,x2",
            "--seed", "5", "--gmax", "2", "--restarts", "1", "--family", "poisson",
            "--resweep-g", "--runs", "4", "--pop", "6", "--gens", "3", "--out", str(out),
        ]
        assert run(argv) == 0
        report = json.loads((out / "report.json").read_text())
        winner = CovariateMask(np.array(report["ga_records"][0]["bits"]))
        sub = apply_mask(load_csv(str(path), "y", ["x1", "x2"]), winner)
        res = sweep(sub, 2, seed=5, restarts=1, family=POISSON)
        assert report["selected_G"] == res.best["caic"]
        files = ("report.json", "ga.csv", "components.csv")
        first = [_read(out / f) for f in files]
        assert run(argv) == 0
        assert [_read(out / f) for f in files] == first

    def test_auto_g_sweeps_the_full_model_once(self, sim_dir, tmp_path, monkeypatch):
        import countmix.ga as ga_mod

        calls = []
        real_sweep = ga_mod.sweep

        def counting(*args, **kwargs):
            calls.append(args)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(ga_mod, "sweep", counting)
        code = run(
            [
                "ga", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--seed", "7", "--gmax", "2", "--restarts", "1",
                "--family", "poisson", "--runs", "2", "--pop", "4", "--gens", "2",
                "--out", str(tmp_path / "auto"),
            ]
        )
        assert code == 0
        assert len(calls) == 1  # no second sweep, and none per mask at the chosen G

    def test_icomp_unavailable_everywhere_exits_3(self, tmp_path, capsys):
        # a near-duplicate covariate leaves the observed information of the
        # full model ill-conditioned, so ICOMP is unavailable at every G
        rng = np.random.default_rng(0)
        n = 80
        x1 = rng.normal(size=n)
        x2 = x1 + 1e-7 * rng.normal(size=n)
        y = rng.poisson(np.exp(1.0 + 0.3 * x1))
        path = tmp_path / "dup.csv"
        lines = ["y,x1,x2"] + [
            f"{int(y[i])},{float(x1[i])!r},{float(x2[i])!r}" for i in range(n)
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ga_icomp"
        code = run(
            [
                "ga", "--data", str(path), "--outcome", "y",
                "--covariates", "x1,x2", "--seed", "1", "--gmax", "1",
                "--family", "poisson", "--runs", "2", "--criterion", "icomp",
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "icomp" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestFlagsRejectedBeforeAnyFit:
    """Unusable model and GA flags exit 2 before the family gate or any EM fit."""

    @pytest.fixture
    def no_fits(self, monkeypatch):
        import countmix.countglm as countglm_mod
        import countmix.ga as ga_mod
        import countmix.mixture as mixture_mod
        import countmix.selection as selection_mod

        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a fit ran before the flags were checked")

        for module, name in (
            (mixture_mod, "em_fit"), (ga_mod, "em_fit"), (mixture_mod, "_fit_g"), (selection_mod, "_fit_g"),
        ):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(countglm_mod, "fit_nb2", refuse)
        return calls

    @pytest.mark.parametrize("command", ["sweep", "ga"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--gmax", "0"],
            ["--restarts", "0"],
            ["--alpha-threshold", "nan"],
            ["--alpha-threshold", "inf"],
            ["--alpha-threshold", "-0.1"],
        ],
        ids=["gmax0", "restarts0", "alpha_nan", "alpha_inf", "alpha_negative"],
    )
    def test_model_flags(self, sim_dir, tmp_path, capsys, no_fits, command, flags):
        out = tmp_path / "out"
        argv = [
            command, "--data", str(sim_dir / "data.csv"), "--outcome", "y",
            "--covariates", "x", "--seed", "1", *flags, "--out", str(out),
        ]
        assert run(argv) == 2
        assert no_fits == []
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--runs", "0"], ["--pop", "2"], ["--mut", "2"], ["--g", "0"], ["--g", "two"],
            ["--g", "3", "--resweep-g"], ["--g", "two", "--resweep-g"],
        ],
        ids=["runs0", "pop2", "mut2", "g0", "g_text", "g3_resweep", "g_text_resweep"],
    )
    def test_ga_flags(self, sim_dir, tmp_path, no_fits, flags):
        out = tmp_path / "out"
        argv = [
            "ga", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
            "--covariates", "x", "--seed", "1", *flags, "--out", str(out),
        ]
        assert run(argv) == 2
        assert no_fits == []
        assert not out.exists()


class TestSummary:
    def test_prints_and_writes(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "summ"
        code = run(
            [
                "summary", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "mean" in captured
        rows = list(csv.DictReader(open(out / "summary.csv")))
        assert rows[0]["name"] == "y"

    def test_name_with_comma_round_trips(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text('"cases, 2010",x\n1,0.5\n3,1.5\n4,2.5\n', encoding="utf-8")
        out = tmp_path / "summ"
        code = run(
            [
                "summary", "--data", str(path), "--outcome", "cases, 2010",
                "--covariates", "x", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [5, 5, 5]
        assert [r[0] for r in rows] == ["name", "cases, 2010", "x"]

    def test_unknown_outcome_exits_2(self, sim_dir):
        code = run(
            [
                "summary", "--data", str(sim_dir / "data.csv"), "--outcome", "zz",
                "--covariates", "x",
            ]
        )
        assert code == 2


class TestStandardize:
    def test_flag_changes_design_not_outcome(self, sim_dir, tmp_path):
        plain = tmp_path / "plain"
        scaled = tmp_path / "scaled"
        assert run(
            [
                "summary", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--out", str(plain),
            ]
        ) == 0
        assert run(
            [
                "summary", "--data", str(sim_dir / "data.csv"), "--outcome", "y",
                "--covariates", "x", "--standardize", "--out", str(scaled),
            ]
        ) == 0
        plain_rows = {r["name"]: r for r in csv.DictReader(open(plain / "summary.csv"))}
        scaled_rows = {r["name"]: r for r in csv.DictReader(open(scaled / "summary.csv"))}
        assert plain_rows["y"] == scaled_rows["y"]
        assert abs(float(scaled_rows["x"]["mean"])) < 1e-10
        assert abs(float(scaled_rows["x"]["sd"]) - 1.0) < 1e-10


@st.composite
def _tiny_csv_text(draw):
    """A small CSV near the edges of what a G=2 mixture can be fitted to.

    n lies just above G(p+2) for G = 2; the last covariate may be constant,
    a near-duplicate of the first or an exact copy of it; y may be all equal.
    """
    p = draw(st.integers(1, 2))
    n = 2 * (p + 2) + draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(n, p))
    last = draw(st.sampled_from(["normal", "constant", "near_duplicate", "exact_duplicate"]))
    if last == "constant":
        X[:, -1] = 1.5
    elif last == "near_duplicate" and p > 1:
        X[:, -1] = X[:, 0] + 1e-9 * rng.normal(size=n)
    elif last == "exact_duplicate" and p > 1:
        X[:, -1] = X[:, 0]
    if draw(st.booleans()):
        y = np.full(n, draw(st.integers(0, 3)))
    else:
        y = rng.poisson(np.exp(1.0 + 0.5 * X[:, 0]) * rng.gamma(2.0, 0.5, n))
    names = [f"x{j + 1}" for j in range(p)]
    lines = [",".join(["y"] + names)]
    lines += [",".join([str(int(y[i]))] + [repr(float(v)) for v in X[i]]) for i in range(n)]
    return "\n".join(lines) + "\n", ",".join(names)


class TestIcompNeverATraceback:
    """ICOMP paths end in exit code 0, 2 or 3 on degenerate tiny inputs, never a traceback."""

    @given(data=_tiny_csv_text(), family=st.sampled_from(["auto", "poisson", "nb2"]))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_sweep_and_ga_exit_cleanly(self, data, family):
        text, covariates = data
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            common = [
                "--data", path, "--outcome", "y", "--covariates", covariates,
                "--seed", "1", "--family", family, "--criterion", "icomp",
            ]
            sweep = ["sweep", *common, "--gmax", "2", "--out", os.path.join(tmp, "s")]
            assert run(sweep) in (0, 2, 3)
            ga = ["ga", *common, "--g", "1", "--runs", "2", "--gens", "2"]
            assert run([*ga, "--out", os.path.join(tmp, "g")]) in (0, 2, 3)

    @pytest.mark.parametrize(
        "g_flags",
        [["--g", "auto"], ["--resweep-g"], ["--force-mask", "all"]],
        ids=["g_auto", "resweep_g", "force_mask"],
    )
    @given(data=_tiny_csv_text(), family=st.sampled_from(["auto", "poisson", "nb2"]))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_ga_g_settings_exit_cleanly(self, data, family, g_flags):
        text, covariates = data
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [
                "ga", "--data", path, "--outcome", "y", "--covariates", covariates,
                "--seed", "1", "--family", family, "--criterion", "icomp", "--gmax", "2",
                "--runs", "2", "--gens", "2", *g_flags, "--out", os.path.join(tmp, "g"),
            ]
            assert run(argv) in (0, 2, 3)


class TestExactCopies:
    def test_g1_ga_scores_masks_with_both_copies_infinite(self, tmp_path, monkeypatch, capsys):
        # the last covariate equals the first: a mask holding both is rank
        # deficient, so its fit fails and it scores +inf, but the run goes on
        import countmix.ga as ga_mod

        rng = np.random.default_rng(3)
        n = 90
        X = rng.normal(size=(n, 3))
        X[:, 2] = X[:, 0]
        y = rng.poisson(np.exp(1.0 + 0.4 * X[:, 0] + 0.3 * X[:, 1]))
        path = tmp_path / "copies.csv"
        lines = ["y,x1,x2,x3"] + [
            ",".join([str(int(y[i]))] + [repr(float(v)) for v in X[i]]) for i in range(n)
        ]
        path.write_text("\n".join(lines) + "\n")
        real_rows = ga_mod._block_rows
        scored = {}

        def recording(masks, *args, **kwargs):
            rows = real_rows(masks, *args, **kwargs)
            for mask, r in zip(masks, rows):
                scored[tuple(mask.bits.tolist())] = ga_mod._value(None if r is None else (r,), 1, "caic")
            return rows

        monkeypatch.setattr(ga_mod, "_block_rows", recording)
        out = tmp_path / "ga"
        code = run(
            [
                "ga", "--data", str(path), "--outcome", "y", "--covariates", "x1,x2,x3",
                "--seed", "2", "--g", "1", "--family", "poisson", "--runs", "10",
                "--gens", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(scored) == 8  # every mask was met
        for bits, value in scored.items():
            assert (value == np.inf) == (bits[0] and bits[2])
        records = json.loads((out / "report.json").read_text())["ga_records"]
        assert records
        assert not any(r["bits"][0] and r["bits"][2] for r in records)


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only: the package runs on numpy alone
    code = "import sys, countmix.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
