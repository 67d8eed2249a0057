import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from demtrack import Domain, bounds, processes
from demtrack.cli import _fmt, main
from demtrack.processes import (
    BallsInBins,
    balls_in_bins_spec,
    degree_process_spec,
    greedy_matching_spec,
    register_plugin,
)
from demtrack.specio import save_spec, spec_to_dict
from test_kernel import GUARDED, RaisingBalls, crash_name
from test_specio import NOT_NUMBER_IDS, NOT_NUMBERS
from test_verify import VERIFY_DOM

verify_module = importlib.import_module("demtrack.verify")


@pytest.fixture
def balls_spec_file(tmp_path):
    spec, _ = balls_in_bins_spec(2000, lam=1e-3)
    path = tmp_path / "balls.json"
    save_spec(spec, path)
    return path


@pytest.fixture
def matching_spec_file(tmp_path):
    spec, _ = greedy_matching_spec(400, lam=0.02)
    path = tmp_path / "matching.json"
    save_spec(spec, path)
    return path


class TestSolve:
    def test_prints_constants_and_writes_csv(self, balls_spec_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["solve", str(balls_spec_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "T = 2" in text
        assert "lambda_admissible = true" in text
        sigma = float(next(l for l in text.splitlines() if l.startswith("sigma")).split("=")[1])
        assert abs(sigma - (2 - 3 * math.e**2 * 1e-3)) < 2e-3
        rows = out.read_text().splitlines()
        assert rows[0] == "t,y_1"
        assert len(rows) > 2000

    def test_constant_drift_solution_csv(self, tmp_path):
        # constant drift -2 gives a linear grid; exercises the CSV path
        spec, _ = greedy_matching_spec(100, lam=0.02)
        path = tmp_path / "m.json"
        save_spec(spec, path)
        out = tmp_path / "m.csv"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,y_1"
        t1, y1 = (float(v) for v in rows[1].split(","))
        assert y1 == pytest.approx(1.0 - 2.0 * t1, rel=1e-9)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class CrashingBalls(BallsInBins):
    name = "crashing-balls"

    def step(self, state, rng):
        raise RuntimeError("boom")


def crashing_spec_file(tmp_path, monkeypatch):
    """A spec file of balls-in-bins whose row-wise ``step`` always raises."""
    monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
    register_plugin(CrashingBalls.name, lambda n, params: CrashingBalls(n))
    doc = spec_to_dict(balls_in_bins_spec(2000, lam=1e-3)[0])
    doc["plugin"] = CrashingBalls.name
    path = tmp_path / "crash.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_crashing_step_exits_3_without_csv(self, tmp_path, capsys, monkeypatch):
        path = crashing_spec_file(tmp_path, monkeypatch)
        out = tmp_path / "runs"
        assert main(["simulate", str(path), "--count", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory 0 failed at step 0")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--count", "--jobs"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_count_or_jobs_below_one_exits_2(
        self, flag, command, balls_spec_file, tmp_path, capsys
    ):
        out = tmp_path / "runs"
        args = [command, str(balls_spec_file), flag, "0"]
        assert main(args + (["--out", str(out)] if command == "simulate" else [])) == 2
        assert f"{flag[2:]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_outputs(self, balls_spec_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(
                ["simulate", str(balls_spec_file), "--count", "1", "--seed", "7",
                 "--out", str(out)]
            )
            assert rc == 0
        f1 = (out1 / "traj_0000.csv").read_text()
        f2 = (out2 / "traj_0000.csv").read_text()
        assert f1 == f2
        assert f1.splitlines()[0] == "i,Y_1,drift_1,flags"

    def test_monte_carlo_tracks_limit(self, tmp_path):
        spec, _ = balls_in_bins_spec(100, lam=5e-3)
        path = tmp_path / "small.json"
        save_spec(spec, path)
        out = tmp_path / "runs"
        assert main(
            ["simulate", str(path), "--count", "1", "--seed", "3", "--out", str(out),
             "--full"]
        ) == 0
        rows = (out / "traj_0000.csv").read_text().splitlines()[1:]
        i_last, y_last = rows[-1].split(",")[:2]
        t_end = int(i_last) / 100
        assert abs(int(y_last) / 100 - math.exp(-t_end)) < 0.2

    def test_deviation_tracking_flag(self, balls_spec_file, tmp_path, capsys):
        rc = main(
            ["simulate", str(balls_spec_file), "--count", "1", "--seed", "2",
             "--out", str(tmp_path / "d"), "--deviations"]
        )
        assert rc == 0
        assert "sup_deviation = " in capsys.readouterr().out

    def test_bound_violations_set_flag_bit_2(self, tmp_path):
        # beta = 0.5 < 1, so every step that fills an empty bin is a bound
        # violation; the field is the process's, so no step is a trend one
        spec, _ = balls_in_bins_spec(200, lam=5e-3)
        path = tmp_path / "half_beta.json"
        save_spec(spec, path)
        doc = json.loads(path.read_text())
        doc["beta"] = 0.5
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        assert main(["simulate", str(path), "--count", "1", "--full", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "traj_0000.csv").read_text().splitlines()[1:]]
        for row, nxt in zip(rows, rows[1:]):
            assert row[-1] == ("2" if nxt[1] != row[1] else "0")
        assert any(row[-1] == "2" for row in rows)

    def test_unknown_plugin_exits_2(self, tmp_path, capsys):
        doc = spec_to_dict(balls_in_bins_spec(100)[0])
        doc["plugin"] = "mystery-process"
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "unknown plugin" in capsys.readouterr().err


class TestVerify:
    def test_pass_run_exits_0(self, matching_spec_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["verify", str(matching_spec_file), "--count", "5", "--seed", "1",
             "--report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == 1
        assert doc["failure_count"] == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    @pytest.mark.parametrize("bias", [1, 2])
    def test_no_replay_run_leaves_the_replay_out(self, bias, tmp_path, monkeypatch):
        """Balls-in-bins whose bins empty ``bias`` times as fast as its drift
        says: without the replay, the exit code still follows ``within_bound``
        and the report differs only by its missing ``gronwall_replay``."""

        class FastBalls(BallsInBins):
            name = "fast-balls"

            def step_batch(self, states, u):
                return states - (u[:, 0] * self.n < bias * states)

        monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
        register_plugin(FastBalls.name, lambda n, params: FastBalls(n))
        dom = Domain(t_lo=-1.0, t_hi=1.0, lo=(-1.0,), hi=(2.0,))
        spec, _ = balls_in_bins_spec(100_000, lam=0.015, domain=dom)
        doc = spec_to_dict(spec)
        doc["plugin"] = FastBalls.name
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        ok = verify_module.within_bound(
            verify_module.verify(spec, FastBalls(100_000), 5, 0, replay_check=False)
        )
        assert ok == (bias == 1)
        docs = []
        for flags in ([], ["--no-replay"]):
            out = tmp_path / f"report{len(flags)}.json"
            assert main(["verify", str(path), "--count", "5", "--report", str(out), *flags]) == (
                0 if ok else 1
            )
            docs.append(json.loads(out.read_text()))
        replayed, bare = docs
        assert "gronwall_replay" in replayed and "gronwall_replay" not in bare
        assert bare == {k: v for k, v in replayed.items() if k != "gronwall_replay"}

    def test_vacuous_run_exits_0(self, tmp_path, capsys):
        # margin 3*e*0.25 far exceeds the anchor's gap to the box's top face
        spec, _ = balls_in_bins_spec(500, lam=0.25, domain=VERIFY_DOM)
        path = tmp_path / "vacuous.json"
        save_spec(spec, path)
        assert main(["verify", str(path), "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "sigma = 0: guarantee vacuous over an empty range" in out
        assert "verdict" not in out

    def test_hypothesis_violations_are_printed(self, tmp_path, capsys):
        # beta = 0.5 < 1: every step that fills an empty bin is a bound violation
        spec, _ = balls_in_bins_spec(2000, lam=0.02, domain=VERIFY_DOM)
        doc = spec_to_dict(spec)
        doc["beta"] = 0.5
        path = tmp_path / "half_beta.json"
        path.write_text(json.dumps(doc))
        main(["verify", str(path), "--count", "3"])
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("hypotheses-failed: ")]
        assert len(failed) == 1 and failed[0].startswith("hypotheses-failed: 0 trend / ")
        assert int(failed[0].split(" / ")[1].split()[0]) > 0

    def test_truncated_without_extensions_exits_2(self, balls_spec_file, capsys):
        rc = main(["verify", str(balls_spec_file), "--mode", "truncated", "--count", "2"])
        assert rc == 2
        assert "extensions" in capsys.readouterr().err

    def test_truncated_with_extensions_runs(self, tmp_path):
        spec, _ = greedy_matching_spec(400, lam=0.02)
        doc = spec_to_dict(spec)
        doc["extensions"] = {"gamma": 0.0, "B": 2.0, "x": 0.0}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--mode", "truncated", "--count", "3"]) == 0

    def test_truncated_with_only_x_uses_plugin_gamma_and_B(self, tmp_path, capsys):
        spec, plugin = greedy_matching_spec(400, lam=0.02)
        assert plugin.truncation(spec) is not None
        doc = spec_to_dict(spec)
        doc["extensions"] = {"x": 0.0}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--mode", "truncated", "--count", "3"]) == 0
        assert "mode = truncated" in capsys.readouterr().out

    def test_crashing_plugin_exits_3(self, tmp_path, capsys, monkeypatch):
        path = crashing_spec_file(tmp_path, monkeypatch)
        assert main(["verify", str(path), "--count", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory 0 failed at step 0")

    @pytest.mark.parametrize("method", GUARDED)
    def test_a_raising_plugin_method_exits_3(self, method, tmp_path, capsys, monkeypatch):
        def make(n, params):
            plugin = RaisingBalls(n)
            plugin.raising = method
            return plugin

        monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
        register_plugin(RaisingBalls.name, make)
        doc = spec_to_dict(balls_in_bins_spec(2000, lam=1e-3)[0])
        doc["plugin"] = RaisingBalls.name
        path = tmp_path / "raising.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--count", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {crash_name(method)} raised ZeroDivisionError")

    def test_raising_initial_observables_exit_3(self, tmp_path, capsys, monkeypatch):
        """verify takes Y(0) from the kernel's start rule, under its guard."""

        class NoCountsBalls(BallsInBins):
            name = "no-counts-balls"

            def observables_batch(self, states):
                raise KeyError("no counts")

        monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
        register_plugin(NoCountsBalls.name, lambda n, params: NoCountsBalls(n))
        doc = spec_to_dict(balls_in_bins_spec(2000, lam=1e-3)[0])
        doc["plugin"] = NoCountsBalls.name
        path = tmp_path / "no_counts.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--count", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: NoCountsBalls.observables_batch raised KeyError('no counts') on the initial state\n"
        )

    def test_fractional_initial_state_exits_3(self, tmp_path, capsys, monkeypatch):
        """A start state that the kernel would refuse is refused by verify,
        even when every anchor is vacuous and nothing is simulated."""

        class HalfBalls(BallsInBins):
            name = "half-balls"

            def initial_state(self):
                return self.n + 0.5

        monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
        register_plugin(HalfBalls.name, lambda n, params: HalfBalls(n))
        doc = spec_to_dict(balls_in_bins_spec(1000, lam=0.05)[0])
        doc["plugin"] = HalfBalls.name
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--count", "2"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: HalfBalls.initial_state returned 1000.5: a state is an int"
        )

    def test_inadmissible_lambda_exits_2(self, tmp_path, capsys):
        spec, _ = balls_in_bins_spec(2000, lam=1e-3)
        doc = spec_to_dict(spec)
        doc["lambda"] = 1e-6
        path = tmp_path / "bad_lam.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--count", "2"]) == 2
        assert "lambda" in capsys.readouterr().err


class NanFieldBalls(BallsInBins):
    """Balls-in-bins whose limiting field is NaN for t > 0.3."""

    name = "nan-field-balls"

    def drift_field(self, t, y):
        y = np.asarray(y, dtype=float)
        return np.full_like(y, math.nan) if t > 0.3 else -y


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_nan_field_is_refused_before_any_run(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
    register_plugin(NanFieldBalls.name, lambda n, params: NanFieldBalls(n))
    doc = spec_to_dict(balls_in_bins_spec(2000, lam=1e-3)[0])
    doc["plugin"] = NanFieldBalls.name
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    ran = []
    monkeypatch.setattr(verify_module, "run_ensemble", lambda *args, **kw: ran.append(1))
    assert main([command, str(path)]) == 2
    assert "drift is not finite at the RT scan point t=0.3" in capsys.readouterr().err
    assert not ran


class RaisingFieldBalls(BallsInBins):
    """Balls-in-bins whose limiting field takes single points only and raises for t > 0.5."""

    name = "raising-field-balls"

    def drift_field(self, t, y):
        if t > 0.5:
            raise ZeroDivisionError("t past 0.5")
        return -np.asarray(y, dtype=float)


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_raising_field_exits_2(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(processes, "_REGISTRY", dict(processes._REGISTRY))
    register_plugin(RaisingFieldBalls.name, lambda n, params: RaisingFieldBalls(n))
    doc = spec_to_dict(balls_in_bins_spec(2000, lam=1e-3)[0])
    doc["plugin"] = RaisingFieldBalls.name
    path = tmp_path / "raising_field.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: drift raised ZeroDivisionError('t past 0.5') at the RT scan point t=0.53"
    )


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "key,value",
    [
        ("params", [1]),
        ("params", {"max_degree": [1]}),
        ("extensions", "bx"),
        ("extensions", ["x"]),
        ("extensions", {"b": [1]}),
        ("plugin", ["x"]),
    ],
)
def test_malformed_field_exits_2(command, key, value, tmp_path, capsys):
    """A one-field edit of a valid spec is a schema error, not a crash."""
    doc = spec_to_dict(degree_process_spec(1000)[0])
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "key,value",
    [("n", 1000.5), ("n", "1000"), ("n", True), ("max_degree", 2.9), ("max_degree", "3")],
)
def test_non_integer_count_exits_2(command, key, value, tmp_path, capsys):
    """``n`` and ``max_degree`` are integers, never truncated or parsed."""
    doc = spec_to_dict(degree_process_spec(1000)[0])
    (doc if key == "n" else doc["params"])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("edit,name,value", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_a_string_or_boolean_number_exits_2(command, edit, name, value, tmp_path, capsys):
    """Real-valued keys take JSON numbers: a string or a boolean is a schema
    error naming the key."""
    doc = spec_to_dict(balls_in_bins_spec(1000)[0])
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be a number, got {value!r}\n"


# (plugin, edit of its spec document, the key the error names)
UNKNOWN_KEYS = [
    ("degree-process", lambda doc: doc.update(extensions={"gama": 0.5, "x": 0}), "gama"),
    ("degree-process", lambda doc: doc.update(extension={"x": 0}), "extension"),
    ("degree-process", lambda doc: doc["domain"].update(z=[0, 1]), "domain.z"),
    ("degree-process", lambda doc: doc["params"].update(max_degre=5), "max_degre"),
    ("balls-in-bins", lambda doc: doc["params"].update(max_degree=3), "max_degree"),
    ("greedy-matching", lambda doc: doc["params"].update(seed=1), "seed"),
]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("plugin,edit,named", UNKNOWN_KEYS, ids=[c[2] for c in UNKNOWN_KEYS])
def test_unknown_key_exits_2(command, plugin, edit, named, tmp_path, capsys):
    """A misspelt or unknown key, or a parameter the plugin does not take, is
    refused by name instead of being ignored."""
    make = {"degree-process": degree_process_spec, "balls-in-bins": balls_in_bins_spec,
            "greedy-matching": greedy_matching_spec}[plugin]
    doc = spec_to_dict(make(1000, lam=0.05)[0])
    edit(doc)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), *(["--count", "2"] if command == "verify" else [])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"


def test_out_of_range_mode_parameter_exits_2(tmp_path, capsys):
    """A negative B is refused by its spec key before any work, as in CI."""
    doc = json.loads((SPECS / "matching.json").read_text())
    doc["extensions"] = {"gamma": 0.1, "B": -1.0, "x": 0.0}
    path = tmp_path / "negative_B.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--mode", "truncated", "--count", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: extensions.B must be nonnegative")


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    """A negative --seed is refused by name before any work, as in CI."""
    out = tmp_path / "runs"
    args = [command, str(SPECS / "matching.json"), "--count", "4", "--seed", "-1"]
    assert main(args + (["--out", str(out)] if command == "simulate" else [])) == 2
    assert capsys.readouterr().err == "error: base_seed must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_shipped_spec_solves(name):
    """Every spec file under scripts/specs is named in the README and solves."""
    assert name in (SPECS.parents[1] / "README.md").read_text()
    assert main(["solve", str(SPECS / name)]) == 0


# One call of every bounds kind: (kind, function, keyword arguments). The
# CLI flag of each argument is its parameter name.
BOUND_CASES = [
    ("azuma", bounds.azuma_bound, {"m": 50, "c": 1.5, "t": 12.0}),
    ("theorem", bounds.theorem_failure_probability,
     {"a": 2, "n": 100000, "lam": 0.02, "T": 1.5, "beta": 1.0}),
    ("freedman", bounds.freedman_failure_probability,
     {"a": 3, "n": 50000, "lam": 0.02, "T": 1.0, "beta": 2.0, "b": 0.5}),
    ("freedman-two-term", bounds.freedman_two_term_probability,
     {"a": 3, "n": 50000, "lam": 0.02, "T": 1.0, "beta": 2.0, "b": 0.5}),
    ("gronwall-discrete", bounds.gronwall_discrete_bound,
     {"c": 1.0, "b": 0.25, "a": 0.1, "m": 7}),
    ("gronwall-continuous", bounds.gronwall_continuous_bound,
     {"C": 0.5, "L": 2.0, "t": 1.25}),
    ("stability", bounds.stability_bound, {"lam": 0.01, "delta": 0.002, "L": 3.0, "T": 0.5}),
    ("binomial-tail", bounds.binomial_tail, {"m": 40, "gamma": 0.1, "k": 7}),
    ("binomial-remark", bounds.binomial_tail_remark_bound, {"m": 40, "gamma": 0.01, "x": 2.5}),
    ("truncated", bounds.truncated_failure_probability,
     {"a": 2, "n": 1000, "lam": 0.1, "T": 1.0, "beta": 1.0, "gamma": 0.001, "x": 1.0}),
]


def _bounds_argv(kind, kwargs, lam_flag="--lam"):
    argv = ["bounds", kind]
    for name, value in kwargs.items():
        argv += [lam_flag if name == "lam" else f"--{name}", str(value)]
    return argv


class TestBounds:
    @pytest.mark.parametrize("kind,fn,kwargs", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
    def test_every_kind_prints_its_function(self, kind, fn, kwargs, capsys):
        assert main(_bounds_argv(kind, kwargs)) == 0
        assert capsys.readouterr().out == _fmt(fn(**kwargs)) + "\n"

    @pytest.mark.parametrize(
        "kind,fn,kwargs",
        [c for c in BOUND_CASES if "lam" in c[2]],
        ids=[c[0] for c in BOUND_CASES if "lam" in c[2]],
    )
    def test_every_lam_kind_takes_lambda(self, kind, fn, kwargs, capsys):
        assert main(_bounds_argv(kind, kwargs, "--lambda")) == 0
        assert capsys.readouterr().out == _fmt(fn(**kwargs)) + "\n"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["bounds", "azuma", "--m", "100", "--c", "1", "--t", "20"],
             "0.270670566473"),
            (["bounds", "theorem", "--a", "2", "--n", "1000000", "--lam", "0.01",
              "--T", "1", "--beta", "1"],
             "1.49066126883e-05"),
            (["bounds", "azuma", "--m", "100", "--c", "1", "--t", "0"], "2"),
            (["bounds", "gronwall-discrete", "--c", "2", "--b", "1", "--a", "0.5",
              "--m", "4"],
             "29.5562243957"),
            (["bounds", "binomial-tail", "--m", "2", "--gamma", "0.5", "--k", "1"],
             "0.75"),
            (["bounds", "stability", "--lam", "0.01", "--delta", "0.001", "--L", "1",
              "--T", "2"],
             "0.0886686731872"),
        ],
    )
    def test_values(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_lambda_alias(self, capsys):
        assert main(
            ["bounds", "theorem", "--a", "1", "--n", "8", "--lambda", "1",
             "--T", "1", "--beta", "1"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0.735758882343"

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["bounds", "azuma", "--m", "0", "--c", "1", "--t", "1"]) == 2
