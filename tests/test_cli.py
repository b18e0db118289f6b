"""End-to-end command-line tests driven through main() in process."""
import argparse
import csv
import dataclasses
import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import write_zero_column_grid

from gridcast import cli, experiments
from gridcast.cli import build_parser, main
from gridcast.config import MODEL, RunSettings, load_settings
from gridcast.checkpoint import load_checkpoint
from gridcast.dataio import load_grid, save_grid
from gridcast.grid import Grid, GridSpec, assemble_features, window_at
from gridcast.models import TrainConfig


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _ok(capsys, argv) -> dict:
    code, out, err = _run(capsys, argv)
    assert code == 0, f"argv={argv} err={err}"
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1  # exactly one summary line on stdout
    return json.loads(lines[0])


def _fail(capsys, argv, code) -> dict:
    got, out, err = _run(capsys, argv)
    assert got == code
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1  # exactly one error line on stderr
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# small-but-trainable shared pipeline: synthetic log, grid, two checkpoints
TINY = [
    "--d", "300", "--epochs", "1", "--batch-size", "16",
    "--window-h", "6", "--window-w", "4",
    "--n-filters", "2", "--kernel-size", "2", "--n-blocks", "1",
]
# grid-search takes width, kernel size and depth only from its search lists
SEARCH_TINY = [*TINY[:-6], "--search-filters", "2", "--search-kernels", "2", "--search-blocks", "1"]
SYNTH = [
    "--seed", "7", "--lambda-thread", "0.01", "--mu-reply", "0.05",
    "--theta", "120", "--horizon", "4000",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    events = root / "events.ndjson"
    grid_file = root / "grid.bin"
    thread_ckpt = root / "thread.ckpt"
    reply_ckpt = root / "reply.ckpt"
    assert main(["synth", "--out", str(events), *SYNTH]) == 0
    assert main(["grid", "--in", str(events), "--out", str(grid_file), "--d", "300"]) == 0
    assert main(["train-thread", "--in", str(events), "--out", str(thread_ckpt), *TINY]) == 0
    assert main(["train-reply", "--in", str(events), "--out", str(reply_ckpt), *TINY]) == 0
    return {
        "root": root,
        "events": events,
        "grid": grid_file,
        "thread": thread_ckpt,
        "reply": reply_ckpt,
    }


def _runnable_parsers(parser, path=()):
    """(path, parser) for every parser that runs a command, nested ones too."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _runnable_parsers(sub, (*path, name))


def _short_runs(workdir):
    """(head, tail) for every command at the short settings above, once
    per --task and per --grid/--in mode; the run is head + tail + --out."""
    events, grid = str(workdir["events"]), str(workdir["grid"])
    thread, reply = str(workdir["thread"]), str(workdir["reply"])
    ckpts = ["--thread-checkpoint", thread, "--reply-checkpoint", reply]
    experiment = ["--horizon", "20000", *TINY[2:]]
    return [
        ("ingest", ["--in", events]),
        ("synth", SYNTH),
        ("grid", ["--in", events, "--d", "300"]),
        ("train-thread", ["--in", events, *TINY]),
        ("train-reply", ["--in", events, *TINY]),
        ("grid-search --task thread", ["--in", events, *SEARCH_TINY]),
        ("grid-search --task reply", ["--in", events, *SEARCH_TINY]),
        ("predict", ["--checkpoint", thread, "--in", events, "--d", "300"]),
        ("predict", ["--checkpoint", reply, "--grid", grid]),
        ("adaptive", ["--in", events, *ckpts, "--d", "300",
                      "--n-threads", "2", "--n-intervals", "1"]),
        ("breakout", ["--in", events, "--checkpoint", reply, "--d", "300",
                      "--durations", "300,600", "--context-cols", "4"]),
        ("evaluate --task thread", ["--in", events, "--checkpoint", thread, "--d", "300"]),
        ("evaluate --task reply", ["--in", events, "--checkpoint", reply, "--d", "300"]),
        ("evaluate --task adaptive", ["--in", events, *ckpts, "--d", "300",
                                      "--n-threads", "2", "--n-start-points", "2"]),
        ("sweep-d", ["--in", events, "--d-values", "300,600", *TINY[2:],
                     "--span-seconds", "1200"]),
        ("experiment synth-benchmark", experiment),
        ("experiment breakout", [*experiment, "--durations", "300,600"]),
        ("experiment sweep", [*experiment, "--seeds", "1", "--d-values", "300,600"]),
    ]


_FIELDS = {f.name for f in dataclasses.fields(RunSettings)}


def _checking(frame) -> bool:
    """Whether frame runs inside RunSettings.__post_init__."""
    while frame is not None:
        if frame.f_code is RunSettings.__post_init__.__code__:
            return True
        frame = frame.f_back
    return False


def _recording_load_settings(reads: set):
    """load_settings whose result adds to reads each field read from it.
    Reads while RunSettings.__post_init__ is on the stack, and reads by
    the dataclasses module (replace, asdict), check or copy the settings
    rather than use them, so they are left out. A copy made with replace
    records only the fields it took from the settings it copies: the
    fields the copy replaced hold the caller's values, not the settings'."""
    copied = []  # the recorded fields that replace is taking from its original

    class RecordingSettings(RunSettings):
        def __post_init__(self):
            object.__setattr__(self, "_recorded", frozenset(copied))
            copied.clear()
            super().__post_init__()

        def __getattribute__(self, name):
            if name in _FIELDS and name in object.__getattribute__(self, "_recorded"):
                frame = sys._getframe(1)
                if frame.f_code.co_filename == dataclasses.__file__:
                    copied.append(name)
                elif not _checking(frame):
                    reads.add(name)
            return object.__getattribute__(self, name)

    def load(config_path, overrides, base):
        settings = load_settings(config_path, overrides,
                                 RecordingSettings(**dataclasses.asdict(base)))
        object.__setattr__(settings, "_recorded", _FIELDS)
        return settings

    return load


@pytest.fixture(scope="module")
def settings_read(workdir):
    """subcommand -> the RunSettings fields its short runs read."""
    reads: dict[str, set] = {}
    out = str(workdir["root"] / "recorded.out")
    with pytest.MonkeyPatch.context() as mp:
        for head, tail in _short_runs(workdir):
            command_reads = reads.setdefault(head.split(" --")[0], set())
            mp.setattr(cli, "load_settings", _recording_load_settings(command_reads))
            assert main([*head.split(), *tail, "--out", out]) == 0, head
    return reads


def test_recording_leaves_out_checks_and_copies():
    reads = set()
    s = _recording_load_settings(reads)(None, {"d": 60.0}, RunSettings())
    assert reads == set()
    assert s.d == 60.0 and s.model_config("reply").n_filters == 16
    assert reads == {"d", *MODEL}


def test_recording_leaves_out_the_fields_a_copy_replaced():
    reads = set()
    s = _recording_load_settings(reads)(None, {}, RunSettings())
    copy = dataclasses.replace(s, d=60.0, rows=0)
    assert reads == set()
    assert (copy.d, copy.t0, copy.rows) == (60.0, 0.0, 0)
    assert reads == {"t0"}
    assert dataclasses.replace(copy, t0=5.0).model_config("reply").n_filters == 16
    assert reads == {"t0", *MODEL}


def test_every_subcommand_has_one_flag_per_setting(settings_read):
    """Each runnable subcommand has one flag for each setting its command
    reads, and none for the others: 167 flags over the 14 commands; and
    --config if it reads any setting."""
    runnable = dict(_runnable_parsers(build_parser()))
    assert set(runnable) == set(settings_read)
    assert len(runnable) == 14
    fields = {f.name: f for f in dataclasses.fields(RunSettings)}
    for name, sub in runnable.items():
        actions = [a for a in sub._actions if a.dest in fields]
        assert sorted(a.dest for a in actions) == sorted(settings_read[name]), name
        for action in actions:
            f = fields[action.dest]
            assert action.option_strings == ["--" + f.name.replace("_", "-")], (name, f.name)
            assert (action.type, action.default) == (type(f.default), None), (name, f.name)
        # --config exactly when the command reads some setting
        assert any(a.dest == "config" for a in sub._actions) == bool(settings_read[name]), name
    assert sum(len(reads) for reads in settings_read.values()) == 167
    assert set().union(*settings_read.values()) == set(fields)


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_no_subcommand_is_usage_error(capsys):
    payload = _fail(capsys, [], 2)
    assert payload["error"] == "config"


def test_unknown_subcommand_is_usage_error(capsys, tmp_path):
    payload = _fail(capsys, ["frobnicate"], 2)
    assert payload["error"] == "config"


def test_unknown_flag_is_usage_error(capsys, tmp_path):
    out = tmp_path / "x.ndjson"
    payload = _fail(capsys, ["synth", "--out", str(out), "--bogus", "1"], 2)
    assert payload["error"] == "config"
    assert "--bogus" in payload["message"]


def test_missing_required_argument_is_usage_error(capsys, tmp_path):
    payload = _fail(capsys, ["grid", "--in", str(tmp_path / "e.ndjson")], 2)
    assert payload["error"] == "config"
    assert "--out" in payload["message"]


def test_bad_channel_set_is_config_error(capsys, tmp_path):
    argv = [
        "train-thread", "--in", str(tmp_path / "e.ndjson"),
        "--out", str(tmp_path / "t.ckpt"), "--channels", "bogus",
    ]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert "unknown channel set 'bogus'" in payload["message"]


def test_unknown_config_key_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"not_a_setting": 1}), encoding="utf-8")
    payload = _fail(
        capsys, ["synth", "--out", str(tmp_path / "x.ndjson"), "--config", str(cfg)], 2
    )
    assert payload["error"] == "config"
    assert "not_a_setting" in payload["message"]


def test_missing_config_file_is_config_error(capsys, tmp_path):
    payload = _fail(
        capsys,
        ["synth", "--out", str(tmp_path / "x.ndjson"), "--config", str(tmp_path / "no.json")],
        2,
    )
    assert payload["error"] == "config"
    assert "not found" in payload["message"]


def test_empty_event_log_is_config_error(capsys, tmp_path):
    events = tmp_path / "empty.ndjson"
    events.write_text("", encoding="utf-8")
    payload = _fail(
        capsys, ["grid", "--in", str(events), "--out", str(tmp_path / "g.bin")], 2
    )
    assert payload["error"] == "config"
    assert "no cascades" in payload["message"]


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    payload = _fail(
        capsys,
        ["ingest", "--in", str(tmp_path / "absent.ndjson")],
        1,
    )
    assert payload["error"] == "FileNotFoundError"


def test_malformed_event_line_is_runtime_error(capsys, tmp_path):
    events = tmp_path / "bad.ndjson"
    events.write_text('{"thread_id": "a"}\n', encoding="utf-8")
    payload = _fail(capsys, ["ingest", "--in", str(events)], 1)
    assert "line 1" in payload["message"]


def test_corrupt_checkpoint_is_runtime_error(capsys, tmp_path, workdir):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    argv = [
        "predict", "--checkpoint", str(bad),
        "--grid", str(workdir["grid"]), "--out", str(tmp_path / "p.csv"),
    ]
    payload = _fail(capsys, argv, 1)
    assert "magic" in payload["message"]


@pytest.mark.parametrize("argv", [["grid", "--out", "g.bin"],
                                  ["sweep-d", "--d-values", "300", "--out", "s.csv"]])
def test_events_before_t0_are_reported_as_such(capsys, workdir, tmp_path, monkeypatch, argv):
    """Every event of the log precedes --t0: the error names the cascade."""
    monkeypatch.chdir(tmp_path)
    payload = _fail(capsys, [*argv, "--in", str(workdir["events"]), "--t0", "100000"], 1)
    assert payload["error"] == "GridError"
    assert payload["message"].startswith("event before t0 in cascade 't000000': ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["thread", "reply"])
def test_predict_rejects_a_grid_file_without_columns(capsys, workdir, tmp_path, kind):
    grid_file = tmp_path / "empty.bin"
    write_zero_column_grid(grid_file)
    out = tmp_path / "p.csv"
    argv = ["predict", "--checkpoint", str(workdir[kind]), "--grid", str(grid_file),
            "--out", str(out)]
    payload = _fail(capsys, argv, 1)
    assert payload["error"] == "GridFileError"
    assert "empty.bin: malformed grid" in payload["message"]
    assert not out.exists()


def test_predict_rejects_a_grid_file_that_breaks_its_invariants(capsys, workdir, tmp_path):
    """A negative count, counts before arrival, and arrival rows out of order."""
    counts = np.array([[5, 7], [0, 0], [-3, 0], [1, 0]], dtype=np.int64)
    grid_file = tmp_path / "bad.bin"
    save_grid(Grid(GridSpec(300.0, 0.0, 4, 2), counts, np.array([2, 0], np.int64)), grid_file)
    out = tmp_path / "p.csv"
    argv = ["predict", "--checkpoint", str(workdir["reply"]), "--grid", str(grid_file),
            "--out", str(out)]
    payload = _fail(capsys, argv, 1)
    assert payload["error"] == "GridFileError"
    assert "bad.bin: malformed grid" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param(command, flag, value, id=f"{flag}-{value}")
        for command, flag, value in [
            ("train-reply", "--epochs", "0"),
            ("train-reply", "--batch-size", "0"),
            ("train-reply", "--loss-mode", "bogus"),
            ("train-reply", "--n-filters", "0"),
            ("train-reply", "--train-frac", "1.5"),
            ("train-reply", "--seed", "-1"),
            ("train-reply", "--lr", "-1.0"),
            ("train-reply", "--lr", "0"),
            ("train-reply", "--rows", "-3"),
            ("evaluate --task adaptive", "--n-start-points", "0"),
            ("breakout", "--context-cols", "0"),
            ("adaptive", "--n-threads", "-1"),
            ("adaptive", "--n-intervals", "-1"),
            ("breakout", "--horizon-intervals", "-2"),
            ("grid", "--d", "nan"),
            ("grid", "--t0", "inf"),
            ("synth", "--mu-reply", "nan"),
            ("train-reply", "--weight-decay", "inf"),
        ]
    ]
    + [
        ("train-reply", "--filter-shape", "bogus"),
        ("train-thread", "--loss-mode", "bogus"),
        ("synth", "--lambda-thread", "-1"),
        ("experiment synth-benchmark", "--horizon", "0"),
    ],
)
def test_out_of_range_setting_is_config_error(capsys, workdir, tmp_path, command, flag, value):
    out = tmp_path / "out"
    tail = dict(_short_runs(workdir))[command]
    argv = [*command.split(), *tail, "--out", str(out), flag, value]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    name = flag[2:].replace("-", "_")  # the message names the setting, not an unknown flag
    assert name in payload["message"] or name.replace("_", " ") in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-d", "experiment sweep"])
@pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
def test_zero_training_setting_fails_before_the_sweep_grids(
    capsys, workdir, tmp_path, command, flag
):
    """The bound is checked at settings load, so it is reported rather than
    the GridError that gridding at d = 100000 s would raise first."""
    out = tmp_path / "out"
    tail = dict(_short_runs(workdir))[command]
    argv = [*command.split(), *tail, "--out", str(out), flag, "0", "--d-values", "100000"]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert f"{flag[2:].replace('-', '_')} must be >= 1, got 0" in payload["message"]
    assert not out.exists()


def test_bad_model_setting_fails_before_the_corpus_is_drawn(
    capsys, monkeypatch, workdir, tmp_path
):
    """The settings build their model config when loaded, so the sweep
    never generates its corpus."""
    drawn = []
    synth_generate = experiments.synth_generate

    def counting_synth_generate(params):
        drawn.append(params)
        return synth_generate(params)

    monkeypatch.setattr(experiments, "synth_generate", counting_synth_generate)
    out = tmp_path / "out"
    tail = dict(_short_runs(workdir))["experiment sweep"]
    payload = _fail(capsys, ["experiment", "sweep", *tail, "--out", str(out),
                             "--n-filters", "0"], 2)
    assert payload["error"] == "config"
    assert "n_filters must be >= 1, got 0" in payload["message"]
    assert drawn == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-d", "--d", "300"],  # would be --d-values by prefix
        ["breakout", "--horizon", "86400"],  # would be --horizon-intervals by prefix
        ["grid", "--ro", "40"],  # would be --rows by prefix
        ["ingest", "--seed", "3"],
        ["ingest", "--config", "/nonexistent.json"],  # ingest reads no setting
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unread_or_abbreviated_setting_flag_is_usage_error(capsys, workdir, tmp_path, argv):
    command, *flags = argv
    out = tmp_path / "out"
    tail = dict(_short_runs(workdir))[command]
    payload = _fail(capsys, [command, *tail, "--out", str(out), *flags], 2)
    assert payload["error"] == "config"
    assert f"unrecognized arguments: {' '.join(flags)}" in payload["message"]
    assert not out.exists()


def test_predict_takes_exactly_one_of_grid_and_in(capsys, workdir, tmp_path):
    out = tmp_path / "p.csv"
    head = ["predict", "--checkpoint", str(workdir["reply"]), "--out", str(out)]
    payload = _fail(capsys, head, 2)
    assert "one of the arguments --grid --in is required" in payload["message"]
    both = [*head, "--grid", str(workdir["grid"]), "--in", str(workdir["events"])]
    payload = _fail(capsys, both, 2)
    assert "not allowed with argument --grid" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "task, given, missing",
    [
        ("thread", None, "--checkpoint"),
        ("reply", None, "--checkpoint"),
        ("adaptive", "reply", "--thread-checkpoint"),
        ("adaptive", "thread", "--reply-checkpoint"),
    ],
)
def test_evaluate_without_its_checkpoint_is_config_error(
    capsys, workdir, tmp_path, task, given, missing
):
    out = tmp_path / "e.csv"
    ckpts = [f"--{given}-checkpoint", str(workdir[given])] if given else []
    argv = ["evaluate", "--in", str(workdir["events"]), "--task", task, *ckpts, "--out", str(out)]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"--task {task} needs {missing}"
    assert not out.exists()


@pytest.mark.parametrize(
    "task, given, unread",
    [
        ("thread", "thread", "--reply-checkpoint"),
        ("reply", "reply", "--thread-checkpoint"),
        ("adaptive", None, "--checkpoint"),
    ],
)
def test_evaluate_with_a_checkpoint_its_task_does_not_read_is_config_error(
    capsys, workdir, tmp_path, task, given, unread
):
    out = tmp_path / "e.csv"
    thread, reply = str(workdir["thread"]), str(workdir["reply"])
    ckpts = (["--checkpoint", str(workdir[given])] if given
             else ["--thread-checkpoint", thread, "--reply-checkpoint", reply])
    argv = ["evaluate", "--in", str(workdir["events"]), "--task", task, *ckpts,
            unread, "/nonexistent.ckpt", "--out", str(out)]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"--task {task} does not read {unread}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evaluate --task thread", "--n-threads", "3"),
        ("evaluate --task thread", "--n-start-points", "7"),
        ("evaluate --task reply", "--n-threads", "3"),
        ("evaluate --task reply", "--n-start-points", "7"),
        ("evaluate --task adaptive", "--train-frac", "0.3"),
    ],
)
def test_evaluate_with_a_setting_its_task_does_not_read_is_config_error(
    capsys, workdir, tmp_path, command, flag, value
):
    out = tmp_path / "e.csv"
    tail = dict(_short_runs(workdir))[command]
    payload = _fail(capsys, [*command.split(), *tail, "--out", str(out), flag, value], 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"--task {command.split()[-1]} does not read {flag}"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, wrong, needed",
    [
        ("evaluate --task thread", "--checkpoint", "reply", "thread"),
        ("evaluate --task reply", "--checkpoint", "thread", "reply"),
        ("evaluate --task adaptive", "--thread-checkpoint", "reply", "thread"),
        ("evaluate --task adaptive", "--reply-checkpoint", "thread", "reply"),
        ("adaptive", "--thread-checkpoint", "reply", "thread"),
        ("adaptive", "--reply-checkpoint", "thread", "reply"),
        ("breakout", "--checkpoint", "thread", "reply"),
    ],
)
def test_checkpoint_of_the_wrong_kind_is_config_error(
    capsys, workdir, tmp_path, command, flag, wrong, needed
):
    out = tmp_path / "out.csv"
    tail = dict(_short_runs(workdir))[command]
    path = str(workdir[wrong])  # given last, so it replaces the right checkpoint
    payload = _fail(capsys, [*command.split(), *tail, "--out", str(out), flag, path], 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"{path} holds a {wrong} model, not the {needed} model needed"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--d", "60"), ("--t0", "5"), ("--rows", "3"),
                                         ("--config", "/nonexistent.json")])
def test_predict_from_a_grid_file_rejects_gridding_flags(capsys, workdir, tmp_path, flag, value):
    out = tmp_path / "p.csv"
    argv = ["predict", "--checkpoint", str(workdir["reply"]), "--grid", str(workdir["grid"]),
            "--out", str(out), flag, value]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"predict --grid does not read {flag}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["breakout", "experiment breakout"])
def test_durations_off_the_lattice_fail_before_any_work(
    capsys, monkeypatch, workdir, tmp_path, command
):
    """Checked when the arguments are read: breakout never opens its
    checkpoint and the experiment never trains its model."""
    def no_work(*args, **kwargs):
        raise AssertionError("ran past the argument check")

    monkeypatch.setattr(cli, "_model", no_work)
    monkeypatch.setattr(cli, "breakout_experiment", no_work)
    out = tmp_path / "out.csv"
    tail = dict(_short_runs(workdir))[command]
    payload = _fail(capsys, [*command.split(), *tail, "--out", str(out),
                             "--durations", "300,450", "--d", "300"], 2)
    assert payload["error"] == "config"
    assert payload["message"] == "start duration 450.0 is not a positive multiple of d = 300.0"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--search-filters", "--search-kernels", "--search-blocks"])
@pytest.mark.parametrize("value", ["", "0", "2,-1", "2,x"])
def test_bad_search_list_is_config_error(capsys, workdir, tmp_path, flag, value):
    out = tmp_path / "gs.csv"
    tail = dict(_short_runs(workdir))["grid-search --task reply"]
    payload = _fail(capsys, ["grid-search", "--task", "reply", *tail, "--out", str(out),
                             flag, value], 2)
    assert payload["error"] == "config"
    assert flag[2:].replace("-", "_") in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("sweep-d", "--d-values"),
        ("breakout", "--durations"),
        ("experiment breakout", "--durations"),
        ("experiment sweep", "--d-values"),
    ],
)
@pytest.mark.parametrize("value", ["", "300,-5", "0", "nan"])
def test_bad_seconds_list_is_config_error(capsys, workdir, tmp_path, command, flag, value):
    out = tmp_path / "out.csv"
    tail = dict(_short_runs(workdir))[command]
    payload = _fail(capsys, [*command.split(), *tail, "--out", str(out), flag, value], 2)
    assert payload["error"] == "config"
    assert payload["message"] == (
        f"expected comma-separated numbers, each finite and > 0, got {value!r}"
    )
    assert not out.exists()


def _readme_commands():
    """Every `gridcast ...` command in README's code blocks, continuation
    lines joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gridcast"]:
                yield words[1:]


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv


def test_config_value_of_wrong_type_is_config_error(capsys, workdir, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"d": "300"}), encoding="utf-8")
    argv = [
        "grid", "--in", str(workdir["events"]), "--out", str(tmp_path / "g.bin"),
        "--config", str(cfg),
    ]
    payload = _fail(capsys, argv, 2)
    assert payload["error"] == "config"
    assert "'d' must be float" in payload["message"]


# ---------------------------------------------------------------------------
# settings precedence: defaults < config file < flags


def _two_event_log(tmp_path):
    events = tmp_path / "span.ndjson"
    lines = [
        json.dumps({"thread_id": "a", "kind": "thread", "ts": 0.0}),
        json.dumps({"thread_id": "a", "kind": "reply", "ts": 590.0}),
    ]
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return events


def test_settings_precedence_default_file_flag(capsys, tmp_path):
    events = _two_event_log(tmp_path)
    out = tmp_path / "g.bin"
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"d": 60.0}), encoding="utf-8")

    # default d=300 covers [0, 590] in two rows
    base = _ok(capsys, ["grid", "--in", str(events), "--out", str(out)])
    assert base["rows"] == 2
    # config file value wins over the default
    filed = _ok(capsys, ["grid", "--in", str(events), "--out", str(out), "--config", str(cfg)])
    assert filed["rows"] == 10
    # explicit flag wins over the config file
    flagged = _ok(
        capsys,
        ["grid", "--in", str(events), "--out", str(out), "--config", str(cfg), "--d", "300"],
    )
    assert flagged["rows"] == 2


# ---------------------------------------------------------------------------
# ingest


def test_ingest_reports_stats_and_writes_canonical_log(capsys, tmp_path):
    raw = tmp_path / "raw.ndjson"
    lines = [
        json.dumps({"thread_id": "b", "kind": "thread", "ts": 100.0}),
        json.dumps({"thread_id": "a", "kind": "thread", "ts": 0.0}),
        json.dumps({"thread_id": "a", "kind": "reply", "ts": 5.0}),
        json.dumps({"thread_id": "a", "kind": "reply", "ts": 5.0}),  # exact duplicate
        json.dumps({"thread_id": "b", "kind": "reply", "ts": 130.0}),
    ]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "clean.ndjson"

    payload = _ok(capsys, ["ingest", "--in", str(raw), "--out", str(out)])
    assert payload == {"threads": 2, "replies": 2, "duplicates": 1, "out": str(out)}

    # canonical order: cascades by thread time, thread line before replies
    kinds = [json.loads(l)["thread_id"] for l in out.read_text().splitlines()]
    assert kinds == ["a", "a", "b", "b"]
    # re-ingesting the canonical file is clean and idempotent
    again = tmp_path / "clean2.ndjson"
    payload2 = _ok(capsys, ["ingest", "--in", str(out), "--out", str(again)])
    assert payload2["duplicates"] == 0
    assert again.read_bytes() == out.read_bytes()


def test_ingest_of_a_boosted_synth_log_gives_back_its_bytes(capsys, tmp_path):
    events, again = tmp_path / "synth.ndjson", tmp_path / "again.ndjson"
    _ok(capsys, ["synth", "--out", str(events), *SYNTH,
                 "--breakout-fraction", "0.25", "--breakout-boost", "4"])
    payload = _ok(capsys, ["ingest", "--in", str(events), "--out", str(again)])
    assert payload["duplicates"] == 0 and payload["replies"] > 0
    assert again.read_bytes() == events.read_bytes()


def test_ingest_without_out_only_reports(capsys, tmp_path):
    raw = tmp_path / "raw.ndjson"
    raw.write_text(json.dumps({"thread_id": "a", "kind": "thread", "ts": 1.0}) + "\n")
    payload = _ok(capsys, ["ingest", "--in", str(raw)])
    assert payload == {"threads": 1, "replies": 0, "duplicates": 0, "out": ""}


# ---------------------------------------------------------------------------
# synth and grid determinism


def test_synth_same_seed_is_byte_identical(capsys, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.ndjson", "b.ndjson", "c.ndjson"))
    pa = _ok(capsys, ["synth", "--out", str(a), *SYNTH])
    pb = _ok(capsys, ["synth", "--out", str(b), *SYNTH])
    assert pa["threads"] > 0 and pa["events"] >= pa["threads"]
    assert pa["threads"] == pb["threads"] and pa["events"] == pb["events"]
    assert _sha(a) == _sha(b)

    pc = _ok(capsys, ["synth", "--out", str(c), *SYNTH[2:], "--seed", "8"])
    assert pc["threads"] > 0
    assert _sha(c) != _sha(a)


def test_grid_digest_matches_file_and_is_stable(capsys, workdir, tmp_path):
    out = tmp_path / "g.bin"
    p1 = _ok(capsys, ["grid", "--in", str(workdir["events"]), "--out", str(out), "--d", "300"])
    assert p1["sha256"] == _sha(out)
    p2 = _ok(capsys, ["grid", "--in", str(workdir["events"]), "--out", str(out), "--d", "300"])
    assert p2 == p1
    grid = load_grid(out)
    grid.validate()
    assert (grid.spec.n_rows, grid.spec.n_cols) == (p1["rows"], p1["cols"])
    assert _sha(out) == _sha(workdir["grid"])


# ---------------------------------------------------------------------------
# training and prediction


def test_train_is_deterministic_at_checkpoint_level(capsys, workdir, tmp_path):
    again = tmp_path / "thread2.ckpt"
    payload = _ok(
        capsys, ["train-thread", "--in", str(workdir["events"]), "--out", str(again), *TINY]
    )
    assert payload["segments"] >= 1
    assert again.read_bytes() == workdir["thread"].read_bytes()


def test_predict_thread_writes_arrival_csv(capsys, workdir, tmp_path):
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    payload = _ok(
        capsys,
        [
            "predict", "--checkpoint", str(workdir["thread"]),
            "--in", str(workdir["events"]), "--out", str(out1), "--d", "300",
        ],
    )
    assert payload["kind"] == "thread"
    header, rows = _read_csv(out1)
    assert header == ["col", "o_hat", "t_next"]
    assert len(rows) == payload["rows"] >= 1
    # arrival is snapped to the interval lattice, never before the
    # anchor column's own arrival row (a gap may round down to zero)
    grid = load_grid(workdir["grid"])
    for col, o_hat, t_next in rows:
        assert float(o_hat) > 0.0  # softplus head: strictly positive gaps
        t_prev = grid.spec.t0 + grid.arrival_rows[int(col)] * grid.spec.d
        assert float(t_next) >= t_prev
        assert (float(t_next) - grid.spec.t0) % grid.spec.d == 0.0

    _ok(
        capsys,
        [
            "predict", "--checkpoint", str(workdir["thread"]),
            "--in", str(workdir["events"]), "--out", str(out2), "--d", "300",
        ],
    )
    assert out1.read_bytes() == out2.read_bytes()


def test_predict_reply_from_grid_file(capsys, workdir, tmp_path):
    out = tmp_path / "r.csv"
    payload = _ok(
        capsys,
        [
            "predict", "--checkpoint", str(workdir["reply"]),
            "--grid", str(workdir["grid"]), "--out", str(out),
        ],
    )
    assert payload["kind"] == "reply"
    header, rows = _read_csv(out)
    assert header == ["col", "next_count"]
    grid = load_grid(workdir["grid"])
    assert len(rows) == grid.spec.n_cols
    assert all(float(c) >= 0.0 for _, c in rows)


def test_predict_reply_rolls_its_row_without_the_whole_grid_features(capsys, monkeypatch,
                                                                     workdir, tmp_path):
    """Reply predict serves its row as a one-grid Lockstep roll of the last
    h rows: with assemble_features unusable it writes the same CSV, whose
    values are the next row predicted from the whole grid's window."""
    grid = load_grid(workdir["grid"])
    model, _ = load_checkpoint(workdir["reply"])
    h, _ = model.window
    window = window_at(assemble_features(grid, model.channels).data, grid.spec.n_rows - 1,
                       grid.spec.n_cols - 1, h, grid.spec.n_cols)
    want = model.predict_next_row(window, grid.spec.n_rows)
    argv = ["predict", "--checkpoint", str(workdir["reply"]), "--grid", str(workdir["grid"])]
    _ok(capsys, [*argv, "--out", str(tmp_path / "before.csv")])

    def unusable(*args, **kwargs):
        raise AssertionError("reply predict assembled the whole grid's features")

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("gridcast"):
            if hasattr(module, "assemble_features"):
                monkeypatch.setattr(module, "assemble_features", unusable)
    _ok(capsys, [*argv, "--out", str(tmp_path / "after.csv")])
    after = (tmp_path / "after.csv").read_bytes()
    assert after == (tmp_path / "before.csv").read_bytes()
    _, rows = _read_csv(tmp_path / "after.csv")
    assert [float(c) for _, c in rows] == want.tolist()


# ---------------------------------------------------------------------------
# downstream commands


def test_grid_search_single_candidate(capsys, workdir, tmp_path):
    out = tmp_path / "gs.csv"
    payload = _ok(
        capsys,
        [
            "grid-search", "--in", str(workdir["events"]), "--task", "reply",
            "--out", str(out), *SEARCH_TINY,
        ],
    )
    assert payload["candidates"] == 1
    assert (payload["best_n_filters"], payload["best_kernel"], payload["best_n_blocks"]) == (2, 2, 1)
    header, rows = _read_csv(out)
    assert header == ["n_filters", "kernel", "n_blocks", "val_loss"]
    assert len(rows) == 1 and float(rows[0][3]) >= 0.0


@pytest.mark.parametrize("flag, value", [("--n-filters", "2"), ("--kernel-size", "2"),
                                         ("--n-blocks", "1"), ("--budget-epochs", "1")])
def test_grid_search_refuses_the_flags_its_search_lists_replace(
    capsys, workdir, tmp_path, flag, value
):
    out = tmp_path / "gs.csv"
    tail = dict(_short_runs(workdir))["grid-search --task reply"]
    payload = _fail(capsys, ["grid-search", "--task", "reply", *tail, "--out", str(out),
                             flag, value], 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"unrecognized arguments: {flag} {value}"
    assert not out.exists()


@pytest.mark.parametrize("command, where", [("train-thread", "train-thread"),
                                            ("grid-search --task thread", "--task thread")])
def test_a_thread_model_refuses_weight_decay(capsys, workdir, tmp_path, command, where):
    """models.train never decays a thread model, so the flag would change nothing."""
    out = tmp_path / "th.out"
    tail = dict(_short_runs(workdir))[command]
    payload = _fail(capsys, [*command.split(), *tail, "--out", str(out),
                             "--weight-decay", "0.9"], 2)
    assert payload["error"] == "config"
    assert payload["message"] == f"{where} does not read --weight-decay"
    assert not out.exists()


def test_grid_search_trains_each_candidate_for_its_epochs(capsys, monkeypatch, workdir, tmp_path):
    handed = []

    def recording_grid_search(candidates, train_segments, val_segments, train_cfg, seed):
        handed.append(train_cfg)
        return [0.0] * len(candidates)

    monkeypatch.setattr(experiments, "grid_search", recording_grid_search)
    tail = dict(_short_runs(workdir))["grid-search --task reply"]
    assert tail[tail.index("--epochs") + 1] == "1"
    _ok(capsys, ["grid-search", "--task", "reply", *tail, "--out", str(tmp_path / "gs.csv")])
    assert handed == [TrainConfig(lr=1e-3, weight_decay=1e-2, epochs=1, batch_size=16, seed=0)]


def test_grid_search_picks_the_first_of_equal_losses(capsys, monkeypatch, workdir, tmp_path):
    settings = RunSettings(search_filters="2,4", search_kernels="2", search_blocks="1,2")
    configs = settings.search_configs("reply")
    losses = [0.5, 0.25, 0.75, 0.25]
    monkeypatch.setattr(cli, "search_on_split",
                        lambda grid, kind, s: list(zip(configs, losses)))
    out = tmp_path / "gs.csv"
    payload = _ok(capsys, ["grid-search", "--in", str(workdir["events"]), "--task", "reply",
                           "--out", str(out)])
    assert payload["candidates"] == 4
    assert (payload["best_n_filters"], payload["best_kernel"], payload["best_n_blocks"]) == (2, 2, 2)
    _, rows = _read_csv(out)
    assert [float(row[3]) for row in rows] == losses


def test_grid_search_on_one_training_segment_is_config_error(capsys, tmp_path):
    # two threads, at 0 s and 2000 s: the thread task's training side has
    # one gap window, and holding it out would leave nothing to train on
    events = tmp_path / "two_threads.ndjson"
    events.write_text(
        "".join(
            json.dumps({"thread_id": tid, "kind": "thread", "ts": ts}) + "\n"
            for tid, ts in (("a", 0.0), ("b", 2000.0))
        ),
        encoding="utf-8",
    )
    argv = ["--in", str(events), "--epochs", "1"]
    _ok(capsys, ["train-thread", *argv, "--out", str(tmp_path / "th.ckpt")])
    payload = _fail(
        capsys,
        ["grid-search", "--task", "thread", *argv,
         "--search-filters", "2", "--search-kernels", "2", "--search-blocks", "1"],
        2,
    )
    assert payload["error"] == "config"
    assert "at least 2 training segments, got 1" in payload["message"]


def test_evaluate_thread_and_reply(capsys, workdir, tmp_path):
    for task, ckpt in (("thread", workdir["thread"]), ("reply", workdir["reply"])):
        out = tmp_path / f"eval_{task}.csv"
        payload = _ok(
            capsys,
            [
                "evaluate", "--in", str(workdir["events"]), "--task", task,
                "--checkpoint", str(ckpt), "--out", str(out), "--d", "300",
            ],
        )
        assert payload["reports"] == 1
        header, rows = _read_csv(out)
        assert header == ["task", "label", "unit", "n", "mae", "rmse", "stddev", "config_digest"]
        assert len(rows) == 1
        assert int(rows[0][3]) >= 1
        assert float(rows[0][5]) >= float(rows[0][4]) - 1e-12  # rmse >= mae
        assert payload["mae_first"] == pytest.approx(float(rows[0][4]))


def test_evaluate_adaptive_reports_both_models(capsys, workdir, tmp_path):
    out = tmp_path / "eval_adaptive.csv"
    payload = _ok(
        capsys,
        [
            "evaluate", "--in", str(workdir["events"]), "--task", "adaptive",
            "--thread-checkpoint", str(workdir["thread"]),
            "--reply-checkpoint", str(workdir["reply"]),
            "--out", str(out), "--d", "300",
            "--n-threads", "2", "--n-start-points", "2",
        ],
    )
    header, rows = _read_csv(out)
    assert payload["reports"] == len(rows)
    tasks = {r[0] for r in rows}
    assert tasks == {"adaptive_thread", "adaptive_reply"}
    labels = [r[1] for r in rows if r[0] == "adaptive_thread"]
    assert labels == ["step 1", "step 2"]


def test_adaptive_simulation_outputs(capsys, workdir, tmp_path):
    out = tmp_path / "adaptive.csv"
    out_grid = tmp_path / "sim_grid.bin"
    payload = _ok(
        capsys,
        [
            "adaptive", "--in", str(workdir["events"]),
            "--thread-checkpoint", str(workdir["thread"]),
            "--reply-checkpoint", str(workdir["reply"]),
            "--out", str(out), "--out-grid", str(out_grid), "--d", "300",
            "--n-threads", "2", "--n-intervals", "1",
        ],
    )
    assert payload["simulated_threads"] == 2
    header, rows = _read_csv(out)
    assert header == ["step", "arrival_row", "time_seconds"]
    assert [int(r[0]) for r in rows] == [1, 2]
    times = [float(r[2]) for r in rows]
    assert times[1] > times[0] > 0.0

    sim = load_grid(out_grid)
    sim.validate()
    base = load_grid(workdir["grid"])
    assert sim.spec.n_cols == base.spec.n_cols + 2
    assert payload["rows_total"] == sim.spec.n_rows


def test_breakout_curve_csv(capsys, workdir, tmp_path):
    out = tmp_path / "breakout.csv"
    payload = _ok(
        capsys,
        [
            "breakout", "--in", str(workdir["events"]),
            "--checkpoint", str(workdir["reply"]), "--out", str(out),
            "--durations", "300,600", "--d", "300", "--context-cols", "4",
        ],
    )
    assert payload["points"] == 2
    header, rows = _read_csv(out)
    assert header == ["start_duration_s", "correct_rate", "n"]
    assert [float(r[0]) for r in rows] == [300.0, 600.0]
    for _, rate, n in rows:
        assert 0.0 <= float(rate) <= 1.0
        assert int(n) >= 1
    assert payload["first_rate"] == pytest.approx(float(rows[0][1]))
    assert payload["last_rate"] == pytest.approx(float(rows[1][1]))


def test_sweep_d_ranks_candidates(capsys, workdir, tmp_path):
    out = tmp_path / "sweep.csv"
    payload = _ok(
        capsys,
        [
            "sweep-d", "--in", str(workdir["events"]),
            "--d-values", "300,600", "--out", str(out), *TINY[2:],
            "--span-seconds", "1200",
        ],
    )
    assert payload["candidates"] == 2
    assert payload["best_d"] in (300.0, 600.0)
    header, rows = _read_csv(out)
    assert header == ["d", "thread_mae_hours", "reply_mae_counts", "n_thread", "n_reply", "score"]
    assert [float(r[0]) for r in rows] == [300.0, 600.0]
    best_row = min(rows, key=lambda r: float(r[5]))
    assert float(best_row[0]) == payload["best_d"]
