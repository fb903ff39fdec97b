"""Fuzzing the CLI's input boundary with truncated and byte-mutated files,
extreme cell values and extreme values of every numeric flag.

Whatever a gains file, manifest, clip, plate or prediction CSV holds, a
command must either succeed or fail with exit code 1 and one ``physgrd:
error:`` line; an exception escaping ``main`` is the traceback a user would
see, and pytest turns a numpy warning into one. A numeric flag may also fail
as a usage error (exit code 2, one line).
"""

import argparse
import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physgrd import synthetic
from physgrd.calibration import load_gains
from physgrd.cli import build_parser, main
from physgrd.errors import PhysgrdError
from physgrd.grf_model import (
    Prediction,
    TemporalConvNet,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    write_prediction_csv,
)
from physgrd.motion_data import entry_stems, load_manifest

# bytes that JSON and CSV care about, plus any byte at all (not all UTF-8)
_BYTES = st.one_of(st.sampled_from(list(b'0123456789.-+eE,"{}[]: \nNa')), st.integers(0, 255))

# the file each fuzz target mutates, relative to its work directory
_TARGET_FILE = {
    "gains": "gains.json",
    "manifest": "data/manifest.json",
    "clip": "data/S1_hop_000_clip.csv",
    "plate": "data/S1_hop_000_plate.csv",
    "prediction": "pred/S1_hop_000_pred.csv",
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A two-subject dataset, a gains file and one prediction CSV per clip."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    argv = ["gen", "--kind", "hop", "--subjects", "2", "--duration", "0.3",
            "--out-dir", str(data)]
    assert main(argv) == 0
    (root / "gains.json").write_text('{\n  "kd": 3.0,\n  "kp": 70.0,\n  "mode": "closed_loop"\n}\n')
    pred_dir = root / "pred"
    pred_dir.mkdir()
    ds = load_manifest(data / "manifest.json")
    for entry, stem in zip(ds, entry_stems(ds)):
        forces = np.full((len(entry.clip), 2, 3), 0.5)
        write_prediction_csv(Prediction(forces=forces), pred_dir / f"{stem}_pred.csv",
                             entry.clip.frame_rate)
    return root


def _mutate(data, original: bytes) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return original[:data.draw(st.integers(0, len(original) - 1), label="keep")]
    out = bytearray(original)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        out[data.draw(st.integers(0, len(out) - 1), label="at")] = data.draw(_BYTES, label="byte")
    return bytes(out)


def _command(target: str, root: Path, work: Path) -> list[str]:
    """Copy the valid inputs the target's command reads into work; return its argv."""
    shutil.copytree(root / "data", work / "data")
    out = str(work / "out")
    if target == "gains":
        shutil.copy(root / "gains.json", work / "gains.json")
        return ["simulate", "--manifest", str(work / "data" / "manifest.json"),
                "--gains", str(work / "gains.json"), "--out-dir", out]
    if target == "manifest":
        return ["simulate", "--manifest", str(work / "data" / "manifest.json"), "--out-dir", out]
    shutil.copytree(root / "pred", work / "pred")
    return ["metrics", "--manifest", str(work / "data" / "manifest.json"),
            "--pred-dir", str(work / "pred"), "--out-dir", out]


def _assert_exits_cleanly(argv: list[str]) -> tuple[int, list[str]]:
    """main(argv) exits 0 with nothing on stderr, or 1 with one error line;
    returns the exit code and the stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("physgrd: error: "), lines
    return code, lines


@pytest.mark.parametrize("target", sorted(_TARGET_FILE))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(valid_files, target, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = _command(target, valid_files, work)
        path = work / _TARGET_FILE[target]
        path.write_bytes(_mutate(data, path.read_bytes()))
        _assert_exits_cleanly(argv)


@pytest.mark.parametrize("target", ["gains", "manifest", "prediction", "clip", "checkpoint"])
def test_undecodable_input_exits_cleanly(valid_files, target, tmp_path, capsys):
    data = valid_files / "data"
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x80 not text")
    out = ["--out-dir", str(tmp_path / "out")]
    manifest = str(data / "manifest.json")
    if target == "prediction":
        shutil.copytree(valid_files / "pred", tmp_path / "pred")
        shutil.copy(bad, tmp_path / _TARGET_FILE["prediction"])
    argv = {
        "gains": ["simulate", "--manifest", manifest, "--gains", str(bad)],
        "manifest": ["simulate", "--manifest", str(bad)],
        "prediction": ["metrics", "--manifest", manifest, "--pred-dir", str(tmp_path / "pred")],
        "clip": ["simulate", "--clip", str(bad)],
        "checkpoint": ["predict", "--manifest", manifest, "--checkpoint", str(bad)],
    }[target]
    capsys.readouterr()
    assert main(argv + out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("physgrd: error: "), err


@pytest.mark.parametrize("target", ["gains", "manifest", "checkpoint"])
def test_deeply_nested_json_exits_cleanly(valid_files, target, tmp_path):
    # deeper than the JSON parser's recursion limit: a RecursionError, not a ValueError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    manifest = str(valid_files / "data" / "manifest.json")
    argv = {
        "gains": ["simulate", "--manifest", manifest, "--gains", str(deep)],
        "manifest": ["simulate", "--manifest", str(deep)],
        "checkpoint": ["predict", "--manifest", manifest, "--checkpoint", str(deep)],
    }[target]
    _assert_exits_cleanly(argv + ["--out-dir", str(tmp_path / "out")])
    load = {"gains": lambda path: load_gains(path, "closed_loop"), "manifest": load_manifest,
            "checkpoint": load_checkpoint}
    with pytest.raises(PhysgrdError, match=f"^{re.escape(str(deep))}: {target} is not valid JSON"):
        load[target](deep)


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


# JSON values of the wrong type, out of range and deeply nested, and names of
# the files and subjects the valid manifest has
_MANIFEST_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(alphabet="Sab01._-/ '", max_size=12),
    st.sampled_from([-5, 0, 5e-324, 1e308, 10**400, "70", "S1", "S2", "kgf", "newton",
                     "bodyweight", "", "S1_hop_000_clip.csv", "S1_hop_000_plate.csv"]),
)
_MANIFEST_VALUES = st.one_of(
    _MANIFEST_SCALARS,
    st.recursive(_MANIFEST_SCALARS, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3), max_leaves=6),
    st.integers(1, 500).map(_nested),
)
_SUBJECT_FIELDS = ("id", "mass_kg")
_CLIP_FIELDS = ("motion_label", "clip_path", "plate_path", "force_unit")


def _manifest_rejects(field: str, value) -> bool:
    """Whether the manifest's own rules reject value in field of subject S2,
    whose clip and plate files stay as they are."""
    if field == "mass_kg":
        return isinstance(value, bool) or not (isinstance(value, (int, float)) and value > 0)
    if field in ("id", "motion_label"):
        return not (isinstance(value, str) and re.fullmatch(r"[A-Za-z0-9._-]{1,100}", value)
                    and (field, value) != ("id", "S1"))
    if field == "force_unit":
        return value not in ("bodyweight", "newton")
    return not (value is None or isinstance(value, str))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(_SUBJECT_FIELDS + _CLIP_FIELDS), value=_MANIFEST_VALUES)
# each of these loaded and exited 0, or exited 1 with a line that named no file
@example(field="mass_kg", value=True)
@example(field="mass_kg", value="70")
@example(field="id", value="S1")  # a second subject S1
@example(field="id", value="S 1")
@example(field="motion_label", value="a b")
@example(field="mass_kg", value=-5)
@example(field="force_unit", value="kgf")
def test_manifest_value_exits_cleanly(valid_files, field, value):
    """One value of subject S2 or of its clip set; a value the manifest's
    rules reject exits 1, and an error line names the manifest or a file it lists."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = _command("manifest", valid_files, work)
        manifest = work / _TARGET_FILE["manifest"]
        doc = json.loads(manifest.read_text())
        subject = doc["subjects"][1]
        (subject if field in _SUBJECT_FIELDS else subject["clips"][0])[field] = value
        manifest.write_text(json.dumps(doc))
        code, lines = _assert_exits_cleanly(argv)
        assert code == 1 or not _manifest_rejects(field, value), lines
        if code:
            listed = [manifest] + [manifest.parent / c[key] for s in doc["subjects"]
                                   for c in s["clips"] for key in ("clip_path", "plate_path")
                                   if isinstance(c[key], str)]
            assert any(str(p) in lines[0] or repr(str(p))[1:-1] in lines[0] for p in listed), lines


_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e308", str(2**63)]
# counts whose huge values are valid, long runs: only their invalid values are drawn
_LONG_RUN_COUNTS = {("gen", "--subjects"), ("gen", "--clips"), ("train", "--epochs")}


# a list flag's drawn value goes in its first item, the other items valid
_LIST_FLAGS = {"--x0": "{},0,1", "--v0": "{},0,0", "--kp-values": "{}", "--kd-values": "{}",
               "--extra-cell": "{},3", "--conv-channels": "{},4,4,4", "--fc-widths": "{},4"}


def _numeric_flags(command: str) -> dict[str, str]:
    """Each flag of command that takes numbers, with the text a drawn value
    fills; a list flag missing from _LIST_FLAGS is a KeyError, not skipped."""
    return {flag: "{}" if a.type in (float, int) else _LIST_FLAGS[flag]
            for a in _SUBCOMMANDS[command]._actions if a.type is not None
            for flag in a.option_strings[:1]}


@pytest.fixture(scope="module")
def command_argv(valid_files):
    """Each subcommand's argv on the module's tiny inputs, less --out-dir."""
    data = valid_files / "data"
    manifest = str(data / "manifest.json")
    ds = load_manifest(manifest)
    clip = str(data / f"{entry_stems(ds)[0]}_clip.csv")
    ckpt = valid_files / "checkpoint.json"
    cfg = TrainConfig(conv_channels=(4, 4, 4, 4), fc_widths=(4, 4))
    net = TemporalConvNet(ds.clips()[0].feature_width, cfg.conv_channels, cfg.fc_widths)
    save_checkpoint(net, cfg, ckpt)
    return {
        "gen": ["gen", "--kind", ",".join(synthetic.KINDS), "--duration", "0.3"],
        "calibrate": ["calibrate", "--manifest", manifest, "--kp", "70", "--kd", "3"],
        "simulate": ["simulate", "--clip", clip],
        "train": ["train", "--manifest", manifest, "--epochs", "1", "--batch-size", "4",
                  "--window-len", "16", "--conv-channels", "4,4,4,4", "--fc-widths", "4,4"],
        "predict": ["predict", "--manifest", manifest, "--checkpoint", str(ckpt)],
        "metrics": ["metrics", "--manifest", manifest, "--pred-dir", str(valid_files / "pred")],
        "plot": ["plot", "--clip", clip],
    }


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_extreme_numeric_flag_exits_cleanly(command_argv, command, data):
    flags = _numeric_flags(command)
    flag = data.draw(st.sampled_from(sorted(flags)), label="flag")
    values = ["0", "-1"] if (command, flag) in _LONG_RUN_COUNTS else _NUMBERS
    value = flags[flag].format(data.draw(st.sampled_from(values), label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*command_argv[command], f"{flag}={value}", "--out-dir", tmp])
            except SystemExit as exc:  # a usage error
                code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2) and len(lines) == (code != 0), (code, lines)
    if code:
        assert lines[0].startswith("physgrd: error: " if code == 1 else "physgrd: usage-error: ")


_CELL_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-0.0", "", "x",
                str(2**63)]
# the commands that read each CSV, with the flag that names it where command_argv does not
_CELL_READERS = {
    "clip": dict.fromkeys(("calibrate", "simulate", "train", "predict", "metrics", "plot")),
    "plate": {**dict.fromkeys(("calibrate", "train", "predict", "metrics")), "plot": "--plate"},
    "prediction": {"metrics": None, "plot": "--pred"},
}


@settings(max_examples=90, deadline=None)
@given(case=st.sampled_from([(target, command) for target in sorted(_CELL_READERS)
                             for command in sorted(_CELL_READERS[target])]),
       row=st.integers(1, 30), column=st.integers(0, 12), value=st.sampled_from(_CELL_VALUES))
# each of these made numpy warn on stderr, before the one error line or on a
# run that exited 0: a clip time overflowing the frame-spacing check, and huge
# finite cells overflowing the metrics
@example(case=("clip", "calibrate"), row=1, column=0, value="-1e308")
@example(case=("clip", "simulate"), row=1, column=0, value="-1e308")
@example(case=("clip", "train"), row=1, column=0, value="-1e308")
@example(case=("clip", "predict"), row=1, column=0, value="-1e308")
@example(case=("clip", "metrics"), row=1, column=0, value="-1e308")
@example(case=("clip", "plot"), row=1, column=0, value="-1e308")
@example(case=("clip", "metrics"), row=2, column=3, value="1e308")
@example(case=("plate", "metrics"), row=1, column=3, value="1e308")
@example(case=("prediction", "metrics"), row=1, column=3, value="1e308")
def test_extreme_cell_exits_cleanly(valid_files, command_argv, case, row, column, value):
    """One cell of a 30-row CSV set to value; a column past the file's wraps."""
    target, command = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(valid_files, work, dirs_exist_ok=True)
        path = work / _TARGET_FILE[target]
        lines = path.read_text().splitlines()
        assert len(lines) == 31
        cells = lines[row].split(",")
        cells[column % len(cells)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        argv = [a.replace(str(valid_files), str(work)) for a in command_argv[command]]
        flag = _CELL_READERS[target][command]
        extra = [flag, str(path)] if flag else []
        _assert_exits_cleanly(argv + extra + ["--out-dir", str(work / "out")])


def test_every_gen_option_sets_a_generator_parameter():
    # cmd_gen forwards the flags whose dest names a generator parameter, so a
    # flag with any other dest would be dropped without a word; every
    # parameter the table gives a help has its flag
    dests = {a.dest for a in _SUBCOMMANDS["gen"]._actions if a.option_strings}
    flagged = {name for name, spec in synthetic.PARAMS.items() if spec.help is not None}
    assert dests - {"help", "kind", "subjects", "clips", "seed", "out_dir"} == flagged
