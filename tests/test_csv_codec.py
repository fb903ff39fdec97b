"""The shared CSV writers against the per-cell reference in csv_reference.py.

Every writer, numeric rows and text tables alike, must produce the
reference's bytes, and every reader must return the reference's bits, on the
benchmark dataset and at edge values.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import csv_reference as ref
from physgrd import calibration, motion_data
from physgrd.dynamics import PDGains, SimResult, simulate, write_sim_csv
from physgrd.errors import ParseError, UnitError, ValidationError
from physgrd.grf_model import (
    Prediction,
    TemporalConvNet,
    TrainLogRow,
    load_prediction_csv,
    write_prediction_csv,
    write_train_log,
)
from physgrd.metrics import MetricTable, write_metric_table
from physgrd.motion_data import (
    ForcePlateRecord,
    MotionClip,
    _read_rows,
    _write_rows,
    load_clip_csv,
    load_force_plate,
    write_clip_csv,
    write_force_plate,
)
from physgrd.svgplot import LineSeries, write_series_csv
from physgrd.synthetic import gen_synthetic, make_dataset

EDGE = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, 1.0, 0.0, 1 / 3, -1e-300]


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def edge_matrix(T, n, offset=0):
    return np.resize(np.roll(EDGE, -offset), (T, n)).astype(float)


def make_clip(features, rate):
    features = np.asarray(features, dtype=float)
    return MotionClip("S1", "edge", rate, 70.0, features[:, :3], features)


def unchecked_sim(positions, velocities, forces, dt):
    """A SimResult holding values its constructor would reject (inf forces)."""
    res = object.__new__(SimResult)
    for name, value in (("positions", positions), ("velocities", velocities),
                        ("total_force", forces), ("dt", dt)):
        object.__setattr__(res, name, value)
    return res


def check_clip(clip, tmp_path):
    new, old = tmp_path / "new_clip.csv", tmp_path / "old_clip.csv"
    write_clip_csv(clip, new)
    ref.write_clip_csv(clip, old)
    assert new.read_bytes() == old.read_bytes()
    back = load_clip_csv(new, frame_rate=clip.frame_rate if len(clip) == 1 else None)
    assert same_bits(back.features, ref.read_rows(old)[:, 1:])


def check_plate(plate, rate, tmp_path):
    new, old = tmp_path / "new_plate.csv", tmp_path / "old_plate.csv"
    write_force_plate(plate, new, rate)
    ref.write_force_plate(plate, old, rate)
    assert new.read_bytes() == old.read_bytes()
    back = load_force_plate(new)
    data = ref.read_rows(old)
    for f in range(2):
        base = 1 + 6 * f
        assert same_bits(back.per_foot_force[:, f], data[:, base:base + 3])
        assert same_bits(back.per_foot_cop[:, f], data[:, base + 3:base + 5])
        np.testing.assert_array_equal(back.contact_flags[:, f], data[:, base + 5] != 0.0)
    np.testing.assert_array_equal(back.valid_mask, plate.valid_mask)


def check_prediction(pred, rate, tmp_path):
    new, old = tmp_path / "new_pred.csv", tmp_path / "old_pred.csv"
    write_prediction_csv(pred, new, rate)
    ref.write_prediction_csv(pred, old, rate)
    assert new.read_bytes() == old.read_bytes()
    data = ref.read_rows(old)
    assert same_bits(load_prediction_csv(new).forces, data[:, 1:].reshape(-1, 2, 3))


def check_sim(result, rate, tmp_path):
    new, old = tmp_path / "new_sim.csv", tmp_path / "old_sim.csv"
    write_sim_csv(result, new, rate)
    ref.write_sim_csv(result, old, rate)
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_text().splitlines()
    assert same_bits(_read_rows(new, lines, lines[0].split(",")), ref.read_rows(old))


@pytest.fixture(scope="module")
def bench_dataset():
    """The dataset the benchmark's predict_eval workload writes and reads (seed 1)."""
    return make_dataset(["hop", "walk"], 5, 2, seed=1, base_params={"duration": 10.0})


class TestBenchmarkDataset:
    def test_clip_and_plate(self, bench_dataset, tmp_path):
        for entry in bench_dataset:
            check_clip(entry.clip, tmp_path)
            check_plate(entry.plate, entry.clip.frame_rate, tmp_path)

    def test_prediction_and_sim(self, bench_dataset, tmp_path):
        net = TemporalConvNet(bench_dataset.clips()[0].feature_width, (6, 6, 6, 6), (8, 6))
        for entry in bench_dataset:
            check_prediction(net.forward(entry.clip.features), entry.clip.frame_rate, tmp_path)
            check_sim(simulate(entry.clip, PDGains(kp=70.0, kd=3.0)), entry.clip.frame_rate,
                      tmp_path)


class TestEdgeValues:
    @pytest.mark.parametrize("T, rate", [(1, 120.0), (11, 100.0), (11, 59.94), (11, 1000 / 3)])
    def test_clip(self, tmp_path, T, rate):
        check_clip(make_clip(edge_matrix(T, 6), rate), tmp_path)

    @pytest.mark.parametrize("T", [1, 6])
    def test_plate_with_missing_rows(self, tmp_path, T):
        force = edge_matrix(T, 6).reshape(T, 2, 3)
        cop = edge_matrix(T, 4, offset=3).reshape(T, 2, 2)
        force[T // 2] = np.nan  # a whole missing row
        force[-1, 1, 2] = np.nan  # one missing component
        cop[0, 0, 1] = np.nan
        contact = np.resize([True, False, False], (T, 2))
        check_plate(ForcePlateRecord(force, cop, contact), 240.0, tmp_path)

    @pytest.mark.parametrize("T, rate", [(1, 100.0), (13, 240.0), (13, 29.97)])
    def test_prediction(self, tmp_path, T, rate):
        check_prediction(Prediction(forces=edge_matrix(T, 6).reshape(T, 2, 3)), rate, tmp_path)

    def test_sim(self, tmp_path):
        check_sim(SimResult(edge_matrix(9, 3), edge_matrix(9, 3, 1), edge_matrix(8, 3, 2), 0.01),
                  100.0, tmp_path)

    def test_sim_single_frame(self, tmp_path):
        check_sim(SimResult(edge_matrix(1, 3), edge_matrix(1, 3), np.zeros((0, 3)), 1 / 120),
                  120.0, tmp_path)

    def test_sim_nonfinite_forces(self, tmp_path):
        forces = edge_matrix(4, 3)
        forces[1, 2], forces[2, 0], forces[3, 1] = np.inf, -np.inf, np.nan
        check_sim(unchecked_sim(edge_matrix(5, 3), edge_matrix(5, 3, 1), forces, 0.001), 1000.0,
                  tmp_path)


@pytest.mark.parametrize("rate", [0.0, -100.0, np.nan, np.inf, "100"])
@pytest.mark.parametrize("writer", ["plate", "prediction", "sim"])
def test_frame_rate_of_a_per_frame_csv_is_checked_before_writing(tmp_path, writer, rate):
    # a zero rate let numpy's divide-by-zero warning out, NaN wrote NaN times and
    # -100 negative ones
    write, record = {
        "plate": (write_force_plate, ForcePlateRecord(np.ones((3, 2, 3)), np.zeros((3, 2, 2)),
                                                      np.ones((3, 2), bool))),
        "prediction": (write_prediction_csv, Prediction(np.ones((3, 2, 3)))),
        "sim": (write_sim_csv, SimResult(np.ones((3, 3)), np.zeros((3, 3)), np.ones((2, 3)), 0.01)),
    }[writer]
    path = tmp_path / "out.csv"
    with pytest.raises(UnitError, match=r"^frame_rate must be finite and positive, got "):
        write(record, path, rate)
    assert not path.exists()


def test_sim_frame_rate_must_be_the_simulations(tmp_path):
    # a 100 Hz simulation written at 50 Hz got the times of a 50 Hz clip
    clip, _ = gen_synthetic("hop", {"duration": 0.5}, seed=0)
    result = simulate(clip, PDGains(kp=70.0, kd=3.0))
    path = tmp_path / "sim.csv"
    with pytest.raises(ValidationError,
                       match=r"^frame_rate 50.0 is not 1 / dt of the simulation, dt = 0.01$"):
        write_sim_csv(result, path, 50.0)
    assert not path.exists()
    write_sim_csv(result, path, 100.0)


TABLE_EDGE = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3, -1e-300, 0.0]


def check_table(write, write_ref, obj, tmp_path):
    new, old = tmp_path / "new_table.csv", tmp_path / "old_table.csv"
    write(obj, new)
    write_ref(obj, old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_text()


class TestTableWriters:
    def test_report_csv(self, tmp_path):
        cells = ((10.0, 0.0), (70.0, 3.0), (50000.0, 0.0), (1e16, 5e-324))
        values = np.resize(TABLE_EDGE, (len(cells), 4)).tolist()
        report = calibration.CalibrationReport(
            cells=cells,
            per_cell={c: (v[2], v[3]) for c, v in zip(cells, values)},
            per_subject={"S1": {c: v[0] for c, v in zip(cells, values)},
                         "S2": {c: v[1] for c, v in zip(cells[:2], values)}},  # rest diverged
            best=PDGains(10.0, 0.0), best_score=0.0, mode="open_loop", diverged=cells[2:],
        )
        text = check_table(calibration.write_report_csv, ref.write_report_csv, report, tmp_path)
        assert text.splitlines()[3] == "50000.0,0.0,-1e-300,inf,NaN,inf"

    def test_report_csv_of_a_search(self, tmp_path):
        clips = make_dataset(["spring_tracked"], 2, seed=3, base_params={"duration": 1.0}).clips()
        for mode in ("closed_loop", "open_loop"):
            report = calibration.calibrate(clips, [(70.0, 3.0), (1e10, 0.0)], mode=mode)
            assert report.diverged == ((1e10, 0.0),)
            check_table(calibration.write_report_csv, ref.write_report_csv, report, tmp_path)

    @pytest.mark.parametrize("kind", ["vgrf", "vrpe"])
    def test_metric_table(self, tmp_path, kind):
        rows = {m: (a, b) for m, a, b in zip(("hop", "spring_tracked", "walk", "x.1"),
                                            TABLE_EDGE, TABLE_EDGE[3:])}
        table = MetricTable(kind=kind, rows=rows, average=(np.nan, -0.0))
        text = check_table(write_metric_table, ref.write_metric_table, table, tmp_path)
        assert text.splitlines()[-1] == "Average,NaN,-0.0"

    def test_train_log(self, tmp_path):
        values = np.resize(TABLE_EDGE, (12, 6)).tolist()
        log = [TrainLogRow(epoch, *v) for epoch, v in enumerate(values, start=1)]
        text = check_table(write_train_log, ref.write_train_log, log, tmp_path)
        assert text.splitlines()[1] == "1,NaN,inf,-inf,-0.0,5e-324,1e+16"
        assert text.splitlines()[-1].startswith("12,")

    def test_series_csv_hides_masked_and_nonfinite_points(self, tmp_path):
        t = np.array(TABLE_EDGE[3:] + [2.5])
        values = np.array(TABLE_EDGE[:len(t)])
        mask = np.resize([True, True, False], len(t))
        series = [LineSeries("plate vGRF", t, values, mask), LineSeries("z", t, values[::-1])]
        text = check_table(write_series_csv, ref.write_series_csv, series, tmp_path)
        assert text.splitlines()[1:4] == ["plate vGRF,-0.0,NaN", "plate vGRF,5e-324,NaN",
                                          "plate vGRF,1e+16,NaN"]


PRED_HEADER = "t,L_fx,L_fy,L_fz,R_fx,R_fy,R_fz"


class TestReader:
    def test_accepts_what_float_accepts(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            PRED_HEADER + "\n"
            "0, 1.5 ,1_0,+3,1E3,-0,.5\n"
            "\n"
            "   \n"
            "0.01,5e-324,Infinity,-inf,nan,NaN,1e16\n"
        )
        lines = path.read_text().splitlines()
        assert same_bits(_read_rows(path, lines, PRED_HEADER.split(",")), ref.read_rows(path))

    @pytest.mark.parametrize("body", [
        "0,1,2,x,4,5,6\n",
        "0,1,2,3,4,5\n",
        "0,1,2,3,4,5,6,7\n",
        "0,1,2,3,4,5,6\n\n0.01,1,2,3,,5,6\n",
        "0,1,2,3,4,5,6\n0.01,1,2,3,4,5\n0.02,x,2,3,4,5,6\n",
        "0.01,1,2,3,4,5,6\n0,1,2,3e,4,5\n",
    ])
    def test_errors_match_reference(self, tmp_path, body):
        path = tmp_path / "p.csv"
        path.write_text(PRED_HEADER + "\n" + body)
        with pytest.raises(ParseError) as expected:
            ref.read_rows(path)
        with pytest.raises(ParseError) as got:
            load_prediction_csv(path)
        assert str(got.value) == str(expected.value)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PRED_HEADER + "\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_prediction_csv(path)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
def test_round_trip_random_matrix(data):
    header = [f"c{j}" for j in range(data.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        _write_rows(path, header, data)
        text = path.read_text()
        expected = "".join(",".join(ref.fmt(v) for v in row) + "\n" for row in data)
        assert text == ",".join(header) + "\n" + expected
        assert same_bits(_read_rows(path, text.splitlines(), header), data)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(lambda T: st.tuples(
    hnp.arrays(np.float64, (T, 2, 3), elements=st.floats()),
    hnp.arrays(np.float64, (T, 2, 2), elements=st.floats()),
    hnp.arrays(np.bool_, (T, 2)),
)))
def test_every_plate_record_round_trips(arrays):
    """A plate the record accepts, NaN rows included, reads back with the
    same bits (NaN as the one NaN the file spells); it rejects only what the
    file cannot hold. The file holds no mask, so the record's mask is the
    derived one."""
    try:
        plate = ForcePlateRecord(*arrays)
    except ValidationError:
        assert len(arrays[0]) == 0 or any(np.isinf(a).any() for a in arrays[:2])
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_force_plate(plate, path, 100.0)
        back = load_force_plate(path)
    for name in ("per_foot_force", "per_foot_cop"):
        value = getattr(plate, name)
        assert same_bits(getattr(back, name), np.where(np.isnan(value), np.nan, value))
    np.testing.assert_array_equal(back.contact_flags, plate.contact_flags)
    np.testing.assert_array_equal(back.valid_mask, plate.valid_mask)


# cells float() takes that the bulk parse may not, junk neither takes, and
# anything else a few characters long
ODD_CELLS = ["1_0", " 1.5 ", "Infinity", "-nan", "١٢", "x", "", "0x1p3", "1d5", "1e", "  "]
NUMBER = st.floats().map(repr)
CELL = st.one_of(
    NUMBER,
    st.sampled_from(ODD_CELLS),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=","), max_size=3),
)
ROW = st.one_of(
    st.lists(NUMBER, min_size=7, max_size=7),
    st.lists(CELL, min_size=7, max_size=7),
    st.lists(NUMBER, max_size=9),  # the wrong cell count, or a blank line
    st.sampled_from([[" "], ["\t  "]]),
).map(",".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(ROW, max_size=5))
def test_reader_matches_reference(rows):
    """Same bits as the cell-by-cell reference, or a ParseError with the same text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text(PRED_HEADER + "\n" + "\n".join(rows) + "\n")
        lines = path.read_text().splitlines()
        try:
            expected = ref.read_rows(path)
            if len(expected) == 0:
                expected = f"{path}: no data rows"
        except ParseError as exc:
            expected = str(exc)
        try:
            got = _read_rows(path, lines, PRED_HEADER.split(","))
        except ParseError as exc:
            assert str(exc) == expected
        else:
            assert not isinstance(expected, str), expected
            assert same_bits(got, expected)


@pytest.mark.parametrize("body", ["\n\n\n", "\n   \n\t\n"], ids=["empty", "whitespace"])
def test_blank_body_has_no_rows_and_no_warning(tmp_path, body):
    path = tmp_path / "p.csv"
    path.write_text(PRED_HEADER + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no data rows"):
            load_prediction_csv(path)


@pytest.mark.parametrize("blank", ["", "   ", "\t "], ids=["empty", "spaces", "tab"])
def test_blank_line_keeps_the_bulk_parse(tmp_path, monkeypatch, blank):
    rows = [",".join(repr(0.1 * (r + c)) for c in range(4)) for r in range(6)]
    lines = ["a,b,c,d", *rows[:3], blank, *rows[3:], blank]
    expected = _read_rows(tmp_path / "p.csv", ["a,b,c,d", *rows], "a,b,c,d".split(","))

    def no_scan(*args):
        raise AssertionError("blank lines sent the body to the row scanner")

    monkeypatch.setattr(motion_data, "_scan_rows", no_scan)
    got = _read_rows(tmp_path / "p.csv", lines, "a,b,c,d".split(","))
    assert same_bits(got, expected)
