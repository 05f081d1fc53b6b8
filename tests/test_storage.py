import base64
import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from belpm.baselines import WknnModel, wknn_predict
from belpm.cli import main
from belpm.classic import ClassicBelModel, bel_predict, bel_train
from belpm.errors import (
    BelpmError,
    CorruptFile,
    EmptyFile,
    GapError,
    InvalidParameter,
    ParseError,
    VersionMismatch,
)
from belpm.model import BelpmConfig, predict, train
from belpm.series import TimeSeries, embed, gen_logistic, gen_mackey_glass, split
from belpm.storage import (
    format_float,
    kind_of,
    load_model_file,
    load_predicted_series,
    load_predictions_csv,
    load_series_csv,
    save_model,
    save_predictions_csv,
    save_series_csv,
)

from oracles import rechecksum

# trained_models()'s belpm model in older formats: v2, written when the writer
# also stored the primary features and the training settings, and v3, written
# when arrays were comma-separated numerals. Both predate the plain-order
# fusion fit, so their fusion weights differ from today's training in the
# last bits: they are compared with each other, not with a fresh model.
V2_MODEL = Path(__file__).parent / "data" / "logistic_v2.belpm"
V3_MODEL = Path(__file__).parent / "data" / "logistic_v3.belpm"
# trained_models()'s belpm model as today's code trains and writes it.
V4_MODEL = Path(__file__).parent / "data" / "logistic_v4.belpm"
# A model trained with BelpmConfig(), whose k_a = k_o = 8 ranks the k = 4
# fixtures above do not reach, on the logistic map: r = 3, n_train = 200.
DEFAULT_K_MODEL = Path(__file__).parent / "data" / "logistic_k8_v4.belpm"
# The sha256 of np.exp(-np.linspace(0, 40, 4097)), as CI prints it, on the CPU
# that made the v4 fixtures: numpy's AVX-512 exp. Without AVX-512, np.exp
# rounds otherwise, and trained bandwidths move (ROADMAP item 16).
FIXTURE_EXP_FINGERPRINT = "0c70baa3df5bbee9432b8a93a811ce45552730d4e905bda68c43a1b95434edb1"
# The array fields of each kind, which v4 writes in base64 and v1-v3 as numerals.
ARRAY_FIELDS = {"bl_bandwidths", "bl_targets", "mo_bandwidths", "mo_targets", "mo_inputs",
                "cm_w", "inputs", "targets", "v", "w"}


def b64(values) -> str:
    """A v4 array payload: the base64 of the values' little-endian doubles."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def field_of(text, key):
    return re.search(rf"^{key} = (.*)$", text, re.M).group(1)


def with_field(text, key, value):
    """``text`` with field ``key``'s value replaced by ``value``."""
    return re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", text, count=1, flags=re.M)


def assert_matches_fixture(path, fixture):
    """The file at ``path`` equals ``fixture`` byte for byte. The ``key = value``
    fields are compared first, so a mismatch names the fields that moved, and
    the np.exp fingerprints of this CPU and of the fixtures' one."""
    fresh, committed = (dict(re.findall(r"^(\w+) = (.*)$", p.read_text(), re.M))
                        for p in (path, fixture))
    moved = [key for key in fresh.keys() | committed.keys() if fresh.get(key) != committed.get(key)]
    here = hashlib.sha256(np.exp(-np.linspace(0, 40, 4097)).tobytes()).hexdigest()
    cpu = (f"np.exp fingerprint {here} here, {FIXTURE_EXP_FINGERPRINT} for the fixtures"
           f"{'' if here == FIXTURE_EXP_FINGERPRINT else ': np.exp rounds otherwise on this CPU'}")
    assert not moved, f"fields differ from {fixture.name}: {sorted(moved)}; {cpu}"
    assert path.read_bytes() == fixture.read_bytes(), cpu


def assert_resave_is_stable(tmp_path, kind):
    """CLI ``train`` of ``kind`` at horizon 5, then a ``load_model_file`` ->
    ``save_model`` copy of its file: the two files, and the predictions CSVs
    CLI ``predict`` writes from them, are byte-identical."""
    series = tmp_path / "mg.csv"
    save_series_csv(gen_mackey_glass(300, warmup=100), series)
    model, resaved = tmp_path / f"{kind}.model", tmp_path / f"{kind}.resaved"
    assert main(["train", "--data", str(series), "--embed-r", "3", "--horizon", "5",
                 "--n-train", "200", "--model", kind, "--epochs", "3", "--out", str(model)]) == 0
    loaded = load_model_file(model)
    assert (loaded.model.r, loaded.model.horizon) == (3, 5)
    save_model(loaded.model, resaved)
    assert resaved.read_bytes() == model.read_bytes()
    csvs = [tmp_path / f"{kind}.{name}.csv" for name in ("model", "resaved")]
    for path, csv in zip((model, resaved), csvs):
        assert main(["predict", "--model", str(path), "--data", str(series),
                     "--out", str(csv)]) == 0
    assert csvs[0].read_text().splitlines()[1].startswith("7,")  # t = r - 1 + horizon
    assert csvs[1].read_bytes() == csvs[0].read_bytes()


def v3_text(text):
    """The bytes the v3 writer wrote for a v4 model text: the arrays' doubles
    as 17-significant-digit numerals, under a v3 header, re-checksummed."""
    def numerals(match):
        key, raw = match.groups()
        if key not in ARRAY_FIELDS:
            return match.group()
        values = np.frombuffer(base64.b64decode(raw, validate=True), "<f8").tolist()
        return f"{key} = {','.join(map(format_float, values))}"
    text = text.replace("belpm-model v4\n", "belpm-model v3\n", 1)
    return rechecksum(re.sub(r"^(\w+) = (.*)$", numerals, text, flags=re.M))


class TestSeriesCsv:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        series = load_series_csv(str(p))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])
        assert series.start_time == 0 and series.step == 1

    def test_comments_blanks_and_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# comment\n\ntime,value\n10,1.5\n12,2.5\n14,3.5\n")
        series = load_series_csv(str(p))
        np.testing.assert_array_equal(series.values, [1.5, 2.5, 3.5])
        assert series.start_time == 10 and series.step == 2

    def test_crlf(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"1.0\r\n2.0\r\n")
        series = load_series_csv(str(p))
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_sentinel_interpolated(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n99999\n3\n")
        series = load_series_csv(str(p), missing_sentinel=99999,
                                 gap_policy="linear_interpolate")
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_sentinel_with_error_policy(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n99999\n3\n")
        with pytest.raises(GapError):
            load_series_csv(str(p), missing_sentinel=99999)

    def test_edge_gap_cannot_interpolate(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("99999\n2\n3\n")
        with pytest.raises(GapError):
            load_series_csv(str(p), missing_sentinel=99999,
                            gap_policy="linear_interpolate")

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\nabc\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series_csv(str(p))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\nnan\n")
        with pytest.raises(ParseError):
            load_series_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyFile):
            load_series_csv(str(p))

    def test_non_uniform_times(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0,1\n1,2\n5,3\n")
        with pytest.raises(ParseError):
            load_series_csv(str(p))

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=50) * 1e3, start_time=7, step=3)
        p = tmp_path / "s.csv"
        save_series_csv(series, p)
        back = load_series_csv(str(p))
        np.testing.assert_array_equal(back.values, series.values)
        assert back.start_time == 7 and back.step == 3


    def test_unknown_gap_policy(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n2\n")
        with pytest.raises(InvalidParameter):
            load_series_csv(str(p), gap_policy="drop")

    def test_every_value_a_sentinel(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("99999\n99999\n")
        with pytest.raises(GapError, match="every observation"):
            load_series_csv(str(p), missing_sentinel=99999, gap_policy="linear_interpolate")

    def test_mixed_timed_and_untimed_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0,1\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_series_csv(str(p))


class TestPredictionsCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        observed = TimeSeries(rng.normal(size=20) * 1e3, start_time=-40, step=4)
        predicted = rng.normal(size=20)
        p = tmp_path / "p.csv"
        save_predictions_csv(observed, predicted, p)
        assert p.read_text().startswith("time,observed,predicted\n-40,")
        back, back_pred = load_predictions_csv(p)
        np.testing.assert_array_equal(back.values, observed.values)
        np.testing.assert_array_equal(back_pred, predicted)
        assert back.start_time == -40 and back.step == 4

    def test_only_a_leading_header_is_skipped(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("# run 1\nTime,observed,predicted\n0,1,1\n1,2,2\n")
        observed, _ = load_predictions_csv(p)
        np.testing.assert_array_equal(observed.values, [1.0, 2.0])
        p.write_text("time,observed,predicted\n0,1,1\ntime,observed,predicted\n1,2,2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_predictions_csv(p)

    def test_time_column_required(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("1,1\n2,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_predictions_csv(p)

    def test_predicted_series_of_either_file(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("time,observed,predicted\n10,1,1.5\n12,2,2.5\n14,3,3.5\n")
        series = tmp_path / "s.csv"
        series.write_text("time,value\n10,1.5\n12,2.5\n14,3.5\n")
        for path in (preds, series):
            predicted = load_predicted_series(path)
            np.testing.assert_array_equal(predicted.values, [1.5, 2.5, 3.5])
            assert predicted.start_time == 10 and predicted.step == 2
        series.write_text("1.5\n2.5\n10,1,1.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_predicted_series(series)


# CSV-shaped inputs: rows of number-like, header-like and stray tokens.
_TOKEN = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["time", "Value", "99999", "", " ", "1e999", "-inf", "0x1f", "1_0", "#"]),
    st.text(max_size=4),
)
_CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(["1", "-2.5", "3e2", "99999"]), min_size=1, max_size=10)
    .map(lambda rows: "\n".join(rows).encode("utf-8")),
    st.lists(st.lists(_TOKEN, min_size=1, max_size=4).map(",".join), max_size=10)
    .map(lambda rows: "\n".join(rows).encode("utf-8", "surrogatepass")),
)


def _returns_or_raises_belpm_error(read, *args, **kwargs):
    try:
        read(*args, **kwargs)
    except BelpmError:
        pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CSV_BYTES)
def test_fuzz_csv_readers(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    _returns_or_raises_belpm_error(load_series_csv, path)
    _returns_or_raises_belpm_error(load_series_csv, path, missing_sentinel=99999,
                                   gap_policy="linear_interpolate")
    _returns_or_raises_belpm_error(load_predictions_csv, path)
    _returns_or_raises_belpm_error(load_predicted_series, path)

def trained_models():
    ds = embed(gen_logistic(80, r=3.9, x0=0.3), 3, 1)
    train_set, _ = split(ds, 60)
    belpm = train(train_set, BelpmConfig(k_a=4, k_o=4, epochs=3))
    wknn = WknnModel.from_dataset(train_set, k=2)
    classic = bel_train(ClassicBelModel.zeros(3, alpha=0.1, beta=0.1),
                        train_set, epochs=3)
    return belpm, wknn, classic


class TestModelPersistence:
    def test_belpm_round_trip_bit_identical(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        loaded = load_model_file(path).model
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.uniform(0, 1, size=3)
            assert predict(loaded, q) == predict(model, q)
        resaved = tmp_path / "again.belpm"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_wknn_round_trip(self, tmp_path):
        _, model, _ = trained_models()
        path = tmp_path / "m.wknn"
        save_model(model, path)
        loaded = load_model_file(path)
        assert kind_of(loaded.model) == "wknn"
        assert (loaded.model.r, loaded.model.horizon) == (3, 1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.uniform(0, 1, size=3)
            assert wknn_predict(loaded.model, q) == wknn_predict(model, q)
        resaved = tmp_path / "again.wknn"
        save_model(loaded.model, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        assert_resave_is_stable(tmp_path, "wknn")

    def test_classic_round_trip(self, tmp_path):
        _, _, model = trained_models()
        path = tmp_path / "m.bel"
        save_model(model, path)
        loaded = load_model_file(path)
        np.testing.assert_array_equal(loaded.model.v, model.v)
        np.testing.assert_array_equal(loaded.model.w, model.w)
        assert bel_predict(loaded.model, [0.1, 0.2, 0.3]) == \
            bel_predict(model, [0.1, 0.2, 0.3])
        resaved = tmp_path / "again.bel"
        save_model(loaded.model, resaved)
        assert resaved.read_bytes() == path.read_bytes()
        assert_resave_is_stable(tmp_path, "classic_bel")

    def test_belpm_resave_at_horizon_5(self, tmp_path):
        assert_resave_is_stable(tmp_path, "belpm")

    def test_fusion_weights_serialized_losslessly(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        text = path.read_text()
        assert "cm_w = " in text and "lo_w" not in text and "cm_wa" not in text
        loaded = load_model_file(path).model
        assert (loaded.cm.w1, loaded.cm.w2, loaded.cm.w3) == \
            (model.cm.w1, model.cm.w2, model.cm.w3)

    def test_v1_file_loads_bit_identically(self, tmp_path):
        # v1 = the v2 document plus the constant fused-punishment weights
        lines = V2_MODEL.read_text().splitlines(keepends=True)
        assert lines[0] == "belpm-model v2\n"
        lines[0] = "belpm-model v1\n"
        at = next(i for i, line in enumerate(lines) if line.startswith("cm_w = ")) + 1
        lines[at:at] = ["cm_wa = 1,-1,0\n", "lo_w = 1,0\n"]
        v1 = tmp_path / "m1.belpm"
        v1.write_bytes(rechecksum("".join(lines)))
        from_v1, from_v2, from_v3 = (load_model_file(path).model for path in (v1, V2_MODEL, V3_MODEL))
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(0, 1, size=3)
            assert predict(from_v1, q) == predict(from_v2, q) == predict(from_v3, q)

    @pytest.mark.parametrize("fixture", [V2_MODEL, V3_MODEL], ids=["v2", "v3"])
    def test_old_file_loads_bit_identically_and_resaves_as_v4(self, tmp_path, fixture):
        loaded = load_model_file(fixture).model
        other = load_model_file(V3_MODEL if fixture == V2_MODEL else V2_MODEL).model
        resaved, other_resaved = tmp_path / "resaved.belpm", tmp_path / "other.belpm"
        save_model(loaded, resaved)
        save_model(other, other_resaved)
        assert resaved.read_bytes() == other_resaved.read_bytes()
        assert resaved.read_text().startswith("belpm-model v4\n")
        from_v4 = load_model_file(resaved).model
        ds = embed(gen_logistic(80, r=3.9, x0=0.3), 3, 1)
        for q in ds.inputs:
            assert predict(loaded, q) == predict(other, q) == predict(from_v4, q)

    def test_each_version_holds_the_previous_ones_values(self, tmp_path):
        # v3 is the v2 document without the stored features and settings
        dropped = ("bl_inputs_shape = ", "bl_inputs = ", "train_lr = ", "train_epochs = ",
                   "train_ridge = ")
        v2_lines = V2_MODEL.read_text().splitlines()
        v3_lines = V3_MODEL.read_text().splitlines()
        assert v3_lines[0] == "belpm-model v3"
        assert v3_lines[1:-1] == [line for line in v2_lines[1:-1]
                                  if not line.startswith(dropped)]
        # v4 is the v3 document with each array's doubles, bit for bit, in base64
        resaved = tmp_path / "resaved.belpm"
        save_model(load_model_file(V3_MODEL).model, resaved)
        assert v3_text(resaved.read_text()) == V3_MODEL.read_bytes()

    def test_malformed_number_is_corrupt(self, tmp_path):
        # The decimal readers of v1-v3 files: a v3 text of each kind, and v2.
        _, wknn, classic = trained_models()
        path = tmp_path / "m.belpm"
        text = V3_MODEL.read_text()
        save_model(wknn, path)
        wknn_text = v3_text(path.read_text()).decode("utf-8")
        save_model(classic, path)
        classic_text = v3_text(path.read_text()).decode("utf-8")
        v2_text = V2_MODEL.read_text()

        def first_value(text, key, token):
            """``text`` with the first value of field ``key`` replaced by ``token``."""
            return re.sub(rf"^{key} = [^,\n]+", f"{key} = {token}", text, count=1, flags=re.M)

        cm_w = re.search(r"^cm_w = .*$", text, re.M).group()
        bad_texts = [
            text.replace("bl_k = 4", "bl_k = x8", 1),
            first_value(classic_text, "alpha", "x"),
            first_value(classic_text, "v", "0x1"),
            text.replace("mo_inputs_shape = 60,3", "mo_inputs_shape = 180", 1),
            text.replace(cm_w, cm_w.rsplit(",", 1)[0], 1),  # two fusion weights
            text.replace("mo_inputs_shape = 60,3", "mo_inputs_shape = -60,-3", 1),
            # parse, but the model constructors reject them
            text.replace("bl_k = 4", "bl_k = 0", 1),
            text.replace("bl_kernel = exponential", "bl_kernel = foo", 1),
            # non-finite stored data or weights would predict NaN
            first_value(text, "bl_targets", "nan"),
            first_value(text, "mo_inputs", "nan"),
            first_value(text, "bl_bandwidths", "nan"),
            first_value(text, "cm_w", "nan"),
            first_value(wknn_text, "targets", "nan"),
            first_value(wknn_text, "inputs", "inf"),
            # v2 primary features that are not the windows' (one ulp off, reshaped)
            first_value(v2_text, "bl_inputs", "0.30000000000000004"),
            v2_text.replace("bl_inputs_shape = 60,5", "bl_inputs_shape = 30,10", 1),
        ]
        for bad_text in bad_texts:
            assert bad_text not in (text, wknn_text, classic_text, v2_text)
            assert bad_text.startswith(("belpm-model v2\n", "belpm-model v3\n"))
            bad = tmp_path / "bad.belpm"
            bad.write_bytes(rechecksum(bad_text))
            with pytest.raises(CorruptFile):
                load_model_file(bad)

    def test_malformed_array_is_corrupt(self, tmp_path):
        # The base64 reader of v4 files; `belpm predict` reports each as a data error.
        belpm, wknn, classic = trained_models()
        texts = []
        for model in (belpm, wknn, classic):
            save_model(model, tmp_path / "m.belpm")
            texts.append((tmp_path / "m.belpm").read_text())
        text, wknn_text, classic_text = texts

        def values(text, key):
            return np.frombuffer(base64.b64decode(field_of(text, key)), "<f8")

        def raw(text, key):
            return base64.b64decode(field_of(text, key))

        def encoded(data):
            return base64.b64encode(data).decode("ascii")

        mo_inputs = field_of(text, "mo_inputs")
        bad_texts = [
            # not base64: a foreign character, the URL-safe alphabet, inner
            # padding, missing padding, a space
            with_field(text, "mo_inputs", "!" + mo_inputs[1:]),
            with_field(wknn_text, "targets", "-" + field_of(wknn_text, "targets")[1:]),
            with_field(text, "mo_inputs", mo_inputs[:4] + "=" + mo_inputs[5:]),
            with_field(text, "bl_bandwidths", field_of(text, "bl_bandwidths").rstrip("=")),
            with_field(classic_text, "w", field_of(classic_text, "w").replace("A", " A", 1)),
            # a byte count that is not a multiple of 8, or no bytes at all
            with_field(text, "bl_targets", encoded(raw(text, "bl_targets")[:-1])),
            with_field(wknn_text, "inputs", encoded(raw(wknn_text, "inputs") + bytes(4))),
            with_field(classic_text, "w", encoded(raw(classic_text, "w")[:-4])),
            with_field(text, "cm_w", ""),
            # non-finite stored data, bandwidths or fusion weights
            with_field(text, "bl_targets", b64([np.nan, *values(text, "bl_targets")[1:]])),
            with_field(text, "mo_inputs", b64([np.inf, *values(text, "mo_inputs")[1:]])),
            with_field(text, "mo_bandwidths", b64([-np.inf, *values(text, "mo_bandwidths")[1:]])),
            with_field(text, "cm_w", b64([1.0, np.nan, 0.0])),
            with_field(wknn_text, "targets", b64([np.nan, *values(wknn_text, "targets")[1:]])),
            with_field(wknn_text, "inputs", b64([np.inf, *values(wknn_text, "inputs")[1:]])),
            # a length that disagrees with the *_shape line
            with_field(text, "mo_inputs", b64([*values(text, "mo_inputs"), 0.5])),
            with_field(text, "mo_inputs_shape", "61,3"),
            with_field(wknn_text, "inputs", b64(values(wknn_text, "inputs")[:-3])),
            with_field(text, "cm_w", b64([1.0, 0.0])),
        ]
        series = tmp_path / "series.csv"
        save_series_csv(gen_logistic(80, r=3.9, x0=0.3), series)
        for bad_text in bad_texts:
            assert bad_text not in texts and bad_text.startswith("belpm-model v4\n")
            bad = tmp_path / "bad.belpm"
            bad.write_bytes(rechecksum(bad_text))
            with pytest.raises(CorruptFile):
                load_model_file(bad)
            assert main(["predict", "--model", str(bad), "--data", str(series),
                         "--out", str(tmp_path / "p.csv")]) == 2

    def test_blank_lines_between_fields_are_skipped(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        # an empty line after every line, and one of spaces before `kind`
        path.write_bytes(rechecksum(path.read_text().replace("\n", "\n\n").replace(
            "\nkind", "\n   \nkind", 1)))
        loaded = load_model_file(path).model
        queries = np.random.default_rng(3).uniform(0, 1, size=(20, 3))
        for q in queries:
            assert predict(loaded, q) == predict(model, q)

    def test_unknown_kind_is_corrupt(self, tmp_path):
        path = tmp_path / "m.belpm"
        save_model(trained_models()[0], path)
        path.write_bytes(rechecksum(with_field(path.read_text(), "kind", "nonsense")))
        with pytest.raises(CorruptFile, match="unknown model kind 'nonsense'"):
            load_model_file(path)
        series = tmp_path / "series.csv"
        save_series_csv(gen_logistic(80, r=3.9, x0=0.3), series)
        assert main(["predict", "--model", str(path), "--data", str(series),
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_non_finite_classic_weights_load_bit_for_bit(self, tmp_path):
        _, _, model = trained_models()
        path = tmp_path / "m.bel"
        save_model(model, path)
        v = np.array([np.nan, np.inf, -np.inf])
        v[0] = np.frombuffer(bytes.fromhex("0100000000f8ff7f"), "<f8")[0]  # a NaN payload
        path.write_bytes(rechecksum(with_field(path.read_text(), "v", b64(v))))
        assert load_model_file(path).model.v.tobytes() == v.tobytes()
        path.write_bytes(v3_text(path.read_text()))
        loaded = load_model_file(path).model
        np.testing.assert_array_equal(loaded.v, v)
        np.testing.assert_array_equal(loaded.w, model.w)

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["belpm", "wknn", "classic_bel"])
    def test_embedding_width_must_match_the_inputs(self, tmp_path, kind):
        path = tmp_path / "m.belpm"
        save_model(trained_models()[kind], path)
        series = tmp_path / "series.csv"
        save_series_csv(gen_logistic(80, r=3.9, x0=0.3), series)
        text = path.read_text()
        for r in (2, 4):
            path.write_bytes(rechecksum(text.replace("embedding_r = 3", f"embedding_r = {r}", 1)))
            with pytest.raises(CorruptFile, match=f"embedding_r = {r}, .* 3 values wide"):
                load_model_file(path)
            assert main(["predict", "--model", str(path), "--data", str(series),
                         "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["belpm", "wknn", "classic_bel"])
    def test_only_loadable_embeddings_are_saved(self, tmp_path, kind):
        # Every model, and so save and load, applies one rule: r, the width
        # of its inputs, and horizon are ints >= 1, bools refused and numpy
        # ints accepted.
        model = trained_models()[kind]
        for horizon in (0, -2):
            with pytest.raises(InvalidParameter, match=f"horizon must be >= 1, got {horizon}"):
                dataclasses.replace(model, horizon=horizon)
        for horizon in (1.5, True):
            with pytest.raises(InvalidParameter, match=f"horizon must be an int, got {horizon}"):
                dataclasses.replace(model, horizon=horizon)
        path = tmp_path / "m.belpm"
        save_model(dataclasses.replace(model, horizon=np.int64(2)), path)
        loaded = load_model_file(path)
        assert (loaded.model.r, loaded.model.horizon) == (3, 2)

    def test_default_config_training_reproduces_its_fixture(self, tmp_path):
        train_set, _ = split(embed(gen_logistic(223), 3, 1), 200)
        path = tmp_path / "m.belpm"
        save_model(train(train_set, BelpmConfig()), path)
        assert_matches_fixture(path, DEFAULT_K_MODEL)

    def test_training_reproduces_its_v4_fixture(self, tmp_path):
        path = tmp_path / "m.belpm"
        save_model(trained_models()[0], path)
        assert_matches_fixture(path, V4_MODEL)

    def test_malformed_field_message_is_bounded(self, tmp_path, capsys):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        text = path.read_text()
        mo_inputs = field_of(text, "mo_inputs")
        assert len(mo_inputs) > 1000
        path.write_bytes(rechecksum(with_field(text, "mo_inputs", "!" + mo_inputs[1:])))
        series = tmp_path / "series.csv"
        save_series_csv(gen_logistic(80, r=3.9, x0=0.3), series)
        assert main(["predict", "--model", str(path), "--data", str(series),
                     "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert "mo_inputs" in err and f"({len(mo_inputs)} characters)" in err
        assert all(len(line.encode("utf-8")) < 300 for line in err.splitlines())

    def test_version_mismatch(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        content = path.read_text().replace("belpm-model v4", "belpm-model v5", 1)
        path.write_text(content)
        with pytest.raises(VersionMismatch):
            load_model_file(path)

    def test_truncated_file(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptFile):
            load_model_file(path)

    def test_tampered_payload(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        content = path.read_text().replace("embedding_r = 3", "embedding_r = 4", 1)
        path.write_text(content)
        with pytest.raises(CorruptFile):
            load_model_file(path)


@pytest.fixture(scope="module")
def model_texts(tmp_path_factory):
    """The model-file text of each trained kind, as written (v4) and as v3."""
    path = tmp_path_factory.mktemp("models") / "m.belpm"
    texts = []
    for model in trained_models():
        save_model(model, path)
        texts += [path.read_text(), v3_text(path.read_text()).decode("utf-8")]
    return texts


# Spans of base64 text keep a v4 payload decodable, to doubles of any bits.
_B64_TEXT = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=",
                    max_size=12)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.integers(0, 5), at=st.floats(0, 1), cut=st.integers(0, 12),
       insert=st.text(max_size=12) | _B64_TEXT, checksum=st.booleans(),
       raw=st.binary(max_size=64))
def test_fuzz_model_reader(tmp_path, model_texts, kind, at, cut, insert, checksum, raw):
    """A saved model with a span replaced (re-checksummed or not), and raw bytes."""
    text = model_texts[kind]
    i = int(at * len(text))
    mutated = text[:i] + insert + text[i + cut:]
    path = tmp_path / "fuzz.belpm"
    path.write_bytes(rechecksum(mutated) if checksum and "checksum = " in mutated
                     else mutated.encode("utf-8", "surrogatepass"))
    _returns_or_raises_belpm_error(load_model_file, path)
    path.write_bytes(raw)
    _returns_or_raises_belpm_error(load_model_file, path)


def _series_with_times(tmp_path, times):
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{t},1.0\n" for t in times))
    return load_series_csv(path)


def _model_with_field(tmp_path, key, value):
    path = tmp_path / "m.belpm"
    save_model(trained_models()[0], path)
    path.write_bytes(rechecksum(with_field(path.read_text(), key, value)))
    return load_model_file(path)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp_path: _series_with_times(tmp_path, [5, 5]), ParseError, "strictly increasing"),
    (lambda tmp_path: _series_with_times(tmp_path, [5, 3, 1]), ParseError, "strictly increasing"),
    (lambda tmp_path: kind_of(object()), InvalidParameter, "object is not a model kind"),
    (lambda tmp_path: save_model(BelpmConfig(), tmp_path / "m"), InvalidParameter,
     "BelpmConfig is not a model kind"),
    (lambda tmp_path: _model_with_field(tmp_path, "embedding_r", "0"), CorruptFile,
     "embedding_r = 0, .* 3 values wide"),
    (lambda tmp_path: _model_with_field(tmp_path, "embedding_horizon", "-2"), CorruptFile,
     "horizon must be >= 1, got -2"),
])
def test_storage_refusals(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
