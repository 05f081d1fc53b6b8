import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from belpm.baselines import WknnModel, wknn_predict
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
from belpm.series import TimeSeries, embed, gen_logistic, split
from belpm.storage import (
    load_model_file,
    load_predicted_series,
    load_predictions_csv,
    load_series_csv,
    save_model,
    save_predictions_csv,
    save_series_csv,
)

from oracles import rechecksum

# A belpm model written in the v2 format: trained_models()'s belpm model, saved
# when the writer also stored the primary features and the training settings.
V2_MODEL = Path(__file__).parent / "data" / "logistic_v2.belpm"


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
        save_model(model, path, embedding=(3, 1))
        loaded = load_model_file(path)
        assert loaded.kind == "wknn" and loaded.r == 3 and loaded.horizon == 1
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.uniform(0, 1, size=3)
            assert wknn_predict(loaded.model, q) == wknn_predict(model, q)
        resaved = tmp_path / "again.wknn"
        save_model(loaded.model, resaved, embedding=(loaded.r, loaded.horizon))
        assert resaved.read_bytes() == path.read_bytes()

    def test_classic_round_trip(self, tmp_path):
        _, _, model = trained_models()
        path = tmp_path / "m.bel"
        save_model(model, path, embedding=(3, 1))
        loaded = load_model_file(path)
        np.testing.assert_array_equal(loaded.model.v, model.v)
        np.testing.assert_array_equal(loaded.model.w, model.w)
        assert bel_predict(loaded.model, [0.1, 0.2, 0.3]) == \
            bel_predict(model, [0.1, 0.2, 0.3])
        resaved = tmp_path / "again.bel"
        save_model(loaded.model, resaved, embedding=(loaded.r, loaded.horizon))
        assert resaved.read_bytes() == path.read_bytes()

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
        model, _, _ = trained_models()
        lines = V2_MODEL.read_text().splitlines(keepends=True)
        assert lines[0] == "belpm-model v2\n"
        lines[0] = "belpm-model v1\n"
        at = next(i for i, line in enumerate(lines) if line.startswith("cm_w = ")) + 1
        lines[at:at] = ["cm_wa = 1,-1,0\n", "lo_w = 1,0\n"]
        v1 = tmp_path / "m1.belpm"
        v1.write_bytes(rechecksum("".join(lines)))
        from_v1, from_v2 = load_model_file(v1).model, load_model_file(V2_MODEL).model
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(0, 1, size=3)
            assert predict(from_v1, q) == predict(from_v2, q) == predict(model, q)

    def test_v2_file_loads_bit_identically_and_resaves_as_v3(self, tmp_path):
        model, _, _ = trained_models()
        loaded = load_model_file(V2_MODEL).model
        ds = embed(gen_logistic(80, r=3.9, x0=0.3), 3, 1)
        for q in ds.inputs:
            assert predict(loaded, q) == predict(model, q)
        fresh, resaved = tmp_path / "fresh.belpm", tmp_path / "resaved.belpm"
        save_model(model, fresh)
        save_model(loaded, resaved)
        assert resaved.read_bytes() == fresh.read_bytes()
        # v3 is the v2 document without the stored features and settings
        dropped = ("bl_inputs_shape = ", "bl_inputs = ", "train_lr = ", "train_epochs = ",
                   "train_ridge = ")
        v2_lines = V2_MODEL.read_text().splitlines()
        v3_lines = fresh.read_text().splitlines()
        assert v3_lines[0] == "belpm-model v3"
        assert v3_lines[1:-1] == [line for line in v2_lines[1:-1]
                                  if not line.startswith(dropped)]

    def test_malformed_number_is_corrupt(self, tmp_path):
        belpm, wknn, classic = trained_models()
        path = tmp_path / "m.belpm"
        save_model(belpm, path)
        text = path.read_text()
        save_model(wknn, path, embedding=(3, 1))
        wknn_text = path.read_text()
        save_model(classic, path, embedding=(3, 1))
        classic_text = path.read_text()
        v2_text = V2_MODEL.read_text()

        def first_value(text, key, token):
            """``text`` with the first value of field ``key`` replaced by ``token``."""
            return re.sub(rf"^{key} = [^,\n]+", f"{key} = {token}", text, count=1, flags=re.M)

        cm_w = re.search(r"^cm_w = .*$", text, re.M).group()
        bad_texts = [
            text.replace("bl_k = 4", "bl_k = x8", 1),
            first_value(classic_text, "alpha", "x"),
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
            bad = tmp_path / "bad.belpm"
            bad.write_bytes(rechecksum(bad_text))
            with pytest.raises(CorruptFile):
                load_model_file(bad)

    def test_version_mismatch(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        content = path.read_text().replace("belpm-model v3", "belpm-model v4", 1)
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
    """The model-file text of each trained kind."""
    path = tmp_path_factory.mktemp("models") / "m.belpm"
    texts = []
    for model in trained_models():
        save_model(model, path, embedding=(3, 1))
        texts.append(path.read_text())
    return texts


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.integers(0, 2), at=st.floats(0, 1), cut=st.integers(0, 12),
       insert=st.text(max_size=12), checksum=st.booleans(), raw=st.binary(max_size=64))
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
