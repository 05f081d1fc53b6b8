import re

import numpy as np
import pytest

from belpm.baselines import WknnModel, wknn_predict
from belpm.classic import ClassicBelModel, bel_predict, bel_train
from belpm.errors import (
    CorruptFile,
    EmptyFile,
    GapError,
    ParseError,
    VersionMismatch,
)
from belpm.model import BelpmConfig, predict, train
from belpm.series import TimeSeries, embed, gen_logistic, split
from belpm.storage import (
    SeriesFile,
    load_model_file,
    load_series_csv,
    save_model,
    save_series_csv,
)

from oracles import rechecksum


class TestSeriesCsv:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        series = load_series_csv(SeriesFile(path=str(p)))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])
        assert series.start_time == 0 and series.step == 1

    def test_comments_blanks_and_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# comment\n\ntime,value\n10,1.5\n12,2.5\n14,3.5\n")
        series = load_series_csv(SeriesFile(path=str(p)))
        np.testing.assert_array_equal(series.values, [1.5, 2.5, 3.5])
        assert series.start_time == 10 and series.step == 2

    def test_crlf(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"1.0\r\n2.0\r\n")
        series = load_series_csv(SeriesFile(path=str(p)))
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_sentinel_interpolated(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n99999\n3\n")
        series = load_series_csv(SeriesFile(path=str(p), missing_sentinel=99999,
                                            gap_policy="linear_interpolate"))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_sentinel_with_error_policy(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n99999\n3\n")
        with pytest.raises(GapError):
            load_series_csv(SeriesFile(path=str(p), missing_sentinel=99999))

    def test_edge_gap_cannot_interpolate(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("99999\n2\n3\n")
        with pytest.raises(GapError):
            load_series_csv(SeriesFile(path=str(p), missing_sentinel=99999,
                                       gap_policy="linear_interpolate"))

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\nabc\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series_csv(SeriesFile(path=str(p)))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\nnan\n")
        with pytest.raises(ParseError):
            load_series_csv(SeriesFile(path=str(p)))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyFile):
            load_series_csv(SeriesFile(path=str(p)))

    def test_non_uniform_times(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0,1\n1,2\n5,3\n")
        with pytest.raises(ParseError):
            load_series_csv(SeriesFile(path=str(p)))

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=50) * 1e3, start_time=7, step=3)
        p = tmp_path / "s.csv"
        save_series_csv(series, p)
        back = load_series_csv(SeriesFile(path=str(p)))
        np.testing.assert_array_equal(back.values, series.values)
        assert back.start_time == 7 and back.step == 3


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
        v2 = tmp_path / "m2.belpm"
        save_model(model, v2)
        lines = v2.read_text().splitlines(keepends=True)
        assert lines[0] == "belpm-model v2\n"
        lines[0] = "belpm-model v1\n"
        at = next(i for i, line in enumerate(lines) if line.startswith("cm_w = ")) + 1
        lines[at:at] = ["cm_wa = 1,-1,0\n", "lo_w = 1,0\n"]
        v1 = tmp_path / "m1.belpm"
        v1.write_bytes(rechecksum("".join(lines)))
        from_v1, from_v2 = load_model_file(v1).model, load_model_file(v2).model
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(0, 1, size=3)
            assert predict(from_v1, q) == predict(from_v2, q) == predict(model, q)

    def test_malformed_number_is_corrupt(self, tmp_path):
        belpm, wknn, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(belpm, path)
        text = path.read_text()
        save_model(wknn, path, embedding=(3, 1))
        wknn_text = path.read_text()

        def first_value(text, key, token):
            """``text`` with the first value of field ``key`` replaced by ``token``."""
            return re.sub(rf"^{key} = [^,\n]+", f"{key} = {token}", text, count=1, flags=re.M)

        cm_w = re.search(r"^cm_w = .*$", text, re.M).group()
        bad_texts = [
            text.replace("bl_k = 4", "bl_k = x8", 1),
            text.replace("train_lr = ", "train_lr = x", 1),
            text.replace("bl_inputs_shape = 60,5", "bl_inputs_shape = 300", 1),
            text.replace(cm_w, cm_w.rsplit(",", 1)[0], 1),  # two fusion weights
            text.replace("bl_inputs_shape = 60,5", "bl_inputs_shape = -60,-5", 1),
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
        ]
        for bad_text in bad_texts:
            assert bad_text not in (text, wknn_text)
            bad = tmp_path / "bad.belpm"
            bad.write_bytes(rechecksum(bad_text))
            with pytest.raises(CorruptFile):
                load_model_file(bad)

    def test_version_mismatch(self, tmp_path):
        model, _, _ = trained_models()
        path = tmp_path / "m.belpm"
        save_model(model, path)
        content = path.read_text().replace("belpm-model v2", "belpm-model v3", 1)
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
