"""The array contract of every public call that takes an array: it returns a
finite result or raises a ``BelpmError`` subclass, and it never answers for a
complex input. Each array argument is drawn as floats, as a list or an object
array mixing floats with None, NaN, inf, ints past the float range,
unparsable text and complex numbers (Python's and numpy's), as a complex array
(with and without an imaginary part), as a ragged list, as text, or as
numeric strings or a bool array. The last two are read as the floats they
spell, bit for bit.

An argument of the wrong kind (an array for a series, None for a dataset,
config or path, anything but a network's own leave-one-out table) raises
``InvalidParameter``, and so does a config value that ``BelpmConfig``,
``embed`` or ``split`` would refuse by its type; a predictions column must
hold one real value per observed time."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from belpm import (AdaptiveNetwork, BelpmConfig, BelpmError, ClassicBelModel, CmWeights,
                   EmbeddedDataset, ExperimentConfig, InvalidParameter, LengthMismatch,
                   TimeSeries, WknnModel, bel_forward, bel_predict, bel_predict_many, bel_train,
                   bel_update, cm_lse_fit, correlation, embed, find_peaks, forward, gen_logistic,
                   load_model_file, load_series_csv, mse, nmse, predict, predict_many,
                   predict_series, run_experiment, save_model, save_series_csv, split, train,
                   train_bandwidths_sd, wknn_predict, wknn_predict_many)
from belpm.storage import save_predictions_csv

PAIRS = embed(gen_logistic(60), 3, 1)
MODEL = train(PAIRS, BelpmConfig(epochs=2))
WKNN = WknnModel.from_dataset(PAIRS, 2)
CLASSIC = ClassicBelModel(v=[0.1, 0.2, 0.3], w=[0.3, 0.1, 0.0], alpha=0.5, beta=0.5)

# (argument shapes, call); a shape () is a scalar argument.
CALLS = {
    "TimeSeries": (((6,),), TimeSeries),
    "EmbeddedDataset": (((4, 3), (4,)), lambda x, y: EmbeddedDataset(x, y, r=3, horizon=1)),
    "AdaptiveNetwork": (((4, 3), (4,), (2,)),
                        lambda x, y, b: AdaptiveNetwork(x, y, k=2, bandwidths=b)),
    "WknnModel": (((4, 3), (4,)), lambda x, y: WknnModel(x, y, 2)),
    "ClassicBelModel": (((3,), (3,)), lambda v, w: ClassicBelModel(v, w, 0.5, 0.5)),
    "CmWeights": (((), (), ()), CmWeights),
    "predict": (((3,),), lambda q: predict(MODEL, q)),
    "predict_many": (((2, 3),), lambda q: predict_many(MODEL, q)),
    "forward": (((3,),), lambda q: forward(MODEL.mo, q)),
    "wknn_predict": (((3,),), lambda q: wknn_predict(WKNN, q)),
    "wknn_predict_many": (((2, 3),), lambda q: wknn_predict_many(WKNN, q)),
    "bel_forward": (((3,),), lambda s: bel_forward(CLASSIC, s)),
    "bel_predict": (((3,),), lambda s: bel_predict(CLASSIC, s)),
    "bel_predict_many": (((2, 3),), lambda s: bel_predict_many(CLASSIC, s)),
    "bel_update": (((3,),), lambda s: bel_update(CLASSIC, s, 1.0)),
    "nmse": (((4,), (4,)), nmse),
    "mse": (((4,), (4,)), mse),
    "correlation": (((4,), (4,)), correlation),
    "cm_lse_fit": (((4,), (4,), (4,)), cm_lse_fit),
}

FORMS = ("floats", "mixed", "objects", "complex", "complex_real", "ragged", "text", "strings",
         "bools")
ODD = (None, np.nan, np.inf, -np.inf, 10 ** 400, -10 ** 400, "abc", 1 + 2j, np.complex128(1 + 2j))
SIZE = 12  # values drawn per argument, enough for the largest shape
FLOATS = [0.5, 1.25, -3.0, 0.125, 2.5, -0.75, 1.5, 4.0, -2.0, 0.25, 1.0, -3.5]
# An argument: its form, its floats, and (position, odd value) substitutions for "mixed".
ARG = st.tuples(st.sampled_from(FORMS), st.lists(st.floats(-1e3, 1e3), min_size=SIZE,
                                                 max_size=SIZE),
                st.lists(st.tuples(st.integers(0, SIZE - 1), st.sampled_from(ODD)), min_size=1,
                         max_size=3))


def build(shape, form, floats, odd):
    """The argument of ``shape`` that ``form`` makes from ``floats`` and ``odd``."""
    if not shape:
        return build((1,), form, floats, odd)[0]
    n = math.prod(shape)
    values = np.array(floats[:n]).reshape(shape)
    if form == "floats":
        return values
    if form == "complex":
        return values + 1j
    if form == "complex_real":
        return values.astype(complex)
    if form == "bools":
        return values > 0
    if form == "text":
        return "abc"
    if form == "ragged":
        return [floats[0], floats[1:3]] if len(shape) == 1 else values.tolist() + [floats[:1]]
    cells = np.array(floats[:n], dtype=object)
    if form == "strings":
        cells = np.array([repr(x) for x in floats[:n]], dtype=object)
    else:  # mixed or objects
        for at, value in odd:
            cells[at % n] = value
    return cells.reshape(shape) if form == "objects" else cells.reshape(shape).tolist()


def spelled(shape, form, floats, odd):
    """The float64 array that numeric strings or a bool array spell."""
    values = build(shape, "floats", floats, odd)
    return (values > 0).astype(np.float64) if form == "bools" else values


def holds_complex(x):
    if isinstance(x, np.ndarray) and x.dtype == object:
        x = x.tolist()
    if isinstance(x, list):
        return any(map(holds_complex, x))
    return isinstance(x, complex) or np.iscomplexobj(x)


def outcome(call, args):
    """Every float and array in the result, or the class of the ``BelpmError`` raised."""
    try:
        return arrays_of(call(*args))
    except BelpmError as exc:
        return type(exc)


def arrays_of(out):
    if isinstance(out, tuple):
        return [a for part in out for a in arrays_of(part)]
    if dataclasses.is_dataclass(out):
        return [a for f in dataclasses.fields(out) for a in arrays_of(getattr(out, f.name))]
    return [np.asarray(out)] if isinstance(out, (float, np.ndarray)) else []


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=50, deadline=None)
@given(args=st.lists(ARG, min_size=3, max_size=3))
@example(args=[("strings", FLOATS, [(0, None)])] * 3)
@example(args=[("bools", FLOATS, [(0, None)])] * 3)
@example(args=[("complex_real", FLOATS, [(0, None)])] * 3)
@example(args=[("mixed", FLOATS, [(1, 10 ** 400)])] * 3)
@example(args=[("mixed", FLOATS, [(2, "abc")])] * 3)
@example(args=[("ragged", FLOATS, [(0, None)])] * 3)
@example(args=[("objects", FLOATS, [(0, np.complex128(1 + 2j))])] * 3)
def test_a_finite_result_or_a_library_error(name, args):
    shapes, call = CALLS[name]
    args = args[:len(shapes)]
    built = [build(shape, *arg) for shape, arg in zip(shapes, args)]
    result = outcome(call, built)
    if {form for form, _, _ in args} <= {"floats", "strings", "bools"} and shapes[0]:
        expected = outcome(call, [spelled(shape, *arg) for shape, arg in zip(shapes, args)])
        if isinstance(expected, type) or isinstance(result, type):
            assert result == expected
        else:
            assert [a.tobytes() for a in result] == [a.tobytes() for a in expected]
        if all(floats == FLOATS for _, floats, _ in args):  # the pinned examples
            assert not isinstance(result, type), f"{name} refused {args}"
    if isinstance(result, type):
        return
    assert not any(map(holds_complex, built)), f"{name} answered for a complex input"
    for arr in result:
        assert arr.dtype == np.float64
        if name != "ClassicBelModel":  # it keeps non-finite weights
            assert np.isfinite(arr).all(), f"{name} gave {arr}"


SERIES = gen_logistic(10)
# (call, error, message): each raised a raw Python exception before.
WRONG_KIND = {
    "embed of an array": (lambda: embed(SERIES.values, 3, 1), InvalidParameter,
                          "^series must be TimeSeries, got ndarray$"),
    "find_peaks of an array": (lambda: find_peaks(SERIES.values), InvalidParameter,
                               "^series must be TimeSeries, got ndarray$"),
    "predict_series of an array": (lambda: predict_series(MODEL, SERIES.values),
                                   InvalidParameter, "^series must be TimeSeries"),
    "train without a config": (lambda: train(PAIRS, None), InvalidParameter,
                               "^config must be BelpmConfig, got NoneType$"),
    "train without pairs": (lambda: train(None), InvalidParameter,
                            "^train_set must be EmbeddedDataset, got NoneType$"),
    "train on a series": (lambda: train(SERIES), InvalidParameter,
                          "^train_set must be EmbeddedDataset, got TimeSeries$"),
    "split of an array": (lambda: split(PAIRS.inputs, 2), InvalidParameter,
                          "^dataset must be EmbeddedDataset"),
    "wknn without pairs": (lambda: WknnModel.from_dataset(None, 2), InvalidParameter,
                           "^dataset must be EmbeddedDataset"),
    "bel_train without pairs": (lambda: bel_train(CLASSIC, None, 1), InvalidParameter,
                                "^dataset must be EmbeddedDataset"),
    "save_series_csv of an array": (lambda: save_series_csv(SERIES.values, "unused.csv"),
                                    InvalidParameter, "^series must be TimeSeries"),
    "save_model to None": (lambda: save_model(MODEL, None), InvalidParameter,
                           "^path must be a str or os.PathLike, got None$"),
    "load_model_file of None": (lambda: load_model_file(None), InvalidParameter,
                                "^model file path must be a str or os.PathLike, got None$"),
    "load_series_csv of None": (lambda: load_series_csv(None), InvalidParameter,
                                "^data file path must be a str or os.PathLike, got None$"),
    "load_series_csv of an int": (lambda: load_series_csv(3), InvalidParameter,
                                  "must be a str or os.PathLike, got 3$"),
    "load_series_csv of bytes": (lambda: load_series_csv(b"series.csv"), InvalidParameter,
                                 "must be a str or os.PathLike"),
    "descent on a text table": (lambda: train_bandwidths_sd(MODEL.mo, 0.05, 1, table="x"),
                                InvalidParameter, "^table must be the network's _loo_table"),
    "descent on an empty table": (lambda: train_bandwidths_sd(MODEL.mo, 0.05, 1, table=()),
                                  InvalidParameter, "^table must be the network's _loo_table"),
    "descent on a table of other shape": (
        lambda: train_bandwidths_sd(MODEL.mo, 0.05, 1, table=(np.ones((2, 3)), np.ones((2, 3)))),
        InvalidParameter, r"_loo_table, float64 \(kk, n\) = \(8, 57\)$"),
    "descent of one sample on a table": (
        lambda: train_bandwidths_sd(AdaptiveNetwork([[1.0]], [1.0], k=1), 0.05, 1,
                                    table=(np.ones((0, 1)), np.ones((0, 1)))),
        InvalidParameter, r"\(kk, n\) = \(0, 1\)$"),
    # Numpy complex scalars in an object array lost their imaginary parts.
    "wknn of an object array holding a complex": (
        lambda: wknn_predict(WKNN, np.array([np.complex128(1 + 2j), 0.5, 0.3], dtype=object)),
        InvalidParameter, "^query must hold real numbers: got complex values$"),
    "series of a complex and a wide int": (
        lambda: TimeSeries([np.complex128(1 + 2j), 10 ** 20]), InvalidParameter,
        "^series values must hold real numbers: got complex values$"),
    # The drift of the experiment config's own type table from the library's rules.
    "config of an lr past the float range": (
        lambda: ExperimentConfig(generator="logistic", lr=10 ** 400), InvalidParameter,
        "^config field 'lr' must be a real number, got int too large"),
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_a_wrong_kind_of_argument_is_a_library_error(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, error, message = WRONG_KIND[name]
    with pytest.raises(error, match=message):
        call()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field, value", [("k_a", np.int64(4)), ("lr", np.float32(0.1))])
def test_a_config_takes_the_numpy_numbers_belpm_config_takes(field, value):
    config = ExperimentConfig(generator="logistic", gen_n=120, n_train=80, epochs=2,
                              **{field: value})
    assert getattr(config, field) == value
    assert math.isfinite(run_experiment(config).nmse)


@pytest.mark.parametrize("predicted, error, message", [
    # 7 predictions wrote 7 of the 10 rows and 12 wrote 10, each silently; a
    # 2-D and a complex column raised a raw TypeError.
    (np.zeros(7), LengthMismatch, r"one value per time: 10 values$"),
    (np.zeros(12), LengthMismatch, r"one value per time: 10 values$"),
    (np.zeros((10, 1)), LengthMismatch, r"one value per time: 10 values$"),
    (np.full(10, 1 + 2j), InvalidParameter, "^predicted must hold real numbers"),
])
def test_a_predictions_column_holds_one_real_value_per_time(tmp_path, predicted, error, message):
    path = tmp_path / "predictions.csv"
    with pytest.raises(error, match=message):
        save_predictions_csv(SERIES, predicted, path)
    assert not path.exists()
    save_predictions_csv(SERIES, SERIES.values.tolist(), path)
    assert len(path.read_text().splitlines()) == 1 + len(SERIES)
