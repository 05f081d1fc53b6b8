"""Arbitrary argv into ``cli.main``: every call ends in a documented exit code.

Each subcommand always gets its required flags, so calls get past argparse,
and any subset of its other flags. Values are small ints, non-finite and
extreme floats, junk strings and fixture paths. The flags that size an
allocation or a loop draw only small values, so every call is quick.
"""

import json
import shutil
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from belpm.cli import main
from belpm.experiment import ExperimentConfig
from belpm.series import TimeSeries, gen_logistic
from belpm.storage import load_model_file, save_predictions_csv, save_series_csv

NUMBERS = ["0", "1", "2", "3", "7", "-1", "-0.0", "0.5", "1000000", "1e300",
           "nan", "inf", "-inf", "-999"]
JUNK = ["", "x", "1,2", "0x10", "--", "é"]
VALUES = st.sampled_from(NUMBERS + JUNK)
SMALL = st.sampled_from(["0", "1", "2", "3", "5", "-1", "x", "nan", "1e300"])
KINDS = ["belpm", "wknn", "classic_bel", "x"]
KERNELS = ["exponential", "inverse_quadratic", "linear_rescale", "x"]
# JSON values a bench config field may get; the ints are small.
JSON_VALUES = st.sampled_from([0, 1, 2, 3, -1, 0.5, float("nan"), float("inf"), 1e300,
                               "x", "belpm", "wknn", "classic_bel", "mackey_glass",
                               "linear_rescale", None, True, []])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture paths by role: inputs to read and places to write."""
    root = tmp_path_factory.mktemp("fuzz")
    series = gen_logistic(40, r=3.9, x0=0.3)
    save_series_csv(series, root / "series.csv")
    gapped = series.values.copy()
    gapped[[5, 17, 18]] = -999.0
    save_series_csv(TimeSeries(gapped, start_time=600, step=60), root / "gapped.csv")
    save_series_csv(TimeSeries(series.values * 1e200), root / "huge.csv")  # overflows
    save_predictions_csv(series, series.values[::-1], root / "preds.csv")
    (root / "binary").write_bytes(b"1\n\xff\xfe2\n3\n")
    models = []
    for kind in KINDS[:3]:
        models.append(root / f"{kind}.model")
        assert main(["train", "--data", str(root / "series.csv"), "--n-train", "30",
                     "--model", kind, "--epochs", "2", "--bel-epochs", "2",
                     "--out", str(models[-1])]) == 0
    (root / "dir").mkdir()
    inputs = [root / name for name in ("series.csv", "gapped.csv", "huge.csv", "preds.csv",
                                       "binary", "dir", "missing.csv")] + models
    outs = [root / "out", root / "dir", root / "missing" / "out", root / "series.csv" / "out"]
    return {"root": root, "inputs": [str(p) for p in inputs], "outs": [str(p) for p in outs]}


def _flags(required: dict, optional: dict):
    """``--flag=value`` arguments: every required flag, any subset of the others."""
    @st.composite
    def flags(draw):
        chosen = {**required, **{flag: values for flag, values in optional.items()
                                 if draw(st.booleans())}}
        return [f"{flag}={draw(values)}" for flag, values in chosen.items()]
    return flags()


def _argv_strategy(files, config_path):
    root = files["root"]

    def path(*good):
        """Half the time a path fit for the flag, else any input fixture."""
        return st.sampled_from([str(root / name) for name in good]) | st.sampled_from(files["inputs"])

    series = path("series.csv", "gapped.csv", "huge.csv")
    models = path(*(f"{kind}.model" for kind in KINDS[:3]))
    outs = st.just(str(root / "out")) | st.sampled_from(files["outs"])
    data = {"--sentinel": VALUES, "--gap-policy": st.sampled_from(["error", "linear_interpolate", "x"])}
    embedding = {"--embed-r": VALUES, "--horizon": VALUES}
    commands = {
        "gen": ({"--kind": st.sampled_from(["logistic", "mackey_glass", "x"]), "--n": SMALL,
                 "--out": outs},
                {"--tau": SMALL, "--x0": VALUES, "--warmup": SMALL, "--rate": VALUES}),
        "embed": ({"--data": series, "--out": outs}, {**data, **embedding}),
        "train": ({"--data": series, "--n-train": SMALL, "--out": outs},
                  {**data, **embedding, "--model": st.sampled_from(KINDS), "--k-a": VALUES,
                   "--k-o": VALUES, "--bl-kernel": st.sampled_from(KERNELS),
                   "--mo-kernel": st.sampled_from(KERNELS), "--lr": VALUES,
                   "--epochs": SMALL, "--ridge": VALUES, "--wknn-k": VALUES,
                   "--bel-alpha": VALUES, "--bel-beta": VALUES, "--bel-epochs": SMALL}),
        "predict": ({"--data": series, "--model": models, "--out": outs}, data),
        "eval": ({"--predictions": path("preds.csv")},
                 {"--peak-window": VALUES, "--peak-top-m": VALUES, "--out": outs}),
        "peaks": ({"--data": series},
                  {**data, "--top-m": VALUES, "--predicted": path("series.csv", "preds.csv"),
                   "--window": VALUES}),
        "bench": ({"--config": st.sampled_from([config_path, *files["inputs"]])},
                  {"--out-dir": outs}),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda name: _flags(*commands[name]).map(lambda flags: [name, *flags]))


# A bench config: small experiments with up to two fields overridden (by the
# JSON values above, whose ints stay small).
_EXPERIMENT = st.fixed_dictionaries(
    {"generator": st.sampled_from(["logistic", "mackey_glass"]), "gen_n": st.just(40),
     "n_train": st.just(30), "epochs": st.just(2), "bel_epochs": st.just(2)}
).flatmap(lambda base: st.dictionaries(
    st.sampled_from(sorted(set(ExperimentConfig.field_names()) - {"out_dir"}) + ["nonsense"]),
    JSON_VALUES, max_size=2,
).map(lambda extra: {**base, **extra}))
_BENCH_DOCS = st.one_of(_EXPERIMENT, st.lists(_EXPERIMENT, max_size=2).map(
    lambda experiments: {"experiments": experiments}), JSON_VALUES)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_fuzz_cli_exit_codes(files, data):
    root = files["root"]
    config_path = str(root / "bench.json")
    (root / "bench.json").write_text(json.dumps(data.draw(_BENCH_DOCS, label="bench config")))
    argv = data.draw(_argv_strategy(files, config_path), label="argv")
    out = root / "out"
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    code = main(argv)
    assert code in (0, 1, 2, 3)
    if argv[0] == "train" and code == 0:
        load_model_file(out)  # a model that train writes must load


def test_classic_bel_divergence_warns_once(files):
    # logistic x 1e200 drives classic_bel's weights past the float range:
    # numpy's overflow warnings stay silent, and training says so once
    root = files["root"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--data", str(root / "huge.csv"), "--n-train", "30",
                     "--model", "classic_bel", "--out", str(root / "huge.model")]) == 0
    assert [w.category for w in caught] == [UserWarning]
    assert "diverged" in str(caught[0].message)
