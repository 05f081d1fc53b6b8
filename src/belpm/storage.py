"""File formats: the series, predictions and embedded-pairs CSVs, and model files.

CSV tables: UTF-8, LF or CRLF, '#' comment lines and blank lines ignored,
a leading ``time,...`` header row skipped, and one row per line in a single
form: a series CSV holds ``value`` or ``time,value`` rows, a predictions CSV
``time,observed,predicted`` rows. Times are integers with one uniform step.

Model file: line-oriented ``key = value`` text under a ``belpm-model v4``
header, arrays as the padded base64 of their little-endian float64 bytes,
matrices flattened row-major next to a ``*_shape`` key, and a trailing
``checksum = <crc32 hex>`` over every preceding byte. The ``kind`` field
names the ``MODEL_KINDS`` entry that writes and reads the other fields. The
stored training data is part of the model (memory-based models), so a loaded
model predicts bit-identically to the saved one; a ``belpm`` model's windows
are stored once, as ``mo_inputs``. v1-v3 files, decoded by their version,
hold arrays as comma-separated numerals. v2 files also hold the primary
network's features (``bl_inputs``), which must equal those of the windows,
and the ignored ``train_lr``, ``train_epochs`` and ``train_ridge``; v1 files
are v2 plus the ignored constant ``lo_w`` and ``cm_wa`` weights.

Bytes that are not UTF-8 are a data error; a path that cannot be read or
written is a config error."""

from __future__ import annotations

import base64
import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .baselines import WknnModel, wknn_predict_many
from .classic import ClassicBelModel, bel_predict_many
from .errors import (
    BelpmError,
    ConfigError,
    CorruptFile,
    EmptyFile,
    GapError,
    InvalidParameter,
    ParseError,
    VersionMismatch,
)
from .model import BelpmModel, CmWeights, _bl_feature_matrix, predict_many
from .network import AdaptiveNetwork, KernelKind
from .series import EmbeddedDataset, TimeSeries

MODEL_HEADER = "belpm-model"
MODEL_VERSION = "v4"
_DECIMAL_VERSIONS = ("v1", "v2", "v3")  # arrays as numerals, not base64
_READABLE_VERSIONS = (*_DECIMAL_VERSIONS, MODEL_VERSION)

GAP_ERROR = "error"
GAP_INTERPOLATE = "linear_interpolate"


def format_float(x: float) -> str:
    """The 17-significant-digit numeral every format writes; it parses back exactly."""
    return format(float(x), ".17g")


def read_text(path, what: str, error: type[BelpmError] = ParseError) -> str:
    """A file's UTF-8 text as stored. A file that is missing or cannot be read
    raises ``ConfigError`` naming it ``what``; undecodable bytes raise ``error``."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, newlines as given."""
    try:
        Path(path).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _read_table(path, what: str, forms: tuple[str, ...]) -> list[TimeSeries]:
    """One series per value column of a CSV table whose rows all follow the
    one of ``forms`` (say ``value`` or ``time,value``) that the first row
    picks. Rows without times are timed 0, 1, 2, ..."""
    form_of = {form.count(",") + 1: form for form in forms}
    width, times, values = 0, [], []
    for lineno, raw in enumerate(read_text(path, what).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if not width:
            if parts[0].strip().lower() == "time":
                continue  # the header
            if len(parts) not in form_of:
                raise ParseError(f"line {lineno}: expected {' or '.join(map(repr, forms))}")
            width = len(parts)
            timed = form_of[width].startswith("time,")
        elif len(parts) != width:
            raise ParseError(f"line {lineno}: expected {form_of[width]!r} like the first row")
        if timed:
            try:
                times.append(int(parts[0]))
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse time {parts[0].strip()!r}") from None
        for token in parts[1:] if timed else parts:
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse number {token.strip()!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite value {token.strip()!r}")
            values.append(value)
    if not width:
        raise EmptyFile(f"{path}: no observations")
    start, step = 0, 1
    if timed:
        start = times[0]
        step = times[1] - start if len(times) > 1 else 1
        if step <= 0:
            raise ParseError("time column must be strictly increasing")
        grid = range(start, start + step * len(times), step)
        if times != list(grid):
            row = next(i for i, (t, g) in enumerate(zip(times, grid), start=1) if t != g)
            raise ParseError(f"non-uniform time step at row {row} of the data")
    columns = np.array(values).reshape(-1, width - timed).T
    return [TimeSeries(column, start_time=start, step=step) for column in columns]


def load_series_csv(path, missing_sentinel: float | None = None,
                    gap_policy: str = GAP_ERROR) -> TimeSeries:
    """Parse a series CSV. A value equal to ``missing_sentinel`` is a gap:
    an error, or linearly interpolated from its neighbours, per ``gap_policy``."""
    if gap_policy not in (GAP_ERROR, GAP_INTERPOLATE):
        raise InvalidParameter(f"unknown gap policy {gap_policy!r}")
    (series,) = _read_table(path, "data file", ("value", "time,value"))
    values = series.values
    if missing_sentinel is not None and (gaps := values == missing_sentinel).any():
        if gap_policy == GAP_ERROR:
            raise GapError(f"missing-value sentinel at observation {np.argmax(gaps) + 1} "
                           f"and gap policy is '{GAP_ERROR}'")
        if gaps.all():
            raise GapError("every observation is a missing-value sentinel")
        if gaps[0] or gaps[-1]:
            raise GapError("cannot interpolate a gap at the start or end of the series")
        known = np.flatnonzero(~gaps)
        series = replace(series, values=np.interp(np.arange(values.size, dtype=float),
                                                  known, values[known]))
    return series


def load_predictions_csv(path) -> tuple[TimeSeries, np.ndarray]:
    """The observed series and the predictions of a predictions CSV."""
    observed, predicted = _read_table(path, "predictions file", ("time,observed,predicted",))
    return observed, predicted.values


def load_predicted_series(path) -> TimeSeries:
    """The series of a series CSV, or the ``predicted`` column of a predictions CSV."""
    forms = ("value", "time,value", "time,observed,predicted")
    return _read_table(path, "predicted series", forms)[-1]


def _write_table(path, series: TimeSeries, header: str, *columns) -> None:
    """A ``header`` line, then per value of ``series`` its time and ``columns``."""
    times = range(series.start_time, series.time_at(len(series)), series.step)
    cells = [map(format_float, np.asarray(column).tolist()) for column in columns]
    rows = map(",".join, zip(map(str, times), *cells))
    write_text(path, "\n".join([header, *rows]) + "\n")


def save_series_csv(series: TimeSeries, path) -> None:
    """Write a ``time,value`` CSV that parses back to the same values."""
    _write_table(path, series, "time,value", series.values)


def save_predictions_csv(observed: TimeSeries, predicted, path) -> None:
    """Write one ``time,observed,predicted`` row per observed value."""
    _write_table(path, observed, "time,observed,predicted", observed.values, predicted)


def save_pairs_csv(dataset: EmbeddedDataset, path) -> None:
    """Write each embedded pair as its window values followed by its target."""
    lines = [f"# embedded pairs r={dataset.r} horizon={dataset.horizon}"]
    for x, t in zip(dataset.inputs.tolist(), dataset.targets.tolist()):
        lines.append(",".join(map(format_float, (*x, t))))
    write_text(path, "\n".join(lines) + "\n")


# --- model persistence -------------------------------------------------------


@dataclass(frozen=True)
class LoadedModel:
    """A deserialized model plus the embedding shape recorded with it."""

    kind: str
    model: BelpmModel | WknnModel | ClassicBelModel
    r: int
    horizon: int


def _render(fields: dict) -> str:
    """The model document: one line per field in order, arrays in base64 and
    floats as numerals, a 2-D array after its ``*_shape`` line, then the checksum."""
    lines = [f"{MODEL_HEADER} {MODEL_VERSION}"]
    for key, value in fields.items():
        if isinstance(value, np.ndarray):
            if value.ndim == 2:
                lines.append(f"{key}_shape = {value.shape[0]},{value.shape[1]}")
            value = base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode("ascii")
        elif isinstance(value, (float, np.floating)):
            value = format_float(value)
        lines.append(f"{key} = {value}")
    body = "\n".join(lines) + "\n"
    return body + f"checksum = {zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}\n"


def _field(fields: dict[str, str], key: str, convert: Callable[[str], Any] = float):
    """``convert`` applied to a field's text; a missing or malformed field is corrupt."""
    if key not in fields:
        raise CorruptFile(f"missing field {key!r}")
    try:
        return convert(fields[key])
    except ValueError:
        raise CorruptFile(f"field {key!r} has malformed value {_excerpt(fields[key])}") from None


def _excerpt(text: str) -> str:
    """A value for an error message: its first 80 characters, quoted, and its length."""
    return f"{text[:80]!r} ({len(text)} characters)"


class _Fields(dict):
    """A model file's ``key -> value`` texts; its ``version`` picks the array decoder."""

    version: str


def _array(fields: _Fields, key: str) -> np.ndarray:
    if fields.version in _DECIMAL_VERSIONS:
        return _field(fields, key, lambda raw: np.array(list(map(float, raw.split(",")))))
    # the standard, padded base64 of little-endian float64 bytes
    return _field(fields, key,
                  lambda raw: np.frombuffer(base64.b64decode(raw, validate=True), "<f8"))


def _matrix(fields: _Fields, key: str) -> np.ndarray:
    shape = _field(fields, f"{key}_shape", lambda raw: tuple(int(tok) for tok in raw.split(",")))
    flat = _array(fields, key)
    if len(shape) != 2 or min(shape) < 1 or flat.size != shape[0] * shape[1]:
        raise CorruptFile(f"field {key!r} does not match its shape")
    return flat.reshape(shape)


def _network_fields(prefix: str, net: AdaptiveNetwork) -> dict:
    return {
        f"{prefix}_kernel": net.kernel.value,
        f"{prefix}_k": net.k,
        f"{prefix}_bandwidths": net.bandwidths,
        f"{prefix}_inputs": net.train_inputs,
        f"{prefix}_targets": net.train_targets,
    }


def _read_network(fields: _Fields, prefix: str, inputs: np.ndarray) -> AdaptiveNetwork:
    return AdaptiveNetwork(
        train_inputs=inputs,
        train_targets=_array(fields, f"{prefix}_targets"),
        k=_field(fields, f"{prefix}_k", int),
        kernel=KernelKind.from_name(_field(fields, f"{prefix}_kernel", str)),
        bandwidths=_array(fields, f"{prefix}_bandwidths"),
    )


def _belpm_fields(model: BelpmModel, embedding) -> dict:
    r, horizon = embedding or (model.r, model.horizon)
    if horizon != model.horizon:
        raise InvalidParameter(f"embedding_horizon = {horizon}, but the model's is {model.horizon}")
    fields = {
        "embedding_r": _checked_width(model.mo, r),
        "embedding_horizon": horizon,
        **_network_fields("bl", model.bl),
        **_network_fields("mo", model.mo),
        "cm_w": np.array([model.cm.w1, model.cm.w2, model.cm.w3]),
    }
    del fields["bl_inputs"]  # the features of ``mo_inputs``
    return fields


def _read_belpm(fields: _Fields) -> BelpmModel:
    cm_w = _array(fields, "cm_w")
    if cm_w.size != 3:
        raise CorruptFile(f"field 'cm_w' holds {cm_w.size} values, expected 3")
    mo = _read_network(fields, "mo", _matrix(fields, "mo_inputs"))
    # v1 and v2 files also hold the features, which the model checks.
    bl_inputs = (_matrix(fields, "bl_inputs") if "bl_inputs" in fields
                 else _bl_feature_matrix(mo.train_inputs))
    return BelpmModel(
        r=_field(fields, "embedding_r", int),
        horizon=_field(fields, "embedding_horizon", int),
        bl=_read_network(fields, "bl", bl_inputs),
        mo=mo,
        cm=CmWeights(*cm_w.tolist()),
    )


def _checked_width(model, r: int) -> int:
    """``r``, which must be the width of ``model``'s inputs (``InvalidParameter``)."""
    if model.dim != r:
        raise InvalidParameter(f"embedding_r = {r}, but the inputs are {model.dim} values wide")
    return r


def _wknn_fields(model: WknnModel, embedding) -> dict:
    r, horizon = embedding or (model.dim, 1)
    return {"embedding_r": _checked_width(model, r), "embedding_horizon": horizon,
            "k": model.k, "inputs": model.train_inputs, "targets": model.train_targets}


def _read_wknn(fields: _Fields) -> WknnModel:
    model = WknnModel(train_inputs=_matrix(fields, "inputs"),
                      train_targets=_array(fields, "targets"), k=_field(fields, "k", int))
    _checked_width(model, _field(fields, "embedding_r", int))
    return model


def _classic_fields(model: ClassicBelModel, embedding) -> dict:
    r, horizon = embedding or (model.dim, 1)
    return {"embedding_r": _checked_width(model, r), "embedding_horizon": horizon,
            "v": model.v, "w": model.w, "alpha": model.alpha, "beta": model.beta}


def _read_classic(fields: _Fields) -> ClassicBelModel:
    model = ClassicBelModel(v=_array(fields, "v"), w=_array(fields, "w"),
                            alpha=_field(fields, "alpha"), beta=_field(fields, "beta"))
    _checked_width(model, _field(fields, "embedding_r", int))
    return model


class ModelKind(NamedTuple):
    """A model class, its file fields and its batch predictor: ``to_fields(model,
    embedding)`` gives the fields after ``kind``, ``from_fields(fields)`` rebuilds
    the model, and ``predict_many(model, inputs)`` predicts each input row."""

    cls: type
    to_fields: Callable[[Any, tuple[int, int] | None], dict]
    from_fields: Callable[[_Fields], Any]
    predict_many: Callable[[Any, np.ndarray], np.ndarray]


MODEL_KINDS = {
    "belpm": ModelKind(BelpmModel, _belpm_fields, _read_belpm, predict_many),
    "wknn": ModelKind(WknnModel, _wknn_fields, _read_wknn, wknn_predict_many),
    "classic_bel": ModelKind(ClassicBelModel, _classic_fields, _read_classic, bel_predict_many),
}


def kind_of(model) -> str:
    """The ``MODEL_KINDS`` name of a model; ``InvalidParameter`` for anything else."""
    for name, kind in MODEL_KINDS.items():
        if type(model) is kind.cls:
            return name
    raise InvalidParameter(f"{type(model).__name__} is not a model kind")


def save_model(model, path, embedding: tuple[int, int] | None = None) -> None:
    """Serialize a model (any of the kinds) to a versioned text file.

    ``embedding`` records (r, horizon): by default the inputs' width and a
    ``belpm`` model's horizon, or 1. One that contradicts the model, or holds
    other than ints >= 1 as ``load_model_file`` requires, raises
    ``InvalidParameter`` and writes nothing.
    """
    name = kind_of(model)
    fields = MODEL_KINDS[name].to_fields(model, embedding)
    for key in ("embedding_r", "embedding_horizon"):
        value = fields[key]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise InvalidParameter(f"{key} must be an int >= 1, got {value!r}")
    write_text(path, _render({"kind": name, **fields}))


def _parse_document(path) -> _Fields:
    text = read_text(path, "model file", CorruptFile)
    lines = text.splitlines()
    if not lines:
        raise CorruptFile(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_HEADER:
        raise CorruptFile(f"{path}: missing '{MODEL_HEADER}' header")
    if header[1] not in _READABLE_VERSIONS:
        raise VersionMismatch(
            f"{path}: format {header[1]} unsupported, expected one of "
            f"{', '.join(_READABLE_VERSIONS)}"
        )
    if not lines[-1].startswith("checksum = "):
        raise CorruptFile(f"{path}: missing trailing checksum")
    checksum_line = lines[-1]
    body = text[: text.rfind(checksum_line)].encode("utf-8")
    expected = checksum_line.split(" = ", 1)[1].strip()
    actual = f"{zlib.crc32(body) & 0xFFFFFFFF:08x}"
    if actual != expected:
        raise CorruptFile(f"{path}: checksum mismatch")
    fields = _Fields()
    fields.version = header[1]
    for line in lines[1:-1]:
        if not line.strip():
            continue
        if " = " not in line:
            raise CorruptFile(f"{path}: malformed line {_excerpt(line)}")
        key, value = line.split(" = ", 1)
        fields[key.strip()] = value.strip()
    return fields


def load_model_file(path) -> LoadedModel:
    """Read a model file, verify its checksum, and rebuild the model.

    A missing or malformed field, and a value the model rejects, make the
    file corrupt.
    """
    fields = _parse_document(path)
    try:
        name = _field(fields, "kind", str)
        r = _field(fields, "embedding_r", int)
        horizon = _field(fields, "embedding_horizon", int)
        if name not in MODEL_KINDS:
            raise CorruptFile(f"unknown model kind {name!r}")
        if r < 1 or horizon < 1:
            raise CorruptFile("embedding_r and embedding_horizon must be >= 1")
        model = MODEL_KINDS[name].from_fields(fields)
    except (ConfigError, CorruptFile) as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    return LoadedModel(kind=name, model=model, r=r, horizon=horizon)
