"""File formats: the series, predictions and embedded-pairs CSVs, and model files.

Series CSV: UTF-8, LF or CRLF, '#' comment lines and blank lines ignored,
one observation per line as either ``value`` or ``time,value`` (a literal
``time,value`` header row is tolerated). Times, when present, must be
uniformly spaced integers. A predictions CSV follows the same line rules
with ``time,observed,predicted`` rows.

Model file: line-oriented ``key = value`` text under a ``belpm-model v2``
header, arrays as comma-separated 17-significant-digit numerals, matrices
flattened row-major next to a ``*_shape`` key, and a trailing
``checksum = <crc32 hex>`` over every preceding byte. The ``kind`` field
names the ``MODEL_KINDS`` entry that writes and reads the other fields. v1
files also carry the constant ``lo_w`` and ``cm_wa`` weights; they still
load, and those two keys are ignored. The stored training data is part of
the model (memory-based models), so a loaded model predicts bit-identically
to the saved one.

Bytes that are not UTF-8 are a data error; a path that cannot be read or
written is a config error."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .baselines import WknnModel
from .classic import ClassicBelModel
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
from .model import BelpmConfig, BelpmModel, CmWeights
from .network import AdaptiveNetwork, KernelKind
from .series import EmbeddedDataset, TimeSeries

MODEL_HEADER = "belpm-model"
MODEL_VERSION = "v2"
# v1 differs only by two constant fields that loading ignores.
_READABLE_VERSIONS = ("v1", MODEL_VERSION)

GAP_ERROR = "error"
GAP_INTERPOLATE = "linear_interpolate"


@dataclass(frozen=True)
class SeriesFile:
    """A CSV source plus its missing-value handling."""

    path: str
    missing_sentinel: float | None = None
    gap_policy: str = GAP_ERROR

    def __post_init__(self):
        if self.gap_policy not in (GAP_ERROR, GAP_INTERPOLATE):
            raise InvalidParameter(f"unknown gap policy {self.gap_policy!r}")


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


def _csv_rows(path, what: str):
    """(line number, stripped comma-separated fields) of every line that is
    neither blank nor a '#' comment."""
    for lineno, raw in enumerate(read_text(path, what).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, [p.strip() for p in line.split(",")]


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse number {token!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value {token!r}")
    return value


def _parse_time(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse time {token!r}") from None


def load_series_csv(source: SeriesFile) -> TimeSeries:
    """Parse a series CSV, applying the sentinel/gap policy."""
    path = Path(source.path)
    times: list[int | None] = []
    values: list[float | None] = []
    timed: bool | None = None
    for lineno, parts in _csv_rows(path, "data file"):
        if timed is None and [p.lower() for p in parts] == ["time", "value"]:
            continue
        if len(parts) == 1:
            t: int | None = None
            v = _parse_float(parts[0], lineno)
        elif len(parts) == 2:
            t = _parse_time(parts[0], lineno)
            v = _parse_float(parts[1], lineno)
        else:
            raise ParseError(f"line {lineno}: expected 'value' or 'time,value'")
        if timed is None:
            timed = t is not None
        elif timed != (t is not None):
            raise ParseError(f"line {lineno}: mixed timed and untimed rows")
        times.append(t)
        if source.missing_sentinel is not None and v == source.missing_sentinel:
            values.append(None)
        else:
            values.append(v)
    if not values:
        raise EmptyFile(f"{path}: no observations")

    start_time, step = 0, 1
    if times[0] is not None:
        start_time, step = times[0], _uniform_step(times)

    filled = _fill_gaps(values, source)
    return TimeSeries(np.asarray(filled), start_time=start_time, step=step)


def _uniform_step(times: list[int]) -> int:
    """The one positive step between consecutive times (1 for a single row)."""
    if len(times) < 2:
        return 1
    step = times[1] - times[0]
    if step <= 0:
        raise ParseError("time column must be strictly increasing")
    for i in range(2, len(times)):
        if times[i] - times[i - 1] != step:
            raise ParseError(f"non-uniform time step at row {i + 1} of the data")
    return step


def _fill_gaps(values: list[float | None], source: SeriesFile) -> list[float]:
    gaps = [i for i, v in enumerate(values) if v is None]
    if not gaps:
        return values  # type: ignore[return-value]
    if source.gap_policy == GAP_ERROR:
        raise GapError(
            f"missing-value sentinel at observation {gaps[0] + 1} "
            f"and gap policy is '{GAP_ERROR}'"
        )
    known = [i for i, v in enumerate(values) if v is not None]
    if not known:
        raise GapError("every observation is a missing-value sentinel")
    if gaps[0] < known[0] or gaps[-1] > known[-1]:
        raise GapError("cannot interpolate a gap at the start or end of the series")
    filled = np.interp(
        np.arange(len(values), dtype=float),
        np.asarray(known, dtype=float),
        np.asarray([values[i] for i in known], dtype=float),
    )
    return list(filled)


def save_series_csv(series: TimeSeries, path) -> None:
    """Write a ``time,value`` CSV that parses back to the same values."""
    lines = ["time,value"]
    for j, v in enumerate(series.values):
        lines.append(f"{series.time_at(j)},{format_float(v)}")
    write_text(path, "\n".join(lines) + "\n")


def save_predictions_csv(observed: TimeSeries, predicted, path) -> None:
    """Write one ``time,observed,predicted`` row per observed value."""
    rows = ["time,observed,predicted"]
    for j, (obs, pred) in enumerate(zip(observed.values, predicted)):
        rows.append(f"{observed.time_at(j)},{format_float(obs)},{format_float(pred)}")
    write_text(path, "\n".join(rows) + "\n")


def load_predictions_csv(path) -> tuple[TimeSeries, np.ndarray]:
    """The observed series and the predictions of a predictions CSV, whose
    times must be uniformly spaced like a series CSV's."""
    times, observed, predicted = [], [], []
    for lineno, parts in _csv_rows(path, "predictions file"):
        if parts[0].lower() == "time":
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'time,observed,predicted'")
        times.append(_parse_time(parts[0], lineno))
        observed.append(_parse_float(parts[1], lineno))
        predicted.append(_parse_float(parts[2], lineno))
    if not observed:
        raise EmptyFile(f"{path}: no prediction rows")
    return (TimeSeries(np.asarray(observed), start_time=times[0], step=_uniform_step(times)),
            np.asarray(predicted))


def save_pairs_csv(dataset: EmbeddedDataset, path) -> None:
    """Write each embedded pair as its window values followed by its target."""
    lines = [f"# embedded pairs r={dataset.r} horizon={dataset.horizon}"]
    for x, t in zip(dataset.inputs, dataset.targets):
        lines.append(",".join(format_float(v) for v in (*x, t)))
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
    """The model document: one line per field in order, arrays and floats as
    numerals, a 2-D array preceded by its ``*_shape`` line, then the checksum."""
    lines = [f"{MODEL_HEADER} {MODEL_VERSION}"]
    for key, value in fields.items():
        if isinstance(value, np.ndarray):
            if value.ndim == 2:
                lines.append(f"{key}_shape = {value.shape[0]},{value.shape[1]}")
            value = ",".join(format_float(v) for v in value.ravel())
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
        raise CorruptFile(f"field {key!r} has malformed value {fields[key]!r}") from None


def _array(fields: dict[str, str], key: str, finite: bool = True) -> np.ndarray:
    arr = _field(fields, key, lambda raw: np.array([float(tok) for tok in raw.split(",")]))
    if finite and not np.all(np.isfinite(arr)):
        raise CorruptFile(f"field {key!r} holds a non-finite value")
    return arr


def _matrix(fields: dict[str, str], key: str) -> np.ndarray:
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


def _read_network(fields: dict[str, str], prefix: str) -> AdaptiveNetwork:
    return AdaptiveNetwork(
        train_inputs=_matrix(fields, f"{prefix}_inputs"),
        train_targets=_array(fields, f"{prefix}_targets"),
        k=_field(fields, f"{prefix}_k", int),
        kernel=KernelKind.from_name(_field(fields, f"{prefix}_kernel", str)),
        bandwidths=_array(fields, f"{prefix}_bandwidths"),
    )


def _belpm_fields(model: BelpmModel, embedding) -> dict:
    # The model carries its own embedding, so ``embedding`` goes unused.
    return {
        "embedding_r": model.r,
        "embedding_horizon": model.horizon,
        **_network_fields("bl", model.bl),
        **_network_fields("mo", model.mo),
        "cm_w": np.array([model.cm.w1, model.cm.w2, model.cm.w3]),
        "train_lr": model.config.lr,
        "train_epochs": model.config.epochs,
        "train_ridge": model.config.ridge,
    }


def _read_belpm(fields: dict[str, str]) -> BelpmModel:
    cm_w = _array(fields, "cm_w")
    if cm_w.size != 3:
        raise CorruptFile(f"field 'cm_w' holds {cm_w.size} values, expected 3")
    bl, mo = _read_network(fields, "bl"), _read_network(fields, "mo")
    return BelpmModel(
        r=_field(fields, "embedding_r", int),
        horizon=_field(fields, "embedding_horizon", int),
        bl=bl,
        mo=mo,
        cm=CmWeights(*cm_w.tolist()),
        config=BelpmConfig(
            k_a=bl.k,
            k_o=_field(fields, "mo_k", int),
            bl_kernel=bl.kernel,
            mo_kernel=mo.kernel,
            lr=_field(fields, "train_lr"),
            epochs=_field(fields, "train_epochs", int),
            ridge=_field(fields, "train_ridge"),
        ),
    )


def _wknn_fields(model: WknnModel, embedding) -> dict:
    r, horizon = embedding or (model.dim, 1)
    return {"embedding_r": r, "embedding_horizon": horizon, "k": model.k,
            "inputs": model.train_inputs, "targets": model.train_targets}


def _read_wknn(fields: dict[str, str]) -> WknnModel:
    return WknnModel(train_inputs=_matrix(fields, "inputs"),
                     train_targets=_array(fields, "targets"),
                     k=_field(fields, "k", int))


def _classic_fields(model: ClassicBelModel, embedding) -> dict:
    r, horizon = embedding or (model.dim, 1)
    return {"embedding_r": r, "embedding_horizon": horizon, "v": model.v, "w": model.w,
            "alpha": model.alpha, "beta": model.beta}


def _read_classic(fields: dict[str, str]) -> ClassicBelModel:
    # Training can diverge to non-finite weights; they load as saved.
    return ClassicBelModel(v=_array(fields, "v", finite=False),
                           w=_array(fields, "w", finite=False),
                           alpha=_field(fields, "alpha"), beta=_field(fields, "beta"))


class ModelKind(NamedTuple):
    """A model class and its model-file fields: ``to_fields(model, embedding)``
    gives the fields after ``kind``, ``from_fields(fields)`` rebuilds the model."""

    cls: type
    to_fields: Callable[[Any, tuple[int, int] | None], dict]
    from_fields: Callable[[dict[str, str]], Any]


MODEL_KINDS = {
    "belpm": ModelKind(BelpmModel, _belpm_fields, _read_belpm),
    "wknn": ModelKind(WknnModel, _wknn_fields, _read_wknn),
    "classic_bel": ModelKind(ClassicBelModel, _classic_fields, _read_classic),
}


def kind_of(model) -> str:
    """The ``MODEL_KINDS`` name of a model; ``InvalidParameter`` for anything else."""
    for name, kind in MODEL_KINDS.items():
        if type(model) is kind.cls:
            return name
    raise InvalidParameter(f"{type(model).__name__} is not a model kind")


def save_model(model, path, embedding: tuple[int, int] | None = None) -> None:
    """Serialize a model (any of the kinds) to a versioned text file.

    ``embedding`` records (r, horizon) for kinds that do not carry them
    intrinsically; it defaults to the model's feature dimension and horizon 1.
    """
    name = kind_of(model)
    write_text(path, _render({"kind": name, **MODEL_KINDS[name].to_fields(model, embedding)}))


def _parse_document(path) -> dict[str, str]:
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
    fields: dict[str, str] = {}
    for line in lines[1:-1]:
        if not line.strip():
            continue
        if " = " not in line:
            raise CorruptFile(f"{path}: malformed line {line!r}")
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
