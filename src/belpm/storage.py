"""File formats: series CSV ingestion/writing and model persistence.

Series CSV: UTF-8, LF or CRLF, '#' comment lines and blank lines ignored,
one observation per line as either ``value`` or ``time,value`` (a literal
``time,value`` header row is tolerated). Times, when present, must be
uniformly spaced integers.

Model file: line-oriented ``key = value`` text under a ``belpm-model v2``
header, arrays as comma-separated 17-significant-digit numerals, matrices
flattened row-major next to a ``*_shape`` key, and a trailing
``checksum = <crc32 hex>`` over every preceding byte. v1 files also carry
the constant ``lo_w`` and ``cm_wa`` weights; they still load, and those two
keys are ignored. The stored training data is part of the model
(memory-based models), so a loaded model predicts bit-identically to the
saved one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import WknnModel
from .classic import ClassicBelModel
from .errors import (
    CorruptFile,
    EmptyFile,
    GapError,
    InvalidParameter,
    ParseError,
    VersionMismatch,
)
from .model import BelpmConfig, BelpmModel, CmWeights
from .network import AdaptiveNetwork, KernelKind
from .series import TimeSeries

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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: cannot parse number {token!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value {token!r}")
    return value


def load_series_csv(source: SeriesFile) -> TimeSeries:
    """Parse a series CSV, applying the sentinel/gap policy."""
    path = Path(source.path)
    text = path.read_text(encoding="utf-8")
    times: list[int | None] = []
    values: list[float | None] = []
    timed: bool | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if timed is None and [p.lower() for p in parts] == ["time", "value"]:
            continue
        if len(parts) == 1:
            t: int | None = None
            v = _parse_float(parts[0], lineno)
        elif len(parts) == 2:
            try:
                t = int(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse time {parts[0]!r}") from None
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
        start_time = times[0]
        if len(times) > 1:
            step = times[1] - times[0]
            if step <= 0:
                raise ParseError("time column must be strictly increasing")
            for i in range(1, len(times)):
                if times[i] - times[i - 1] != step:
                    raise ParseError(
                        f"non-uniform time step at row {i + 1} of the data"
                    )

    filled = _fill_gaps(values, source)
    return TimeSeries(np.asarray(filled), start_time=start_time, step=step)


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
        lines.append(f"{series.time_at(j)},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- model persistence -------------------------------------------------------


@dataclass(frozen=True)
class LoadedModel:
    """A deserialized model plus the embedding shape recorded with it."""

    kind: str
    model: BelpmModel | WknnModel | ClassicBelModel
    r: int
    horizon: int


class _Writer:
    def __init__(self):
        self.lines = [f"{MODEL_HEADER} {MODEL_VERSION}"]

    def put(self, key: str, value) -> None:
        self.lines.append(f"{key} = {value}")

    def put_float(self, key: str, value: float) -> None:
        self.put(key, _fmt(value))

    def put_array(self, key: str, arr: np.ndarray) -> None:
        flat = np.asarray(arr, dtype=np.float64).ravel()
        self.put(key, ",".join(_fmt(v) for v in flat))

    def put_matrix(self, key: str, arr: np.ndarray) -> None:
        mat = np.asarray(arr, dtype=np.float64)
        self.put(f"{key}_shape", f"{mat.shape[0]},{mat.shape[1]}")
        self.put_array(key, mat)

    def render(self) -> bytes:
        body = ("\n".join(self.lines) + "\n").encode("utf-8")
        crc = zlib.crc32(body) & 0xFFFFFFFF
        return body + f"checksum = {crc:08x}\n".encode("utf-8")


def _network_fields(w: _Writer, prefix: str, net: AdaptiveNetwork) -> None:
    w.put(f"{prefix}_kernel", net.kernel.value)
    w.put(f"{prefix}_k", net.k)
    w.put_array(f"{prefix}_bandwidths", net.bandwidths)
    w.put_matrix(f"{prefix}_inputs", net.train_inputs)
    w.put_array(f"{prefix}_targets", net.train_targets)


def save_model(model, path, embedding: tuple[int, int] | None = None) -> None:
    """Serialize a model (any of the three kinds) to a versioned text file.

    ``embedding`` records (r, horizon) for kinds that do not carry them
    intrinsically; it defaults to the model's feature dimension and horizon 1.
    """
    w = _Writer()
    if isinstance(model, BelpmModel):
        w.put("kind", "belpm")
        w.put("embedding_r", model.r)
        w.put("embedding_horizon", model.horizon)
        _network_fields(w, "bl", model.bl)
        _network_fields(w, "mo", model.mo)
        w.put_array("cm_w", np.array([model.cm.w1, model.cm.w2, model.cm.w3]))
        w.put_float("train_lr", model.config.lr)
        w.put("train_epochs", model.config.epochs)
        w.put_float("train_ridge", model.config.ridge)
    elif isinstance(model, WknnModel):
        r, horizon = embedding or (model.dim, 1)
        w.put("kind", "wknn")
        w.put("embedding_r", r)
        w.put("embedding_horizon", horizon)
        w.put("k", model.k)
        w.put_matrix("inputs", model.train_inputs)
        w.put_array("targets", model.train_targets)
    elif isinstance(model, ClassicBelModel):
        r, horizon = embedding or (model.dim, 1)
        w.put("kind", "classic_bel")
        w.put("embedding_r", r)
        w.put("embedding_horizon", horizon)
        w.put_array("v", model.v)
        w.put_array("w", model.w)
        w.put_float("alpha", model.alpha)
        w.put_float("beta", model.beta)
    else:
        raise InvalidParameter(f"cannot serialize {type(model).__name__}")
    Path(path).write_bytes(w.render())


def _parse_document(path) -> dict[str, str]:
    data = Path(path).read_bytes()
    text = data.decode("utf-8")
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


def _get(fields: dict[str, str], key: str, path) -> str:
    try:
        return fields[key]
    except KeyError:
        raise CorruptFile(f"{path}: missing field {key!r}") from None


def _parse(fields: dict[str, str], key: str, path, convert):
    """``convert`` applied to a field's text; a malformed value is a corrupt file."""
    raw = _get(fields, key, path)
    try:
        return convert(raw)
    except ValueError:
        raise CorruptFile(f"{path}: field {key!r} has malformed value {raw!r}") from None


def _read_array(fields: dict[str, str], key: str, path) -> np.ndarray:
    return _parse(fields, key, path,
                  lambda raw: np.array([float(tok) for tok in raw.split(",")]))


def _read_matrix(fields: dict[str, str], key: str, path) -> np.ndarray:
    shape = _parse(fields, f"{key}_shape", path,
                   lambda raw: tuple(int(tok) for tok in raw.split(",")))
    flat = _read_array(fields, key, path)
    if len(shape) != 2 or flat.size != shape[0] * shape[1]:
        raise CorruptFile(f"{path}: field {key!r} does not match its shape")
    return flat.reshape(shape)


def _read_network(fields: dict[str, str], prefix: str, path) -> AdaptiveNetwork:
    return AdaptiveNetwork(
        train_inputs=_read_matrix(fields, f"{prefix}_inputs", path),
        train_targets=_read_array(fields, f"{prefix}_targets", path),
        k=_parse(fields, f"{prefix}_k", path, int),
        kernel=KernelKind.from_name(_get(fields, f"{prefix}_kernel", path)),
        bandwidths=_read_array(fields, f"{prefix}_bandwidths", path),
    )


def load_model_file(path) -> LoadedModel:
    """Read a model file, verify its checksum, and rebuild the model."""
    fields = _parse_document(path)
    kind = _get(fields, "kind", path)
    r = _parse(fields, "embedding_r", path, int)
    horizon = _parse(fields, "embedding_horizon", path, int)
    if kind == "belpm":
        cm_w = _read_array(fields, "cm_w", path)
        bl = _read_network(fields, "bl", path)
        model = BelpmModel(
            r=r,
            horizon=horizon,
            bl=bl,
            mo=_read_network(fields, "mo", path),
            cm=CmWeights(w1=cm_w[0], w2=cm_w[1], w3=cm_w[2]),
            config=BelpmConfig(
                k_a=bl.k,
                k_o=_parse(fields, "mo_k", path, int),
                bl_kernel=KernelKind.from_name(_get(fields, "bl_kernel", path)),
                mo_kernel=KernelKind.from_name(_get(fields, "mo_kernel", path)),
                lr=_parse(fields, "train_lr", path, float),
                epochs=_parse(fields, "train_epochs", path, int),
                ridge=_parse(fields, "train_ridge", path, float),
            ),
        )
    elif kind == "wknn":
        model = WknnModel(
            train_inputs=_read_matrix(fields, "inputs", path),
            train_targets=_read_array(fields, "targets", path),
            k=_parse(fields, "k", path, int),
        )
    elif kind == "classic_bel":
        model = ClassicBelModel(
            v=_read_array(fields, "v", path),
            w=_read_array(fields, "w", path),
            alpha=_parse(fields, "alpha", path, float),
            beta=_parse(fields, "beta", path, float),
        )
    else:
        raise CorruptFile(f"{path}: unknown model kind {kind!r}")
    return LoadedModel(kind=kind, model=model, r=r, horizon=horizon)


def load_model(path):
    """Deserialize just the model object (kind inferred from the file)."""
    return load_model_file(path).model
