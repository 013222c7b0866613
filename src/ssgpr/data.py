"""Dataset ingestion, preprocessing, and scenario-aware share splitting.

The three deployment scenarios (HDS: rows split across owners, VDS:
feature columns split, PDS: a model user owns the test inputs) all reduce
to the same per-element sharing, so reconstructed computations cannot
depend on the ownership partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import FixedPointCodec
from .sharing import share_reals

HDS = "hds"
VDS = "vds"
PDS = "pds"


class IngestError(ValueError):
    pass


class PartitionError(ValueError):
    pass


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise IngestError("X and y row counts differ")
        if self.X.size == 0:
            raise IngestError("empty dataset")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class Preprocessing:
    """Public normalization statistics recorded at ingestion."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_shift: float

    def apply_x(self, x) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=np.float64)) - self.x_mean) / self.x_scale


def standardize(dataset: Dataset, normalize: bool = True):
    """Zero-mean/unit-variance features and a centered output.

    The statistics are treated as public. A constant feature cannot be
    standardized and is reported as an error naming the column.
    """
    if not normalize:
        stats = Preprocessing(np.zeros(dataset.d), np.ones(dataset.d), 0.0)
        return dataset, stats
    mean = dataset.X.mean(axis=0)
    std = dataset.X.std(axis=0)
    bad = np.flatnonzero(std == 0.0)
    if bad.size:
        raise IngestError(f"zero-variance feature column {int(bad[0])} "
                          "cannot be standardized")
    y_shift = float(dataset.y.mean())
    out = Dataset((dataset.X - mean) / std, dataset.y - y_shift)
    return out, Preprocessing(mean, std, y_shift)


def read_matrix(path: str, has_header: bool = False, delimiter: str = ",") -> np.ndarray:
    """Read a rectangular numeric CSV, reporting the location of bad cells."""
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if has_header:
        lines = lines[1:]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise IngestError(f"{path}: no data rows")
    width = None
    for i, line in enumerate(lines):
        cells = [c.strip() for c in line.split(delimiter)]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise IngestError(f"{path}: row {i + 1} has {len(cells)} cells, expected {width}")
        parsed = []
        for j, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise IngestError(f"{path}: non-numeric cell at row {i + 1}, "
                                  f"column {j + 1}: {cell!r}") from None
        rows.append(parsed)
    return np.asarray(rows, dtype=np.float64)


def ingest_csv(path: str, has_header: bool = False, target_col: int = -1,
               delimiter: str = ",") -> Dataset:
    """Read a numeric CSV into a Dataset (features + one target column)."""
    data = read_matrix(path, has_header, delimiter)
    if data.shape[1] < 2:
        raise IngestError(f"{path}: need at least one feature and one target column")
    t = target_col % data.shape[1]
    y = data[:, t]
    X = np.delete(data, t, axis=1)
    return Dataset(X, y)


@dataclass
class ScenarioSplit:
    """Ownership description for one run; validated, then shared per-element."""

    scenario: str = HDS
    row_ranges: list = field(default_factory=list)
    col_ranges: list = field(default_factory=list)


def _check_partition(ranges, total: int, what: str):
    if not ranges:
        ranges = [(0, total)]
    spans = sorted((int(a), int(b)) for a, b in ranges)
    pos = 0
    for a, b in spans:
        if a != pos or b <= a:
            raise PartitionError(f"{what} partition has a gap or overlap at index {pos}")
        pos = b
    if pos != total:
        raise PartitionError(f"{what} partition covers {pos} of {total} indices")


def split_scenario(dataset: Dataset, x_star, split: ScenarioSplit,
                   codec: FixedPointCodec, seed: int):
    """Share every element of X, y, and x* between the compute servers.

    The ownership partition is validated, but the shares themselves are
    generated per element in a canonical order (X row-major, then y, then
    x* row-major) from the seeded stream, so any valid partition of the
    same logical data yields bitwise-identical shares.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
    if split.scenario not in (HDS, VDS, PDS):
        raise PartitionError(f"unknown scenario {split.scenario!r}")
    if split.scenario == HDS:
        _check_partition(split.row_ranges, dataset.n, "row")
    elif split.scenario == VDS:
        _check_partition(split.col_ranges, dataset.d, "column")
    # PDS: training data from one owner, test inputs from the model user.

    rng = np.random.default_rng(np.random.Philox(seed))
    sx = share_reals(dataset.X, codec, rng)
    sy = share_reals(dataset.y, codec, rng)
    ss = share_reals(x_star, codec, rng)
    return ({"X": sx[0], "y": sy[0], "x_star": ss[0]},
            {"X": sx[1], "y": sy[1], "x_star": ss[1]})
