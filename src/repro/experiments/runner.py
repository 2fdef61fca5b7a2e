"""Shared helpers for the experiment harnesses: result containers,
plain-text table rendering (the benchmarks print the same rows/series the
paper's tables and figures report) and JSON/CSV artifact serialization used
by the ``python -m repro`` pipeline."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.ioutil import atomic_write_bytes

__all__ = [
    "ExperimentResult",
    "format_table",
    "format_series",
    "atomic_write_text",
    "write_json_artifact",
    "write_csv_artifact",
    "SMOKE_TRACE",
    "SMOKE_TRAINING",
]

#: Smoke scale of the scene-trace experiments (Fig. 7/9/11/12/13): one
#: 384-ray trace, so the lego experiments share a single training batch.
SMOKE_TRACE = {"rays": 384, "probe_samples": 96}
#: Smoke scale of the training experiments (Table IV/V): a few iterations
#: on tiny images.
SMOKE_TRAINING = {
    "image_size": 12,
    "num_train_views": 2,
    "iterations": 8,
    "rays_per_batch": 48,
    "samples_per_ray": 12,
}


def _plain(value):
    """Convert numpy scalars/arrays and other exotic values to plain Python."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, AttributeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class ExperimentResult:
    """A reproduced table or figure.

    Attributes
    ----------
    experiment_id:
        Paper reference, e.g. ``"Fig. 6"`` or ``"Table IV"``.
    description:
        One-line description of what is reproduced.
    rows:
        List of row dictionaries (column name -> value).
    notes:
        Free-form notes (scale-downs, substitutions, expected shape).
    """

    experiment_id: str
    description: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        try:
            return [row[name] for row in self.rows]
        except KeyError:
            available = sorted({col for row in self.rows for col in row})
            raise KeyError(
                f"unknown column {name!r} in {self.experiment_id}; "
                f"available columns: {', '.join(available) or '(none)'}"
            ) from None

    def to_text(self) -> str:
        header = f"{self.experiment_id}: {self.description}"
        table = format_table(self.rows)
        parts = [header, table]
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-Python dictionary form (numpy scalars converted)."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "rows": [_plain(row) for row in self.rows],
            "notes": self.notes,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON artifact text; round-trips through :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            description=payload["description"],
            rows=[dict(row) for row in payload.get("rows", [])],
            notes=payload.get("notes", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        """CSV rendering of the rows (union of all columns, row order kept)."""
        columns: list[str] = []
        for row in self.rows:
            for col in row:
                if col not in columns:
                    columns.append(col)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({col: _plain(row.get(col, "")) for col in columns})
        return buffer.getvalue()


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: list[dict]) -> str:
    """Render a list of row dicts as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines.extend("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered)
    return "\n".join(lines)


def format_series(name: str, values: list[float], precision: int = 3) -> str:
    """Render a named numeric series on one line (for figure-style output)."""
    formatted = ", ".join(f"{v:.{precision}g}" for v in values)
    return f"{name}: [{formatted}]"


def atomic_write_text(path: str | Path, text: str, overwrite: bool = False) -> Path:
    """Atomically write ``text`` to ``path``, creating parent directories.

    The text lands in a temporary file in the destination directory and is
    renamed into place, so a killed run never leaves a truncated artifact.
    Rewriting a file with identical content is a no-op; a *differing*
    existing file is refused unless ``overwrite=True`` — silently clobbering
    a prior run's artifact hides that two runs disagreed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        try:
            existing = path.read_text()
        except (OSError, UnicodeDecodeError):
            existing = None
        if existing == text:
            return path
        if not overwrite:
            raise FileExistsError(
                f"refusing to overwrite {path} with differing content "
                "(pass overwrite=True / --force, or write to a fresh directory)"
            )
    return atomic_write_bytes(path, text.encode())


def write_json_artifact(
    result: ExperimentResult, path: str | Path, overwrite: bool = False
) -> Path:
    """Write ``result`` as a JSON artifact (atomic, parents created)."""
    return atomic_write_text(path, result.to_json() + "\n", overwrite=overwrite)


def write_csv_artifact(
    result: ExperimentResult, path: str | Path, overwrite: bool = False
) -> Path:
    """Write ``result``'s rows as a CSV artifact (atomic, parents created)."""
    return atomic_write_text(path, result.to_csv(), overwrite=overwrite)
