"""Result records: one JSON document per command invocation, plus CSV tables.

Every CLI run produces a ResultRecord with the resolved configuration echoed
back, a payload of computed numbers, and the wall time.  Records are plain
JSON validated against the shipped schema (schema/result_record.schema.json).
Values whose magnitude can leave the double range are stored as logs; the
convenience "value" entries are null unless exp(log) is a normal double.

CSV floats are written with 17 significant digits so a round trip through
text recovers the double exactly.
"""

import csv
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .partition import exp_is_normal

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "BOSELGT_OUTPUT_DIR"
FLOAT_FORMAT = "{:.17g}"


def default_output_dir():
    """Directory records land in unless --output says otherwise."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def schema_path():
    return resources.files("boselgt") / "schema" / "result_record.schema.json"


def load_schema():
    with resources.as_file(schema_path()) as p:
        return json.loads(Path(p).read_text())


def utc_now_iso():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ResultRecord:
    command: str
    config: dict
    payload: dict
    wall_time_s: float
    created_utc: str = field(default_factory=utc_now_iso)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return asdict(self)

    def write(self, path, exclusive=False):
        """Write the record to path and return the path written.

        exclusive never replaces a file: if path exists, the record goes to
        the first free <stem>-2<suffix>, <stem>-3<suffix>, ..., each created
        exclusively, so concurrent writers cannot take the same name.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if not exclusive:
            path.write_text(text)
            return path
        target = path
        for i in itertools.count(2):
            try:
                with open(target, "x") as fh:
                    fh.write(text)
                return target
            except FileExistsError:
                target = path.with_name(f"{path.stem}-{i}{path.suffix}")

    @classmethod
    def load(cls, path):
        data = json.loads(Path(path).read_text())
        return cls(**data)


def safe_value(log_value):
    """exp(log_value) when it is a normal double, else None (JSON null)."""
    return float(math.exp(log_value)) if exp_is_normal(log_value) else None


def estimate_payload(est):
    """Serializable payload for a partition Estimate.

    value and std_error are null together, when exp(log_value) is not a
    normal double.
    """
    value = safe_value(est.log_value)
    return {
        "log_value": float(est.log_value),
        "value": value,
        "std_error": None if value is None else float(est.std_error),
        "method": est.method,
        "n_samples": int(est.n_samples),
        "seed": est.seed,
    }


def format_cell(x):
    if isinstance(x, float):
        return FLOAT_FORMAT.format(x)
    return str(x)


def write_csv(path, header, rows):
    """Write rows of mixed scalars; floats carry 17 significant digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(x) for x in row])
    return path
