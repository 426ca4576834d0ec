"""Result records, JSON schema conformance, and CSV emission."""

import csv
import json
import math
import sys

import jsonschema
import pytest

from boselgt.partition import LOG_MAX_DOUBLE, LOG_MIN_NORMAL, Estimate
from boselgt.records import (OUTPUT_DIR_ENV, ResultRecord,
                             default_output_dir, estimate_payload, format_cell,
                             load_schema, safe_value, utc_now_iso, write_csv)


def make_record(**kw):
    base = dict(command="z-bond", config={"n": 1, "coupling": 2.0},
                payload={"log_value": -1.5}, wall_time_s=0.25)
    base.update(kw)
    return ResultRecord(**base)


def test_round_trip(tmp_path):
    rec = make_record()
    path = rec.write(tmp_path / "sub" / "r.json")
    assert path.exists()
    back = ResultRecord.load(path)
    assert back == rec


def test_record_passes_schema():
    schema = load_schema()
    jsonschema.validate(make_record().to_dict(), schema)


def test_schema_rejects_malformed_documents():
    schema = load_schema()
    good = make_record().to_dict()
    for breakage in (
        {"command": ""},                    # empty command
        {"schema_version": 2},              # wrong version
        {"wall_time_s": -1.0},              # negative time
        {"created_utc": "yesterday"},       # not a timestamp
        {"config": "n=1"},                  # not an object
    ):
        doc = dict(good)
        doc.update(breakage)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
    missing = dict(good)
    del missing["payload"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(missing, schema)
    extra = dict(good)
    extra["surprise"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extra, schema)


def test_created_utc_format():
    stamp = utc_now_iso()
    assert stamp[:2] == "20"
    assert "T" in stamp and stamp.endswith("+00:00")


def test_safe_value_clamps():
    # null exactly when exp(log) is not a normal double: the edges are
    # ln(smallest normal) = -708.40 and ln(largest double) = 709.78.
    assert safe_value(0.0) == 1.0
    assert safe_value(-2.0) == pytest.approx(math.exp(-2.0))
    assert safe_value(LOG_MAX_DOUBLE) == pytest.approx(sys.float_info.max, rel=1e-13)
    assert safe_value(LOG_MIN_NORMAL) >= sys.float_info.min
    assert safe_value(LOG_MIN_NORMAL) == pytest.approx(sys.float_info.min, rel=1e-13)
    for log_value in (705.0, -705.0):   # null up to the 700 cut of old
        assert safe_value(log_value) == math.exp(log_value)
    assert safe_value(math.nextafter(LOG_MAX_DOUBLE, math.inf)) is None
    assert safe_value(math.nextafter(LOG_MIN_NORMAL, -math.inf)) is None
    assert math.exp(math.nextafter(LOG_MIN_NORMAL, -math.inf)) < sys.float_info.min
    for log_value in (1000.0, -745.0, -1000.0, math.nan):
        assert safe_value(log_value) is None


def test_estimate_payload_fields():
    est = Estimate(log_value=-3.0, std_error_log=0.1, method="monte-carlo",
                   n_samples=1000, seed=7)
    pay = estimate_payload(est)
    assert pay == {"log_value": -3.0, "value": pytest.approx(math.exp(-3.0)),
                   "std_error": pytest.approx(0.1 * math.exp(-3.0), rel=1e-15),
                   "method": "monte-carlo",
                   "n_samples": 1000, "seed": 7}
    huge = estimate_payload(Estimate.exact(-900.0))
    assert huge["value"] is None


def test_default_output_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert default_output_dir() == tmp_path
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    assert str(default_output_dir()) == "."


def test_csv_floats_round_trip_exactly(tmp_path):
    values = [1.0 / 3.0, math.pi, 0.1 + 0.2, 1e-300, -7.25]
    path = write_csv(tmp_path / "t.csv", ["name", "x"],
                     [(f"row{i}", v) for i, v in enumerate(values)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "x"]
    for (_, text), v in zip(rows[1:], values):
        assert float(text) == v  # 17 significant digits: exact round trip


def test_format_cell():
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(3) == "3"
    assert format_cell("x") == "x"


def test_record_is_valid_json_with_sorted_keys(tmp_path):
    path = make_record().write(tmp_path / "r.json")
    text = path.read_text()
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert text.endswith("\n")
