"""The program's text formats, each written in one place: JSON with
sorted keys, indent 2 and a final newline; sorted-key JSON lines; and
CSV as the csv module writes it, rows ending in \\r\\n. JSON is read in
one place too, by parse_json, which refuses what write_json refuses."""
import csv
import json
import math


def json_line(obj) -> str:
    """One sorted-key JSON object on one line, without its newline."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def write_json(path, obj) -> None:
    """A non-finite float raises ValueError before the file is opened."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_jsonl(path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_line(obj) + "\n" for obj in objs)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%s is not a finite number" % text)
    return value


# one decoder for every read: json.loads with these hooks builds a new one per call
_STRICT = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def parse_json(text):
    """The JSON document in text. NaN, Infinity, -Infinity, a number
    past the float range (1e400) and deep nesting raise ValueError."""
    try:
        return _STRICT.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_json(path, error):
    """The document at path; bad bytes or JSON raise error("<path>: <reason>")."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_json(fh.read())
        except ValueError as exc:
            raise error("%s: %s" % (path, exc)) from None
