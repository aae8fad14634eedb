import ast
import math
from pathlib import Path

import pytest

import talkover
from talkover.errors import LabelError, ManifestError
from talkover.textio import (json_line, parse_json, read_json, write_csv, write_json,
                             write_jsonl)

SRC = Path(talkover.__file__).resolve().parent


def test_write_json_sorts_keys_indents_by_two_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 0.5, "a": [1, "x"], "c": None})
    assert path.read_bytes() == (b'{\n  "a": [\n    1,\n    "x"\n  ],\n'
                                 b'  "b": 0.5,\n  "c": null\n}\n')


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_non_finite_floats_before_opening(tmp_path, bad):
    path = tmp_path / "t.json"
    with pytest.raises(ValueError):
        write_json(path, {"x": [1.0, bad]})
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_json_line_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        json_line({"x": bad})


def test_write_jsonl_writes_one_sorted_object_per_line(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, iter([{"b": 1, "a": "x"}, {"c": [2.5, None]}]))
    assert path.read_bytes() == b'{"a": "x", "b": 1}\n{"c": [2.5, null]}\n'
    assert json_line({"b": 1, "a": "x"}) == '{"a": "x", "b": 1}'


def test_write_jsonl_of_no_objects_is_empty(tmp_path):
    write_jsonl(tmp_path / "t.jsonl", [])
    assert (tmp_path / "t.jsonl").read_bytes() == b""


def test_write_csv_ends_rows_in_crlf_and_quotes_as_the_csv_module(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["id", "value"], iter([["a", 1], ["b,c", "0.25"], ['say "hi"', ""]]))
    assert path.read_bytes() == (b'id,value\r\na,1\r\n"b,c",0.25\r\n'
                                 b'"say ""hi""",\r\n')


def test_write_csv_of_no_rows_is_its_header(tmp_path):
    write_csv(tmp_path / "t.csv", ["x"], [])
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\n"


def test_read_json_returns_the_document(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"a": [1, 2]})
    assert read_json(path, ManifestError) == {"a": [1, 2]}


def test_parse_json_reads_finite_numbers():
    assert parse_json('{"a": [1, -2.5e3, 1e308], "b": null}') == {"a": [1, -2500.0, 1e308],
                                                                  "b": None}


@pytest.mark.parametrize("text", ["NaN", "[Infinity]", '{"a": -Infinity}', "1e400", "[-1e400]"])
def test_parse_json_refuses_non_finite_numbers(text):
    with pytest.raises(ValueError, match="is not a finite number"):
        parse_json(text)


@pytest.mark.parametrize("depth, parses", [(500, True), (1000, False), (100000, False)])
@pytest.mark.parametrize("open_, value, close", [("[", "", "]"), ('{"a": ', "1", "}")],
                         ids=["arrays", "objects"])
def test_parse_json_refuses_nesting_past_the_recursion_limit(depth, parses, open_, value,
                                                             close):
    text = open_ * depth + value + close * depth
    if parses:
        assert parse_json(text) is not None
    else:
        with pytest.raises(ValueError, match="^JSON nested too deeply$"):
            parse_json(text)


@pytest.mark.parametrize("error", [ManifestError, LabelError])
@pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}", b"", b'{"a": NaN}'])
def test_read_json_raises_the_callers_family_naming_the_path(tmp_path, error, content):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    with pytest.raises(error, match="^%s: " % str(path).replace("\\", "\\\\")):
        read_json(path, error)


def _text_format_calls(tree):
    """(line, name) of each json.dump, json.dumps, json.load, json.loads
    and csv.writer use."""
    banned = {("json", "dump"), ("json", "dumps"), ("json", "load"), ("json", "loads"),
              ("csv", "writer")}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in banned):
            found.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "%s.%s" % (node.module, alias.name))
                      for alias in node.names if (node.module, alias.name) in banned]
    return found


def test_only_textio_writes_json_and_csv():
    """No module but textio.py writes JSON or CSV, or reads JSON."""
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "textio.py" in modules and len(modules) > 5
    offenders = {}
    for path in modules:
        if path.name != "textio.py":
            calls = _text_format_calls(ast.parse(path.read_text(), str(path)))
            if calls:
                offenders[path.name] = calls
    assert offenders == {}


def test_the_guard_sees_each_banned_writer():
    tree = ast.parse("import csv, json\nfrom json import dumps, loads\n"
                     "json.dump(1, f)\nw = csv.writer(f)\ns = json.dumps(1)\n"
                     "d = json.load(f)\nd = json.loads(s)\n")
    assert sorted(_text_format_calls(tree)) == [
        (2, "json.dumps"), (2, "json.loads"), (3, "json.dump"), (4, "csv.writer"),
        (5, "json.dumps"), (6, "json.load"), (7, "json.loads")]


def _text_opens_without_utf8(tree):
    """Line of each text-mode open() call that does not pass
    encoding="utf-8"; a mode holding "b" is binary and exempt."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in mode.value:
            continue
        encoding = keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
            found.append(node.lineno)
    return found


def test_every_text_open_is_utf8():
    """Text files are read and written as UTF-8 whatever the locale."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _text_opens_without_utf8(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_the_guard_sees_each_text_open_without_utf8():
    tree = ast.parse("open(path)\nopen(path, 'w')\nopen(path, newline='')\n"
                     "open(path, encoding='latin-1')\nopen(path, mode='r', encoding=enc)\n"
                     "open(path, 'rb')\nopen(path, mode='wb')\nopen(path, 'r+b')\n"
                     "open(path, 'w', encoding='utf-8', newline='')\n"
                     "open(path, encoding='utf-8')\n")
    assert _text_opens_without_utf8(tree) == [1, 2, 3, 4, 5]


def _command_returns(tree):
    """(line, name) of each return with a value in the body of a
    top-level cmd_* function; functions nested in it may return."""
    def own_returns(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Return) and child.value is not None:
                yield child.lineno
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from own_returns(child)
    return [(line, node.name) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
            for line in own_returns(node)]


def test_commands_return_nothing_so_main_owns_the_exit_code():
    """A command succeeds by returning and fails by raising; only main
    turns either into an exit code."""
    assert _command_returns(ast.parse((SRC / "cli.py").read_text())) == []


def test_the_guard_sees_a_command_returning_a_value():
    tree = ast.parse("def cmd_a(args):\n    def score(x):\n        return x\n    return\n"
                     "def cmd_b(args):\n    if args:\n        return 0\n"
                     "def helper():\n    return 1\n")
    assert _command_returns(tree) == [(7, "cmd_b")]
    # a copy of cli.py whose every command ends in `return 0`
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 8
    for node in commands:
        node.body.append(ast.Return(ast.Constant(0), lineno=node.end_lineno + 1))
    assert _command_returns(tree) == [(node.end_lineno + 1, node.name) for node in commands]
