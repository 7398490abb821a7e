"""Exit-code fuzzer for the command line: mutated instance files exit 0, 1,
2 or 3, never 4 (internal error), and never print a traceback.

Each example takes a valid instance file, applies a few mutations (replace,
delete or wrap a value, add a key, or graft a copy of another part of the
file) at paths drawn from the whole
document, kernel trees included, and runs one evaluating command on it
in-process.  Integers come from a small range, so that no example builds a
large matrix."""

import contextlib
import io as stdio
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from conormal import cli

# a triangle with every kind of named object, kernel trees of all four kinds
_TRIANGLE = {
    "version": 1,
    "complex": {"simplices": [[0, 1], [1, 2], [0, 2]]},
    "sheaves": {
        "k": "constant",
        "dk": {"dual_of": "k"},
        "sk": {"shift_of": "k", "d": 1},
        "edge": {"extend_by_zero": {"of": "k", "upset": ["0.1"]}},
        "s": {"stalks": {"0": {"dims": {"0": 1, "1": 1}, "d": {"0": [[1]]}},
                         "0.1": {"dims": {"0": 1}}},
              "restrictions": [{"from": "0", "to": "0.1", "maps": {"0": [[1]]}}]},
    },
    "maps": {
        "rot": {"vertex_map": {"0": "1", "1": "2", "2": "0"}},
        "ident": {"identity": True},
        "cells": {"cells": {c: c for c in ["0", "1", "2", "0.1", "1.2", "0.2"]},
                  "signs": {c: 1 for c in ["0", "1", "2", "0.1", "1.2", "0.2"]}},
        "pt": {"target": "point"},
    },
    "cycles": {"c": {"0": 1, "0.1": -1}},
    "kernels": {
        "T": {"tk": "k"},
        "E": {"external": [{"tk": "edge"}, {"tk": "s"}]},
        "C": {"compose": [{"external": [{"tk": "k"}, {"tk": "dk"}]},
                          {"external": [{"tk": "edge"}, {"tk": "k"}]}]},
        "W": {"twist": {"of": {"external": [{"tk": "k"}, {"tk": "s"}]}, "d": -2}},
    },
    "lefschetz": {
        "L": {"map": "rot", "sheaf": "k", "scalar": "2/3"},
        "P": {"map": "ident", "sheaf": "s",
              "phi": {"0": {"0": [[3]], "1": [[3]]}, "0.1": {"0": [[3]]}}},
    },
}

# an interval as an explicit poset
_INTERVAL = {
    "complex": {"poset": {"cells": {"a": 0, "b": 0, "e": 1},
                          "incidence": [["e", "a", 1], ["e", "b", -1]]}},
    "sheaves": {"k": "constant",
                "s": {"stalks": {"a": {"dims": {"0": 1}}, "e": {"dims": {"0": 2}}},
                      "restrictions": [{"from": "a", "to": "e",
                                        "maps": {"0": [[1], ["1/2"]]}}]},
                "ds": {"dual_of": "s"}},
    "maps": {"ident": {"identity": True}, "pt": {"target": "point"}},
    "kernels": {"T": {"tk": "s"}, "E": {"external": [{"tk": "k"}, {"tk": "ds"}]},
                "C": {"compose": [{"external": [{"tk": "k"}, {"tk": "s"}]},
                                  {"external": [{"tk": "s"}, {"tk": "k"}]}]},
                "W": {"twist": {"of": {"tk": "ds"}, "d": 1}}},
    "lefschetz": {"L": {"map": "ident", "sheaf": "s"},
                  "P": {"map": "ident", "sheaf": "s",
                        "phi": {"a": {"0": [[1]]}, "e": {"0": [[2, -2], [0, 1]]}}}},
}

_NAMES = ["k", "dk", "s", "edge", "ds", "a", "e", "0", "1", "0.1", "1.2", "pt",
          "ident", "rot", "self", "point", "constant", "T", "E"]
_LEAVES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.5, -1.0, True, False, None, "", "x", "1/2", "1/0", "-1", "2.5"]),
    st.sampled_from(_NAMES),
    st.lists(st.integers(-2, 2), max_size=3),
    st.sampled_from([{}, [], [[1]], [[0, 1]], [[1], [2]], {"0": 1}, {"0": [[1]]},
                     {"dims": {"0": 2}}, {"tk": "k"}, {"tk": "s"},
                     {"external": [{"tk": "k"}, {"tk": "k"}]},
                     {"compose": [{"tk": "k"}, {"tk": "k"}]},
                     {"twist": {"of": {"tk": "k"}, "d": 1}}]))
_COMMANDS = [["validate"], ["chi", "s"], ["cc", "k"], ["dual", "s"], ["compose", "k", "s"],
             ["pushforward", "s", "pt"], ["lefschetz", "L"], ["lefschetz", "P"],
             *(["expand", name] for name in ("T", "E", "C", "W"))]


def _paths(node, path=()):
    """The key path of every value in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, doc):
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    parent = _at(doc, path[:-1])
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "wrap", "add", "graft"]))
    if action == "replace":
        parent[key] = data.draw(_LEAVES)
    elif action == "delete":
        del parent[key]
    elif action == "wrap":
        parent[key] = [parent[key]]
    elif action == "graft":  # a copy of another part of the document
        parent[key] = json.loads(json.dumps(_at(doc, data.draw(st.sampled_from(paths)))))
    elif isinstance(parent[key], dict):
        parent[key][data.draw(st.sampled_from(_NAMES))] = data.draw(_LEAVES)
    elif isinstance(parent[key], list):
        parent[key].append(data.draw(_LEAVES))


def _run(doc, argv):
    """cli.main on doc written to a file: (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], path, *argv[1:]])
    return code, err.getvalue()


def test_every_command_accepts_the_base_files():
    for doc in (_TRIANGLE, _INTERVAL):
        for argv in _COMMANDS:
            assert _run(doc, argv) == (0, ""), argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_files_never_exit_4(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from([_TRIANGLE, _INTERVAL]))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    argv = data.draw(st.sampled_from(_COMMANDS))
    code, err = _run(doc, argv)
    assert code in (0, 1, 2, 3), (code, err, argv, json.dumps(doc))
    assert "Traceback" not in err and "internal error" not in err, (err, argv)
