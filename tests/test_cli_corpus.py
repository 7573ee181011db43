"""Every invocation of the CLI golden corpus prints what ``tests/golden/cli.txt``
records, byte for byte (see ``tests/cli_corpus.py``)."""

import pytest

from cli_corpus import GOLDEN, changed_headers, how_changed, parse, render, write_inputs


def first_difference(expected: list[str], actual: list[str]) -> str | None:
    """The first record that differs, named by its header, with its first
    differing line; None when the two corpora agree."""
    for want, got in zip(expected, actual):
        if want == got:
            continue
        header = got.split("\n", 1)[0]
        if want.split("\n", 1)[0] != header:
            return f"invocation list differs: expected {want.splitlines()[0]!r}, ran {header!r}"
        want_lines, got_lines = want.split("\n"), got.split("\n")
        for i, (w, g) in enumerate(zip(want_lines, got_lines)):
            if w != g:
                return f"{header}\n  line {i}: expected {w!r}\n  line {i}:      got {g!r}"
        i = min(len(want_lines), len(got_lines))
        extra = "expected" if len(want_lines) > i else "got"
        line = (want_lines if extra == "expected" else got_lines)[i]
        return f"{header}\n  line {i}: only {extra} {line!r}"
    if len(expected) != len(actual):
        return f"{len(expected)} recorded invocations, {len(actual)} run"
    return None


def test_outputs_match_the_golden_file(tmp_path):
    write_inputs(tmp_path)
    difference = first_difference(parse(GOLDEN.read_text(encoding="utf-8")), render(tmp_path))
    if difference is not None:
        pytest.fail(f"{difference}\nregenerate with: PYTHONPATH=src python tests/cli_corpus.py")


def test_first_difference_names_invocation_and_line():
    expected = ["### ivbel a\nexit 0\n1|x", "### ivbel b\nexit 0\n1|y\n1|z"]
    assert first_difference(expected, expected) is None
    actual = ["### ivbel a\nexit 0\n1|x", "### ivbel b\nexit 0\n1|y\n1|w"]
    assert first_difference(expected, actual) == (
        "### ivbel b\n  line 3: expected '1|z'\n  line 3:      got '1|w'"
    )
    assert "only expected '1|z'" in first_difference(expected, [expected[0], expected[1][:-4]])
    assert "2 recorded invocations, 1 run" == first_difference(expected, expected[:1])


def test_changed_headers_names_changed_added_and_dropped_records():
    old = ["### ivbel a\nexit 0\n1|x", "### ivbel b\nexit 0", "### ivbel c\nexit 1"]
    assert changed_headers(old, old) == []
    new = ["### ivbel a\nexit 0\n1|y", "### ivbel b\nexit 0", "### ivbel d\nexit 0"]
    assert changed_headers(old, new) == ["### ivbel a", "### ivbel d", "### ivbel c"]
    assert changed_headers([], new[:1]) == ["### ivbel a"]


def test_how_changed_tells_moved_floats_from_changed_text():
    old = "### ivbel a\nexit 0\n1|A1 [0.3, 0.7] 1e-16 57/60"
    assert how_changed(old, old) == "numbers only, max |Δ| = 0"
    moved = old.replace("0.7]", "0.7000000000000001]").replace("1e-16", "2e-16")
    assert how_changed(old, moved) == "numbers only, max |Δ| = 1.1e-16"
    for edit in (("A1", "A2"), ("exit 0", "exit 2"), ("57/", "56/"), ("0.3", "x")):
        assert how_changed(old, old.replace(*edit)) == "text changed", edit
    assert how_changed(old, old + "\n1|0.5") == "text changed"
    assert how_changed(None, old) == how_changed(old, None) == "text changed"
