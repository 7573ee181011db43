"""Evidence and result serialization, schema errors, and text rendering."""

import json

import pytest

from ivbel import (
    EvidenceFile,
    Frame,
    IntervalMassResult,
    SchemaError,
    evidence_to_json,
    load_evidence,
    parse_evidence,
    result_from_json,
    result_to_json,
)
from ivbel.formats import render_csv, render_intervals_table, render_table
from ivbel.reproduce import load_bundled


def minimal(**overrides):
    data = {
        "format": 1,
        "frame": ["A", "B"],
        "bodies": [
            {
                "name": "m1",
                "masses": [
                    {"set": ["A"], "lo": 0.2, "hi": 0.6},
                    {"set": ["A", "B"], "mass": 0.4},
                ],
            }
        ],
    }
    data.update(overrides)
    return data


class TestParseEvidence:
    def test_minimal_document(self):
        ev = parse_evidence(minimal())
        assert ev.frame.labels == ("A", "B")
        [(name, body)] = ev.bodies
        assert name == "m1"
        assert body.interval(ev.frame.singleton("A")) == (0.2, 0.6)
        # "mass" is shorthand for a degenerate interval.
        assert body.interval(ev.frame.full_set) == (0.4, 0.4)

    def test_body_names_default_to_position(self):
        data = minimal()
        del data["bodies"][0]["name"]
        data["bodies"].append({"masses": [{"set": ["B"], "mass": 1.0}]})
        ev = parse_evidence(data)
        assert [name for name, _ in ev.bodies] == ["m1", "m2"]

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.update(format=2), "$.format"),
            (lambda d: d.update(extra=1), "$"),
            (lambda d: d.update(frame=[]), "$.frame"),
            (lambda d: d.update(frame=["A", 3]), "$.frame[1]"),
            (lambda d: d.update(frame=["A", "A"]), "$.frame"),
            (lambda d: d.update(bodies=[]), "$.bodies"),
            (lambda d: d["bodies"][0].pop("masses"), "$.bodies[0]"),
            (lambda d: d["bodies"][0].update(name=""), "$.bodies[0].name"),
            (
                lambda d: d["bodies"][0]["masses"][0].update(set=["Z"]),
                "$.bodies[0].masses[0].set",
            ),
            (
                lambda d: d["bodies"][0]["masses"][0].update(lo=1.5),
                "$.bodies[0].masses[0].lo",
            ),
            (
                lambda d: d["bodies"][0]["masses"][0].update(mass=0.5),
                "$.bodies[0].masses[0]",
            ),
            (
                lambda d: d["bodies"][0]["masses"][1].update(set=["A", "B", "B"]),
                "$.bodies[0].masses[1].set",
            ),
        ],
    )
    def test_schema_violations_name_the_field(self, mutate, path):
        data = minimal()
        mutate(data)
        with pytest.raises(SchemaError) as err:
            parse_evidence(data)
        assert str(err.value).startswith(path + ":")

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_must_be_an_integer(self, version):
        # True == 1 and 1.0 == 1, but neither is the integer version.
        data = minimal()
        data["format"] = version
        with pytest.raises(SchemaError, match=rf"^\$\.format: unsupported format {version!r}"):
            parse_evidence(data)

    def test_duplicate_focal_set(self):
        data = minimal()
        data["bodies"][0]["masses"].append({"set": ["A"], "mass": 0.1})
        with pytest.raises(SchemaError, match=r"duplicate focal set \{A\}"):
            parse_evidence(data)

    def test_duplicate_body_name(self):
        data = minimal()
        data["bodies"].append(
            {"name": "m1", "masses": [{"set": ["B"], "mass": 1.0}]}
        )
        with pytest.raises(SchemaError, match="duplicate body name 'm1'"):
            parse_evidence(data)

    def test_lo_above_hi(self):
        data = minimal()
        data["bodies"][0]["masses"][0].update(lo=0.7, hi=0.6)
        with pytest.raises(SchemaError, match="lo 0.7 exceeds hi 0.6"):
            parse_evidence(data)

    def test_interval_needs_both_bounds(self):
        data = minimal()
        del data["bodies"][0]["masses"][0]["hi"]
        with pytest.raises(SchemaError, match="need both 'lo' and 'hi'"):
            parse_evidence(data)


class TestFiles:
    def test_load_and_round_trip(self, tmp_path):
        path = tmp_path / "evidence.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        ev = load_evidence(path)
        again = parse_evidence(evidence_to_json(ev))
        assert again == ev

    def test_invalid_json_mentions_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": 1,\n  "frame": [}', encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON at line 2"):
            load_evidence(path)

    def test_bundled_corpus_parses(self):
        for name in ("example31", "example32", "example33", "example4", "example5", "example6"):
            ev = load_bundled(name)
            assert isinstance(ev, EvidenceFile)
            assert len(ev.bodies) == 2


class TestResultJson:
    def test_round_trip_with_all_fields(self):
        frame = Frame(("A", "B"))
        result = IntervalMassResult(
            frame,
            ((frame.singleton("A"), 1 / 3, 2 / 3), (frame.full_set, 0.1, 0.5)),
            includes_empty=(0.0, 0.25),
            normalized=False,
        )
        data = result_to_json(result, method="denoeux")
        back, method = result_from_json(json.loads(json.dumps(data)))
        assert method == "denoeux"
        assert back.frame == frame
        assert back.includes_empty == (0.0, 0.25)
        assert back.normalized is False
        for (f1, lo1, hi1), (f2, lo2, hi2) in zip(result.entries, back.entries):
            assert f1 == f2
            # Full float precision must survive the text round trip.
            assert lo1 == lo2 and hi1 == hi2

    def test_method_and_empty_are_optional(self):
        frame = Frame(("A", "B"))
        result = IntervalMassResult(
            frame, ((frame.full_set, 1.0, 1.0),), includes_empty=None, normalized=True
        )
        data = result_to_json(result)
        assert "method" not in data
        back, method = result_from_json(data)
        assert method is None
        assert back.includes_empty is None

    def test_bad_empty_pair(self):
        data = result_to_json(
            IntervalMassResult(
                Frame(("A",)), ((Frame(("A",)).full_set, 1.0, 1.0),), None, True
            )
        )
        data["empty"] = [0.1]
        with pytest.raises(SchemaError, match=r"\$\.empty"):
            result_from_json(data)


# Upper bounds on {A} and {B} that sum to 0.4: no BPA fits them.
_INVALID_BOUNDS = [{"set": ["A"], "lo": 0, "hi": 0.2}, {"set": ["B"], "lo": 0, "hi": 0.2}]


@pytest.mark.parametrize(
    "changes, where",
    [
        ({"entries": 5}, r"\$\.entries: must be a list"),
        (
            {"entries": [{"set": 5, "lo": 0.2, "hi": 0.7}]},
            r"\$\.entries\[0\]\.set: must be a non-empty list",
        ),
        ({"frame": "ab"}, r"\$\.frame: must be a non-empty list"),
        ({"entries": []}, None),
        ({"empty": [0.5, 0.2]}, r"\$\.empty: lo 0\.5 exceeds hi 0\.2"),
        ({"normalized": "no"}, r"\$\.normalized: must be true or false"),
        ({"format": True}, r"\$\.format: unsupported format True"),
        ({"method": {"x": 1}}, r"\$\.method: must be a string"),
        (
            {
                "frame": ["A", "B"],
                "entries": _INVALID_BOUNDS,
                "empty": None,
                "normalized": True,
                "method": None,
            },
            r"\$\.normalized: true, but the entries are not normalized",
        ),
        (
            {"entries": [], "empty": None, "normalized": True, "method": None},
            r"\$\.normalized: true, but the entries are not normalized",
        ),
    ],
    ids=[
        "entries-not-a-list",
        "set-not-a-list",
        "frame-a-string",
        "no-entries",
        "empty-lo-above-hi",
        "normalized-not-a-bool",
        "format-a-bool",
        "method-not-a-string",
        "normalized-claimed-for-invalid-bounds",
        "normalized-claimed-for-no-entries",
    ],
)
def test_result_json_schema(changes, where):
    frame = Frame(("a", "b"))
    result = IntervalMassResult(frame, ((frame.full_set, 0.2, 0.7),), (0.3, 0.8))
    data = result_to_json(result, method="denoeux")
    data.update(changes)
    if where is not None:
        with pytest.raises(SchemaError, match=where):
            result_from_json(data)
        return
    # Total conflict leaves no non-empty entry; the result must round-trip.
    back, method = result_from_json(json.loads(json.dumps(data)))
    assert back.entries == () and back.includes_empty == (0.3, 0.8)
    assert method == "denoeux"


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["set", "lo"], [["{A}", "0.2000"], ["{A,B}", "12.0"]])
        lines = out.splitlines()
        assert lines[0] == "set        lo"
        assert lines[1] == "{A}    0.2000"
        assert lines[2] == "{A,B}    12.0"

    def test_render_intervals_table_golden(self):
        frame = Frame(("A", "B"))
        out = render_intervals_table(
            frame, ((frame.singleton("A"), 0.2, 2 / 3), (frame.full_set, 0.0, 1.0))
        )
        assert out == (
            "focal set      lo      hi\n"
            "{A}        0.2000  0.6667\n"
            "{A,B}      0.0000  1.0000"
        )

    def test_render_csv_full_precision(self):
        out = render_csv("method", [("wang", "{A}", 1 / 3, 2 / 3)])
        lines = out.splitlines()
        assert lines[0] == "method,focal_set,lo,hi"
        assert lines[1] == f"wang,{{A}},{1 / 3!r},{2 / 3!r}"

    def test_render_csv_quotes_commas(self):
        out = render_csv("body", [("m1", "{A,B}", 0.0, 1.0)])
        assert '"{A,B}"' in out.splitlines()[1]
