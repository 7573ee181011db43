"""Command-line interface: every command, output format, and exit code."""

import argparse
import json
import random
from importlib import resources
from pathlib import Path

import pytest

from ivbel import (
    EvidenceFile,
    __version__,
    cli,
    evidence_to_json,
    is_normalized,
    parse_evidence,
    result_from_json,
)
from ivbel.cli import build_parser, main
from ivbel.reproduce import reproduce

from helpers import FRAME_AB, near_conflict_pair, random_input_file

README = Path(__file__).resolve().parents[1] / "README.md"


def bundled(name: str) -> str:
    return str(resources.files("ivbel").joinpath("data", f"{name}.json"))


# The bundled files as text: the fuzz replaces one value in one of them.
BUNDLED_TEXTS = tuple(
    Path(bundled(name)).read_text(encoding="utf-8")
    for name in ("example31", "example32", "example33", "example4", "example5", "example6")
)


def run(capsys, *argv: str):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def three_bodies(tmp_path):
    data = {
        "format": 1,
        "frame": ["A", "B"],
        "bodies": [
            {"name": f"m{i}", "masses": [{"set": ["A"], "lo": 0.3, "hi": 0.6},
                                         {"set": ["A", "B"], "lo": 0.4, "hi": 0.7}]}
            for i in (1, 2, 3)
        ],
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def near_conflict_file(tmp_path):
    """Two bodies that denoeux, wang and song combine, while the proposed
    rule's minimum-entropy witnesses ({A} and {B}) are in total conflict."""
    e1, e2 = 8.066875882656179e-13, 1.2486632893694472e-05
    data = {
        "format": 1,
        "frame": ["A", "B", "C"],
        "bodies": [
            {"masses": [{"set": ["A"], "lo": 0.9999999999986339, "hi": 1},
                        {"set": ["B"], "lo": 0, "hi": e1},
                        {"set": ["C"], "lo": 0, "hi": e1}]},
            {"masses": [{"set": ["A"], "lo": 0, "hi": e2},
                        {"set": ["B"], "lo": 0.9999869904227207, "hi": 1},
                        {"set": ["C"], "lo": 0, "hi": e2}]},
        ],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def one_body(tmp_path):
    data = {
        "format": 1,
        "frame": ["A", "B"],
        "bodies": [{"masses": [{"set": ["A", "B"], "mass": 1.0}]}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"ivbel {__version__}"

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_method_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["combine", bundled("example5"), "--method", "zadeh"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--normalize-inputs", "--no-normalize-inputs"])
    @pytest.mark.parametrize(
        "argv", [["entropy"], ["combine", "--method", "proposed"]], ids=["entropy", "combine"]
    )
    def test_normalization_is_not_an_option(self, capsys, argv, flag):
        # entropy and combine always normalize, so the parser knows no switch.
        with pytest.raises(SystemExit) as exc:
            main([argv[0], bundled("example31"), *argv[1:], flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _format_choices() -> dict[str, tuple[str, ...]]:
    """Each subcommand's ``--format`` choices, as its parser lists them."""
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: next(a.choices for a in sub._actions if "--format" in a.option_strings)
        for name, sub in commands.choices.items()
    }


FORMAT_CHOICES = _format_choices()


def _command_argv(command: str) -> list[str]:
    if command == "reproduce":
        return ["reproduce", "example33"]
    extra = ["--method", "proposed"] if command == "combine" else []
    return [command, bundled("example4"), *extra]


class TestFormatContract:
    def test_every_command_and_its_formats(self):
        assert FORMAT_CHOICES == {
            "validate": ("table", "json"),
            "normalize": ("table", "json", "csv"),
            "entropy": ("table", "json"),
            "combine": ("table", "json", "csv"),
            "compare": ("table", "json", "csv"),
            "reproduce": ("table", "json"),
        }

    @pytest.mark.parametrize(
        "command,fmt", [(c, f) for c, formats in FORMAT_CHOICES.items() for f in formats]
    )
    def test_listed_format_renders(self, capsys, command, fmt):
        rc, out, err = run(capsys, *_command_argv(command), "--format", fmt)
        assert rc in ((0, 1) if command == "reproduce" else (0,))
        assert out and not err
        if fmt == "json":
            assert json.loads(out)["format"] == 1
        elif fmt == "csv":
            source = "body" if command == "normalize" else "method"
            assert out.startswith(f"{source},focal_set,lo,hi\n")
        else:
            footer = out.splitlines()[-1].startswith("tolerances: ")
            assert footer == (command not in ("validate", "reproduce"))

    @pytest.mark.parametrize(
        "command,fmt",
        [
            (c, f)
            for c, formats in FORMAT_CHOICES.items()
            for f in ("table", "json", "csv", "xml")
            if f not in formats
        ],
    )
    def test_other_format_refused_before_work(self, capsys, monkeypatch, command, fmt):
        def reached(*args, **kwargs):
            raise AssertionError(f"{command} ran with --format {fmt}")

        monkeypatch.setattr(cli, "load_evidence", reached)
        # cmd_reproduce imports reproduce when it runs, so patch its module.
        monkeypatch.setattr("ivbel.reproduce.reproduce", reached)
        with pytest.raises(SystemExit) as exc:
            main([*_command_argv(command), "--format", fmt])
        assert exc.value.code == 2
        assert f"invalid choice: '{fmt}'" in capsys.readouterr().err


class TestValidate:
    def test_table(self, capsys):
        rc, out, _ = run(capsys, "validate", bundled("example31"))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split() == ["body", "valid", "normalized", "reason"]
        # Both bodies are valid but not tight: widths exceed the slack.
        assert "m1" in lines[1] and "yes" in lines[1] and "no" in lines[1]

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "validate", bundled("example31"), "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert [b["name"] for b in doc["bodies"]] == ["m1", "m2"]
        assert all(b["valid"] and not b["normalized"] for b in doc["bodies"])

    def test_invalid_body_reported_not_fatal(self, capsys, tmp_path):
        data = {
            "format": 1,
            "frame": ["A", "B"],
            "bodies": [
                {"masses": [{"set": ["A"], "lo": 0.7, "hi": 0.8},
                            {"set": ["B"], "lo": 0.6, "hi": 0.9}]}
            ],
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc, out, _ = run(capsys, "validate", str(path))
        assert rc == 0
        assert "lower bounds sum to 1.3 > 1" in out

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "validate", "/nonexistent/evidence.json")
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"\xff\xfe{}", "{path}: unreadable JSON: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 200000, "{path}: unreadable JSON: maximum recursion depth exceeded"),
            (
                b'{"format": 1, "frame": ["A"], "bodies": [{"masses": '
                b'[{"set": ["A"], "mass": ' + b"1" * 400 + b"}]}]}",
                "$.bodies[0].masses[0].mass: value 111",
            ),
        ],
        ids=["not-utf8", "nested-too-deeply", "int-beyond-float"],
    )
    def test_unreadable_file_is_an_input_error(self, capsys, tmp_path, content, message):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        rc, out, err = run(capsys, "validate", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and message.format(path=path) in err

    @pytest.mark.parametrize("seed", range(150))
    def test_any_file_exits_0_or_2(self, tmp_path, seed):
        path = tmp_path / "any.json"
        path.write_bytes(random_input_file(random.Random(seed), BUNDLED_TEXTS))
        assert main(["validate", str(path)]) in (0, 2)

    def test_schema_error_is_an_engine_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": 2, "frame": ["A"], "bodies": []}', encoding="utf-8")
        rc, _, err = run(capsys, "validate", str(path))
        assert rc == 2
        assert "unsupported format 2" in err

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_format_version_must_be_an_integer(self, capsys, tmp_path, version):
        path = tmp_path / "version.json"
        path.write_text(
            f'{{"format": {version}, "frame": ["A"], '
            '"bodies": [{"masses": [{"set": ["A"], "mass": 1}]}]}',
            encoding="utf-8",
        )
        rc, _, err = run(capsys, "validate", str(path))
        assert rc == 2
        assert f"unsupported format {json.loads(version)!r}" in err


class TestNormalize:
    def test_table_names_the_action(self, capsys):
        rc, out, _ = run(capsys, "normalize", bundled("example31"))
        assert rc == 0
        # m1's lower bounds already sum to one: tightening collapses it.
        assert "m1: tightened bounds" in out
        assert "0.5000" in out and "tolerances:" in out

    def test_table_names_both_steps_in_order(self, capsys, tmp_path):
        # Upper bounds sum below one: rescaling lifts A's upper bound to 1,
        # and tightening then raises its lower bound to match.
        data = {
            "format": 1,
            "frame": ["A", "B"],
            "bodies": [{"name": "m1", "masses": [{"set": ["A"], "lo": 0.0, "hi": 0.3},
                                                 {"set": ["B"], "lo": 0.0, "hi": 0.0}]}],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc, out, _ = run(capsys, "normalize", str(path))
        assert rc == 0
        assert "m1: rescaled proportionally; tightened bounds" in out
        assert "1.0000" in out

    def test_no_mass_exits_2(self, capsys, tmp_path):
        data = {
            "format": 1,
            "frame": ["A", "B"],
            "bodies": [{"masses": [{"set": ["A"], "lo": 0.0, "hi": 0.0},
                                   {"set": ["B"], "lo": 0.0, "hi": 0.0}]}],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc, out, err = run(capsys, "normalize", str(path))
        assert rc == 2 and out == ""
        assert err == "error: cannot normalize: no mass available in any interval\n"

    def test_already_normalized_passthrough(self, capsys):
        rc, out, _ = run(capsys, "normalize", bundled("example5"))
        assert rc == 0
        assert out.count("already normalized") == 2

    def test_json_round_trips(self, capsys):
        rc, out, _ = run(capsys, "normalize", bundled("example31"), "--format", "json")
        assert rc == 0
        ev = parse_evidence(json.loads(out))
        assert [name for name, _ in ev.bodies] == ["m1", "m2"]
        for _, body in ev.bodies:
            assert body.is_degenerate()

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "normalize", bundled("example5"), "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "body,focal_set,lo,hi"
        assert lines[1].startswith("m1,{A1},")
        # 4 sets per body, 2 bodies, 1 header.
        assert len(lines) == 9


class TestEntropy:
    def test_all_measures_table(self, capsys):
        rc, out, _ = run(capsys, "entropy", bundled("example5"))
        assert rc == 0
        for mid in ("dubois-prade", "nguyen", "deng", "pal", "qin"):
            assert mid in out
        assert out.count("skipped (not separable") == 10  # 5 measures x 2 bodies
        assert "tolerances:" in out

    def test_degenerate_bodies_evaluate_every_measure(self, capsys):
        # example33 collapses to points under normalization, so even
        # non-separable measures get exact (zero-width) values.
        rc, out, _ = run(
            capsys, "entropy", bundled("example33"), "--format", "json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 20  # 10 measures x 2 bodies
        assert doc["notes"] == []
        for row in doc["results"]:
            assert row["h_min"] == pytest.approx(row["h_max"], abs=1e-12)

    @pytest.mark.parametrize(
        "command", [("entropy",), ("combine", "--method", "dempster")], ids=["entropy", "dempster"]
    )
    def test_point_valued_within_tolerance(self, capsys, tmp_path, command):
        # Widths within the mass-sum tolerance whose midpoints sum to 1 + 7e-9.
        masses = [{"set": ["E0"], "lo": 1 - 1e-9, "hi": 1}]
        masses += [{"set": [f"E{i}"], "lo": 0, "hi": 1e-9} for i in range(1, 16)]
        data = {
            "format": 1,
            "frame": [f"E{i}" for i in range(16)],
            "bodies": [{"name": "m1", "masses": masses}, {"name": "m2", "masses": masses}],
        }
        path = tmp_path / "slivers.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc, _, err = run(capsys, command[0], str(path), *command[1:])
        assert (rc, err) == (0, "")

    def test_single_measure_bounds_ordered(self, capsys):
        rc, out, _ = run(
            capsys, "entropy", bundled("example5"), "--measure", "deng",
            "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 2
        for row in doc["results"]:
            assert row["measure"] == "deng"
            assert row["h_min"] <= row["h_max"]

    def test_named_non_separable_measure_fails(self, capsys):
        rc, _, err = run(capsys, "entropy", bundled("example5"), "--measure", "yager")
        assert rc == 2
        assert "measure 'yager' is not separable" in err

    def test_unknown_measure(self, capsys):
        rc, _, err = run(capsys, "entropy", bundled("example5"), "--measure", "bogus")
        assert rc == 2
        assert "unknown measure id 'bogus'" in err


class TestCombine:
    def test_proposed_table_audit(self, capsys):
        rc, out, _ = run(capsys, "combine", bundled("example4"), "--method", "proposed")
        assert rc == 0
        assert "method: proposed[pal]" in out
        for label in ("body1.max:", "body1.min:", "fold.max:", "fold.min:"):
            assert label in out
        assert "conflict fold.max: K = 0.0000" in out
        assert "0.4900" in out and "0.9100" in out

    def test_proposed_json_round_trips(self, capsys):
        rc, out, _ = run(
            capsys, "combine", bundled("example4"), "--method", "proposed",
            "--measure", "deng", "--format", "json",
        )
        assert rc == 0
        result, method = result_from_json(json.loads(out))
        assert method == "proposed[deng]"
        assert result.normalized

    def test_measure_flag_guard(self, capsys):
        rc, _, err = run(
            capsys, "combine", bundled("example5"), "--method", "wang",
            "--measure", "deng",
        )
        assert rc == 2
        assert "--measure only applies to --method proposed" in err

    def test_w_flag_guard(self, capsys):
        rc, _, err = run(
            capsys, "combine", bundled("example5"), "--method", "proposed", "--w", "3"
        )
        assert rc == 2
        assert "--w only applies to --method leezhu" in err

    def test_leezhu_uses_raw_inputs(self, capsys):
        rc, out, _ = run(
            capsys, "combine", bundled("example31"), "--method", "leezhu", "--w", "3"
        )
        assert rc == 0
        assert "method: leezhu[w=3]" in out
        assert "inputs passed through unchanged (engine convention)" in out

    def test_leezhu_needs_two_bodies(self, capsys, three_bodies):
        rc, _, err = run(capsys, "combine", three_bodies, "--method", "leezhu")
        assert rc == 2
        assert "leezhu combines exactly two bodies" in err

    def test_denoeux_needs_two_bodies(self, capsys, three_bodies):
        rc, out, err = run(capsys, "combine", three_bodies, "--method", "denoeux")
        assert (rc, out) == (2, "")
        assert err == "error: denoeux combines exactly two bodies\n"

    def test_denoeux_reports_empty_mass(self, capsys):
        rc, out, _ = run(capsys, "combine", bundled("example5"), "--method", "denoeux")
        assert rc == 0
        # The empty-set mass before renormalization, an interval here.
        assert "conflict fold: K in [0.2500, 0.6300]" in out

    @pytest.mark.parametrize("name", ["example31", "example33"])
    def test_denoeux_on_point_valued_bodies(self, capsys, name):
        # Point-valued raw bounds once normalized to lo above hi by one ulp.
        rc, out, err = run(
            capsys, "combine", bundled(name), "--method", "denoeux", "--format", "json"
        )
        assert rc == 0, err
        result, _ = result_from_json(json.loads(out))
        assert all(lo <= hi for _, lo, hi in result.entries)

    def test_song_reports_pignistic_stage(self, capsys):
        rc, out, _ = run(capsys, "combine", bundled("example5"), "--method", "song")
        assert rc == 0
        assert "body1.pignistic:" in out and "body2.pignistic:" in out
        assert "\nfold: {A1} [" in out

    def test_dempster_on_degenerate_bodies(self, capsys):
        rc, out, _ = run(capsys, "combine", bundled("example33"), "--method", "dempster")
        assert rc == 0
        assert "conflict fold: K = 0.6500" in out

    @pytest.mark.parametrize(
        "method, m1, m2",
        [
            ("denoeux", {"A": 1.0}, {"B": 1.0}),
            # {B} meets {B}, but only with zero mass.
            ("denoeux", {"A": 1.0, "B": 0.0}, {"B": 1.0}),
            ("dempster", {"A": 1.0}, {"B": 1.0 - 5e-10}),
            ("proposed", {"A": 1.0}, {"B": 1.0 - 5e-10}),
            # The second BPA sums to 1 + 2^-30 and K accumulates to 1.0.
            *(
                (
                    method,
                    {"A": 1 - 2.0**-10, "C": 2.0**-10},
                    {"B": 1 - 2.0**-20 + 2.0**-30, "C": 2.0**-20},
                )
                for method in ("dempster", "proposed")
            ),
        ],
        ids=[
            "denoeux", "denoeux-zero-target", "dempster-short", "proposed-short",
            "dempster-K=1", "proposed-K=1",
        ],
    )
    def test_total_conflict_exits_2(self, capsys, tmp_path, method, m1, m2):
        data = {
            "format": 1,
            "frame": ["A", "B", "C"],
            "bodies": [
                {"masses": [{"set": [s], "mass": m} for s, m in masses.items()]}
                for masses in (m1, m2)
            ],
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        rc, _, err = run(capsys, "combine", str(path), "--method", method)
        assert rc == 2
        assert "not combinable: total conflict" in err

    def test_song_near_conflict_combines_or_conflicts(self, capsys, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "near.json"
        for _ in range(50):
            bodies = ((f"m{i}", body) for i, body in enumerate(near_conflict_pair(rng), 1))
            doc = evidence_to_json(EvidenceFile(FRAME_AB, tuple(bodies)))
            path.write_text(json.dumps(doc), encoding="utf-8")
            rc, out, err = run(capsys, "combine", str(path), "--method", "song", "--format", "json")
            if rc == 2:
                assert "IFS total conflict" in err
                continue
            assert rc == 0, err
            result, _ = result_from_json(json.loads(out))
            assert result.normalized and is_normalized(result.as_ibs())

    def test_denoeux_raw_bounds_stay_within_one(self, capsys, near_conflict_file):
        # The empty set's product sum exceeds 1 by 8e-13 on this pair.
        rc, _, err = run(capsys, "combine", near_conflict_file, "--method", "denoeux")
        assert rc == 0, err

    def test_dempster_rejects_interval_bodies(self, capsys):
        rc, _, err = run(capsys, "combine", bundled("example4"), "--method", "dempster")
        assert rc == 2
        assert "needs point-valued evidence" in err and "body 1 has interval bounds" in err

    def test_single_body_rejected(self, capsys, one_body):
        rc, _, err = run(capsys, "combine", one_body, "--method", "wang")
        assert rc == 2
        assert "need at least two bodies" in err

    def test_csv(self, capsys):
        rc, out, _ = run(
            capsys, "combine", bundled("example5"), "--method", "wang",
            "--format", "csv",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "method,focal_set,lo,hi"
        assert all(line.startswith("wang,") for line in lines[1:])

    def test_csv_sends_engine_notes_to_stderr(self, capsys):
        note = "note: body 2: 4 vertices tie for the entropy minimum; kept the first in canonical order"
        argv = ("combine", bundled("example5"), "--method", "proposed", "--measure", "nguyen")
        rc, out, err = run(capsys, *argv, "--format", "csv")
        assert rc == 0
        assert out.startswith("method,focal_set,lo,hi\n") and "note:" not in out
        assert err.splitlines() == [note]
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and note in out.splitlines() and err == ""

    def test_three_body_fold(self, capsys, three_bodies):
        rc, out, _ = run(
            capsys, "combine", three_bodies, "--method", "proposed", "--format", "json"
        )
        assert rc == 0
        result, _ = result_from_json(json.loads(out))
        assert result.normalized


class TestCompare:
    def test_table_has_all_columns(self, capsys):
        rc, out, _ = run(capsys, "compare", bundled("example5"))
        assert rc == 0
        header = out.splitlines()[0]
        for column in ("focal set", "denoeux", "wang", "song", "proposed[pal]"):
            assert column in header
        # Song yields singletons only, so the full-set row shows a dash there.
        full_row = next(l for l in out.splitlines() if l.startswith("{A1,A2,A3}"))
        assert "-" in full_row

    def test_single_body_rejected(self, capsys, one_body):
        rc, out, err = run(capsys, "compare", one_body)
        assert (rc, out) == (2, "")
        assert err == "error: no evidence: need at least two bodies to compare\n"

    def test_denoeux_column_omitted_for_three_bodies(self, capsys, three_bodies):
        rc, out, _ = run(capsys, "compare", three_bodies)
        assert rc == 0
        assert "denoeux" not in out.splitlines()[0]
        assert "denoeux column omitted" in out

    @pytest.mark.parametrize("name", ["example31", "example33"])
    def test_point_valued_files(self, capsys, name):
        rc, out, err = run(capsys, "compare", bundled(name))
        assert rc == 0, err
        assert "denoeux" in out.splitlines()[0]

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "compare", bundled("example5"), "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert set(doc["results"]) == {"denoeux", "wang", "song", "proposed[pal]"}
        for payload in doc["results"].values():
            result, _ = result_from_json(payload)
            assert result.entries

    def test_csv_stacks_methods(self, capsys):
        rc, out, _ = run(capsys, "compare", bundled("example5"), "--format", "csv")
        assert rc == 0
        methods = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert methods == {"denoeux", "wang", "song", "proposed[pal]"}

    def test_failing_engine_drops_its_column(self, capsys, near_conflict_file):
        note = "proposed[pal] column omitted: not combinable: total conflict"
        rc, out, err = run(capsys, "compare", near_conflict_file)
        assert rc == 0, err
        header = out.splitlines()[0].split()
        assert header[-3:] == ["denoeux", "wang", "song"]
        assert f"note: {note}" in out
        rc, out, _ = run(capsys, "compare", near_conflict_file, "--format", "json")
        doc = json.loads(out)
        assert rc == 0 and set(doc["results"]) == {"denoeux", "wang", "song"}
        assert any(n.startswith(note) for n in doc["notes"])
        rc, out, err = run(capsys, "compare", near_conflict_file, "--format", "csv")
        assert rc == 0
        assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"denoeux", "wang", "song"}
        assert f"note: {note}" in err

    @pytest.mark.parametrize("name", ["example5", "example6"])
    def test_engine_notes_in_every_format(self, capsys, name):
        note = (
            "proposed[nguyen]: body 2: 4 vertices tie for the entropy minimum;"
            " kept the first in canonical order"
        )
        argv = ("compare", bundled(name), "--measure", "nguyen")
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert out.splitlines()[-2:] == [f"note: {note}", cli._TOLERANCE_FOOTER]
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == 0 and err == "" and json.loads(out)["notes"] == [note]
        rc, out, err = run(capsys, *argv, "--format", "csv")
        assert rc == 0 and "note" not in out
        assert err.splitlines() == [f"note: {note}"]

    def test_every_engine_failing_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps({
            "format": 1,
            "frame": ["A", "B"],
            "bodies": [{"masses": [{"set": ["A"], "mass": 1}]},
                       {"masses": [{"set": ["B"], "mass": 1}]}],
        }), encoding="utf-8")
        rc, out, err = run(capsys, "compare", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: every engine failed: denoeux column omitted:")
        assert err.count("column omitted") == 4


class TestReadme:
    def test_quick_run_output(self, capsys):
        """The README's quick-run output block holds, in order, in the real
        output: a line ending in ``...`` is a prefix, a bare ``...`` a gap."""
        text = README.read_text(encoding="utf-8")
        command = "ivbel combine --method proposed --measure pal src/ivbel/data/example4.json"
        after = text.split(f"```sh\n{command}\n```\n", 1)[1]
        block = after.split("```\n", 1)[1].split("```", 1)[0].splitlines()
        argv = command.split()[1:]
        rc, out, _ = run(capsys, *argv[:-1], str(README.parent / argv[-1]))
        assert rc == 0
        actual = iter(out.splitlines())
        for line in block:
            if line == "...":
                continue
            if line.endswith("..."):
                assert any(a.startswith(line[:-3]) for a in actual), line
            else:
                assert line in actual, line


class TestReproduce:
    def test_passing_target(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "example4")
        assert rc == 0
        assert "example4: PASS" in out
        assert "[pass]" in out

    def test_failing_target_sets_exit_code(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "table4")
        assert rc == 1
        assert "table4: FAIL" in out
        assert "FAIL" in out

    def test_all_targets(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "all")
        assert rc == 1
        for target in ("table2", "table3", "table4", "example4", "example32", "example33"):
            assert f"{target}: " in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "example33", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        (target,) = doc["targets"]
        assert target["target"] == "example33" and target["ok"]
        cell = target["cells"][0]
        assert {"column", "row", "bound", "expected", "actual", "delta", "tol"} <= set(cell)

    def test_unknown_target_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "table9"])
        assert exc.value.code == 2

    def test_unknown_target_rejected_by_library(self):
        with pytest.raises(ValueError, match="unknown reproduce target 'nope'"):
            reproduce("nope")
