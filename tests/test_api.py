"""The package's public surface: its names, and values that travel through
pickle and copy but refuse any change."""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest

import ivbel
from ivbel import (
    Bpa,
    EvidenceFile,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    measure,
)
from ivbel.reproduce import reproduce

MODULES = ("core", "entropy", "formats", "fusion", "optimize", "polytope", "reference")
BENCH = Path(__file__).resolve().parents[1] / "bench"

FRAME = Frame(("A", "B", "C"))
BPA = Bpa.from_mapping(FRAME, {("A",): 0.6, ("B", "C"): 0.4})
IBS = IntervalBeliefStructure.from_mapping(FRAME, {("A",): (0.2, 0.5), ("B", "C"): (0.5, 0.8)})


def _public_values():
    """One value of every public type and record, keyed by a test id."""
    values = {
        "focal_set": FRAME.subset(("B", "C")),
        "frame": FRAME,
        "bpa": BPA,
        "body": IBS,
        "result": IntervalMassResult(FRAME, IBS.entries, includes_empty=(0.0, 0.1)),
        "raw_result": ivbel.denoeux_combine(IBS, IBS),
        "valid_verdict": ivbel.validate_ibs(IBS),
        "invalid_verdict": ivbel.validate_ibs(
            IntervalBeliefStructure.from_mapping(FRAME, {("A",): (0.7, 0.8), ("B",): (0.5, 0.6)})
        ),
        "evidence_file": EvidenceFile(FRAME, (("m1", IBS), ("m2", IBS))),
        "entropy_bounds": ivbel.entropy_bounds(IBS, "pal"),
        "combination_report": ivbel.proposed_combine_report([IBS, IBS], "pal"),
        "song_stages": ivbel.song_combine_detail([IBS, IBS]),
        "target_report": reproduce("example4"),
    }
    values.update((f"measure_{mid}", measure(mid)) for mid in ivbel.MEASURE_IDS)
    return values


VALUES = _public_values()


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize(
    "clone",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_values_survive_pickle_and_copy(clone, value):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_values_refuse_any_attribute_change(value):
    # Named tuples and the validated types both list their fields in _fields.
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.note = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert not hasattr(value, "note")


def test_public_names_resolve_to_their_defining_module():
    owners = {}
    for module in MODULES:
        for name in importlib.import_module(f"ivbel.{module}").__all__:
            owners.setdefault(name, []).append(module)
    for name in ivbel.__all__:
        (module,) = owners[name]
        assert getattr(ivbel, name) is getattr(importlib.import_module(f"ivbel.{module}"), name)
    assert set(ivbel.__all__) <= set(dir(ivbel))
    star: dict = {}
    exec("from ivbel import *", star)
    assert all(star[name] is getattr(ivbel, name) for name in ivbel.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ivbel.no_such_name


def _bench_call_surface():
    """What the benchmark reads of the package, from the source of
    ``bench/*.py``: ``ivbel.<name>`` attributes, ``(module, name)`` pairs
    from ``from ivbel.<module> import <name>``, the modules that
    ``import ivbel.<module>`` loads, and the ``TARGETS`` pairs of
    ``bench/tracing.py``."""
    names, pairs, modules = set(), set(), set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "ivbel":
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ivbel."):
                pairs.update((node.module[len("ivbel."):], alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(a.name for a in node.names if a.name.startswith("ivbel."))
            elif isinstance(node, ast.AnnAssign) and path.name == "tracing.py":
                if getattr(node.target, "id", None) == "TARGETS":
                    for targets in ast.literal_eval(node.value).values():
                        pairs.update(targets)
    return names, pairs, modules


def test_the_benchmark_call_surface_resolves():
    names, pairs, modules = _bench_call_surface()
    assert {"entropy_bounds", "max_entropy_bpa", "song_combine_detail"} <= names
    assert {("optimize", "max_entropy_bpa"), ("reference", "song_combine_detail")} <= pairs
    for module in modules:
        importlib.import_module(module)
    assert [name for name in sorted(names) if not hasattr(ivbel, name)] == []
    missing = [
        (module, name)
        for module, name in sorted(pairs)
        if not hasattr(importlib.import_module(f"ivbel.{module}"), name)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("core", "from_bpa"),
        ("optimize", "min_entropy_bpa"),
        ("fusion", "proposed_combine"),
        ("reference", "SongStages"),
        ("reference", "IfsElement"),
        ("reference", "ifs_combine"),
        ("reference", "interval_pignistic"),
    ],
)
def test_views_of_another_result_are_gone(module, name):
    # Use point_body in the tests, entropy_bounds(...).m_min,
    # proposed_combine_report(...).result and the CombinationReport of
    # song_combine_detail instead; its body<i>.pignistic stages hold the
    # interval pignistic bodies, and its fold stage the folded assessments.
    assert name not in ivbel.__all__ and not hasattr(ivbel, name)
    assert not hasattr(importlib.import_module(f"ivbel.{module}"), name)


def test_a_measure_is_not_callable():
    # Evaluate a measure with entropy(m, b).
    assert not callable(measure("pal"))
