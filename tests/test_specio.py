import re

import pytest

from demtrack.processes import DegreeProcess, balls_in_bins_spec, degree_process_spec
from demtrack.specio import load_spec, save_spec, spec_from_dict, spec_to_dict


def test_round_trip(tmp_path):
    spec, _ = degree_process_spec(500, max_degree=2, lam=0.02)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded, plugin = load_spec(path)
    assert spec_to_dict(loaded) == spec_to_dict(spec)
    assert plugin.name == "degree-process"
    assert plugin.max_degree == 2
    assert plugin.n == 500
    assert loaded.a == 3


def test_extensions_round_trip():
    spec, _ = balls_in_bins_spec(100)
    doc = spec_to_dict(spec)
    doc["extensions"] = {"b": 0.9, "gamma": 0.01, "B": 3.0, "x": 1.0}
    loaded, _ = spec_from_dict(doc)
    assert loaded.avg_step_bound == 0.9
    assert loaded.trunc_gamma == 0.01
    assert loaded.trunc_bound == 3.0
    assert loaded.trunc_x == 1.0
    assert spec_to_dict(loaded)["extensions"] == doc["extensions"]


def test_unknown_plugin_rejected():
    spec, _ = balls_in_bins_spec(100)
    doc = spec_to_dict(spec)
    doc["plugin"] = "mystery"
    with pytest.raises(ValueError, match="unknown plugin"):
        spec_from_dict(doc)


def test_schema_version_enforced():
    spec, _ = balls_in_bins_spec(100)
    doc = spec_to_dict(spec)
    doc["schema"] = 2
    with pytest.raises(ValueError, match="schema"):
        spec_from_dict(doc)


@pytest.mark.parametrize("doc", [[], "spec", None])
def test_non_object_document_rejected(doc):
    with pytest.raises(ValueError, match="^spec document must be a JSON object$"):
        spec_from_dict(doc)


def test_missing_field_rejected():
    spec, _ = balls_in_bins_spec(100)
    doc = spec_to_dict(spec)
    del doc["domain"]
    with pytest.raises(ValueError, match="malformed"):
        spec_from_dict(doc)


def test_dimension_mismatch_rejected():
    spec, _ = balls_in_bins_spec(100)
    doc = spec_to_dict(spec)
    doc["y_hat"] = [1.0, 0.0]
    doc["domain"]["y"] = [[0.05, 1.1], [0.05, 1.1]]
    with pytest.raises(ValueError, match="tracks"):
        spec_from_dict(doc)


@pytest.mark.parametrize(
    "where,key,message",
    [
        (None, "extension", "unknown spec key 'extension'"),
        ("domain", "tt", "unknown spec key 'domain.tt'"),
        ("extensions", "gama", "unknown spec key 'extensions.gama'"),
        ("params", "max_degre", "bad params for plugin 'degree-process'.*'max_degre'"),
    ],
)
def test_unknown_key_rejected(where, key, message):
    doc = spec_to_dict(degree_process_spec(100, lam=0.05)[0])
    doc.setdefault("extensions", {"x": 0.0})
    (doc if where is None else doc[where])[key] = 1
    with pytest.raises(ValueError, match=message):
        spec_from_dict(doc)
    (doc if where is None else doc[where]).pop(key)
    spec_from_dict(doc)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_spec(path)


def test_plain_callable_spec_not_serializable():
    import numpy as np

    from demtrack import Domain, ProcessSpec

    spec = ProcessSpec(
        n=10, drift=lambda t, y: np.zeros(1), L=0.0, delta=0.0, beta=1.0,
        lam=0.1, y_hat=(0.5,), domain=Domain(-0.1, 1.0, (0.0,), (1.0,)),
    )
    with pytest.raises(ValueError, match="plugin"):
        spec_to_dict(spec)


def test_shipped_specs_load():
    from pathlib import Path

    specs_dir = Path(__file__).resolve().parents[1] / "scripts" / "specs"
    names = sorted(p.name for p in specs_dir.glob("*.json"))
    assert names == [
        "balls_sigma.json",
        "balls_verify.json",
        "degree_verify.json",
        "matching.json",
    ]
    for p in specs_dir.glob("*.json"):
        spec, plugin = load_spec(p)
        assert spec.n >= 1
        assert plugin.dim == spec.a


@pytest.mark.parametrize("n", [1000.7, 1000.5, "1000", True, None, float("inf")])
def test_non_integral_n_rejected(n):
    doc = spec_to_dict(balls_in_bins_spec(1000)[0])
    doc["n"] = n
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        spec_from_dict(doc)


# (edit of a spec document, the key the error names, the value it shows)
NOT_NUMBERS = [
    (lambda doc: doc.update(L="0.0"), "L", "0.0"),
    (lambda doc: doc.update(delta="0"), "delta", "0"),
    (lambda doc: doc.update(beta=True), "beta", True),
    (lambda doc: doc.update({"lambda": True}), "lambda", True),
    (lambda doc: doc.update(y_hat=["1.0"]), "y_hat[0]", "1.0"),
    (lambda doc: doc["domain"]["t"].__setitem__(1, True), "domain.t[1]", True),
    (lambda doc: doc["domain"]["y"][0].__setitem__(0, "0.05"), "domain.y[0][0]", "0.05"),
    (lambda doc: doc.update(extensions={"b": "1.5"}), "extensions.b", "1.5"),
    (lambda doc: doc.update(extensions={"x": False}), "extensions.x", False),
    (lambda doc: doc.update(L=10**400), "L", 10**400),
]
NOT_NUMBER_IDS = [f"{name}-{type(value).__name__}" for _, name, value in NOT_NUMBERS]


@pytest.mark.parametrize("edit,name,value", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_a_real_key_refuses_strings_and_booleans(edit, name, value):
    """Every real-valued key takes a JSON number only: a string or a boolean
    is refused by name, never parsed or read as 0 or 1."""
    doc = spec_to_dict(balls_in_bins_spec(1000)[0])
    edit(doc)
    message = f"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        spec_from_dict(doc)


def test_integral_float_n_loads_as_int():
    doc = spec_to_dict(balls_in_bins_spec(1000)[0])
    doc["n"] = 1000.0
    spec, plugin = spec_from_dict(doc)
    assert type(spec.n) is int and spec.n == plugin.n == 1000


@pytest.mark.parametrize("value", [2.9, "3", True])
def test_non_integer_max_degree_rejected(value):
    doc = spec_to_dict(degree_process_spec(100, lam=0.05)[0])
    doc["params"]["max_degree"] = value
    message = f"^max_degree must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        spec_from_dict(doc)
    with pytest.raises(ValueError, match=message):
        DegreeProcess(100, max_degree=value)
