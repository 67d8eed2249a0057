"""JSON (de)serialization of problem specs.

Schema version 1::

    {
      "schema": 1,
      "plugin": "balls-in-bins",        # registered plugin name
      "params": {},                     # plugin constructor parameters
      "n": 10000,
      "L": 1.0, "delta": 0.0, "beta": 1.0, "lambda": 0.001,
      "y_hat": [1.0],
      "domain": {"t": [-0.1, 2.0], "y": [[0.05, 1.1]]},
      "extensions": {"b": 1.0, "gamma": 0.0, "B": 1.0, "x": 0.0}   # optional
    }

The drift functions are resolved through the plugin registry; loading a
spec therefore returns the plugin instance alongside the spec. A key not
listed above, at the top level, under "domain" or under "extensions", is
refused by name, and so is a parameter the plugin's factory does not take.
Every number is a JSON number: a string or a boolean in place of one is
refused by name, never parsed, and ``n`` and ``max_degree`` must be integral.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Domain, ProcessSpec
from .processes import ProcessPlugin, _integral, make_plugin

SCHEMA_VERSION = 1

# (spec-file key under "extensions", ProcessSpec field) of each optional mode parameter
_EXTENSIONS = (
    ("b", "avg_step_bound"),
    ("gamma", "trunc_gamma"),
    ("B", "trunc_bound"),
    ("x", "trunc_x"),
)
# the keys of a spec document, and of its "domain"
_KEYS = (
    "schema", "plugin", "params", "n", "L", "delta", "beta", "lambda", "y_hat", "domain",
    "extensions",
)
_DOMAIN_KEYS = ("t", "y")


def spec_to_dict(spec: ProcessSpec) -> dict:
    if spec.plugin_name is None:
        raise ValueError("only plugin-backed specs are serializable")
    out = {
        "schema": SCHEMA_VERSION,
        "plugin": spec.plugin_name,
        "params": dict(spec.plugin_params),
        "n": spec.n,
        "L": spec.L,
        "delta": spec.delta,
        "beta": spec.beta,
        "lambda": spec.lam,
        "y_hat": list(spec.y_hat),
        "domain": {
            "t": [spec.domain.t_lo, spec.domain.t_hi],
            "y": [[lo, hi] for lo, hi in zip(spec.domain.lo, spec.domain.hi)],
        },
    }
    ext = {key: getattr(spec, f) for key, f in _EXTENSIONS if getattr(spec, f) is not None}
    if ext:
        out["extensions"] = ext
    return out


def spec_from_dict(doc: dict) -> tuple[ProcessSpec, ProcessPlugin]:
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    _refuse_unknown(doc, _KEYS, "")
    try:
        name = doc["plugin"]
        n = _integral(doc["n"], "n")
        dom_doc = doc["domain"]
        t_lo, t_hi = (_number(v, f"domain.t[{i}]") for i, v in enumerate(dom_doc["t"]))
        ranges = [
            (_number(lo, f"domain.y[{k}][0]"), _number(hi, f"domain.y[{k}][1]"))
            for k, (lo, hi) in enumerate(dom_doc["y"])
        ]
        domain = Domain(
            t_lo=t_lo,
            t_hi=t_hi,
            lo=tuple(r[0] for r in ranges),
            hi=tuple(r[1] for r in ranges),
        )
        y_hat = tuple(_number(v, f"y_hat[{k}]") for k, v in enumerate(doc["y_hat"]))
        L, delta, beta, lam = (_number(doc[k], k) for k in ("L", "delta", "beta", "lambda"))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed spec document: {exc!r}") from exc
    _refuse_unknown(dom_doc, _DOMAIN_KEYS, "domain.")
    if not isinstance(name, str):
        raise ValueError(f"plugin must be a string, got {name!r}")
    for key in ("params", "extensions"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise ValueError(f"{key} must be a JSON object, got {doc[key]!r}")
    params = doc.get("params") or {}
    try:
        plugin = make_plugin(name, n, params)
    except TypeError as exc:
        raise ValueError(f"bad params for plugin {name!r}: {exc}") from exc
    if plugin.dim != len(y_hat):
        raise ValueError(
            f"plugin {name!r} tracks {plugin.dim} variables, spec lists {len(y_hat)}"
        )
    ext = doc.get("extensions") or {}
    _refuse_unknown(ext, [key for key, _ in _EXTENSIONS], "extensions.")
    spec = ProcessSpec(
        n=n,
        drift=plugin.drift_field,
        L=L,
        delta=delta,
        beta=beta,
        lam=lam,
        y_hat=y_hat,
        domain=domain,
        plugin_name=name,
        plugin_params=dict(params),
        **{f: _number(ext[key], f"extensions.{key}") for key, f in _EXTENSIONS if key in ext},
    )
    return spec, plugin


def _refuse_unknown(doc: dict, known, prefix: str) -> None:
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown spec key {prefix + str(key)!r} (known: {', '.join(known)})")


def _number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number, not a bool or a string
    (nor an integer past the float range)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def load_spec(path) -> tuple[ProcessSpec, ProcessPlugin]:
    """Read a spec file; raises ValueError on malformed JSON or schema."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return spec_from_dict(doc)


def save_spec(spec: ProcessSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
