"""The benchmark's workloads: spec documents, library calls and output checks.

Each workload is one closed-loop iteration of public library calls on a spec
that the benchmark writes as JSON. The program gets only that file plus the
count, the anchors and the seed. Outputs are checked for meaning (a report
that is not vacuous, within its bound and with a clean replay chain; paths
that are valid, fully recorded and free of violations) and hashed, so a
changed result shows as a changed digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    call: str            # "verify", "verify_multi_anchor" or "run_ensemble"
    plugin: str
    params: dict
    n: int
    L: float
    beta: float
    lam: float
    t_box: tuple[float, float]
    y_box: tuple[tuple[float, float], ...]
    count: int
    anchors: tuple[tuple[float, ...], ...] = ()

    def spec_doc(self) -> dict:
        """Schema-1 spec document; the anchor y_hat is the process's start."""
        a = len(self.y_box)
        return {
            "schema": 1,
            "plugin": self.plugin,
            "params": dict(self.params),
            "n": self.n,
            "L": self.L,
            "delta": 0.0,
            "beta": self.beta,
            "lambda": self.lam,
            "y_hat": [1.0] + [0.0] * (a - 1),
            "domain": {"t": list(self.t_box), "y": [list(r) for r in self.y_box]},
        }

    def outputs_per_iteration(self) -> int:
        if self.call == "verify":
            return 1
        if self.call == "verify_multi_anchor":
            return len(self.anchors)
        return self.count


_DEGREE_BOX = ((-0.3, 1.3),) * 4
_LAM_DEGREE = 0.01

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="balls-ensemble",
            call="verify",
            plugin="balls-in-bins",
            params={},
            n=20_000,
            L=1.0,
            beta=1.0,
            lam=0.02,
            t_box=(-0.2, 1.0),
            y_box=((0.05, 1.3),),
            count=160,
        ),
        Workload(
            name="degree-anchors",
            call="verify_multi_anchor",
            plugin="degree-process",
            params={"max_degree": 3},
            n=10_000,
            L=4.0,
            beta=2.0,
            lam=_LAM_DEGREE,
            t_box=(-0.3, 0.5),
            y_box=_DEGREE_BOX,
            count=16,
            anchors=tuple(
                (1.0 + f * _LAM_DEGREE, 0.0, 0.0, 0.0) for f in (-0.5, 0.0, 0.5)
            ),
        ),
        Workload(
            name="degree-paths",
            call="run_ensemble",
            plugin="degree-process",
            params={"max_degree": 3},
            n=100_000,
            L=4.0,
            beta=2.0,
            lam=_LAM_DEGREE,
            t_box=(-0.3, 0.5),
            y_box=_DEGREE_BOX,
            count=16,
        ),
    )
}


def library():
    """The demtrack modules whose names the workloads look up at call time."""
    return (
        sys.modules["demtrack.verify"],
        sys.modules["demtrack.simulate"],
    )


def run_calls(w: Workload, spec, plugin, seed: int) -> list:
    """The workload's library calls; returns the outputs to check."""
    ver, sim = library()
    if w.call == "verify":
        return [ver.verify(spec, plugin, w.count, seed, mode="plain", replay_check=True)]
    if w.call == "verify_multi_anchor":
        return ver.verify_multi_anchor(spec, plugin, w.count, seed, w.anchors)
    ens = sim.run_ensemble(plugin, spec, w.count, seed, full_paths=True)
    return [
        (t, sim.doob_decompose(t), sim.check_hypotheses(t, spec))
        for t in ens.trajectories
    ]


# Top-level and nested report keys the report carried when the digests were
# pinned. Fields added to the report later are left out of the digest;
# "schema" is left out too, because it is bumped when fields are added.
REPORT_KEYS = {
    "mode": None,
    "plugin": None,
    "count": None,
    "base_seed": None,
    "constants": ("R", "T", "sigma", "margin"),
    "envelope": None,
    "lambda": None,
    "lambda_threshold": None,
    "lambda_admissible": None,
    "failure_probability": None,
    "failure_count": None,
    "empirical_sup_deviations": None,
    "martingale_bound": None,
    "martingale_exceed_count": None,
    "hypothesis_violations": ("trend", "bound", "trajectories_with_violations"),
    "hypotheses_failed": None,
    "vacuous": None,
    "gw_final_inequality_holds": None,
    "event_predicate_active": None,
    "gronwall_replay": ("checked", "failures"),
    "event_stops": None,
    "anchor": None,
}


def canonical_report(doc: dict) -> str:
    """Canonical JSON of a ``to_dict()`` document, restricted to REPORT_KEYS."""
    kept = {}
    for key, sub in REPORT_KEYS.items():
        if key not in doc:
            continue
        value = doc[key]
        kept[key] = value if sub is None else {k: value[k] for k in sub if k in value}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"), allow_nan=True)


def report_digest(docs: list[dict]) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(canonical_report(doc).encode())
        h.update(b"\n")
    return h.hexdigest()


def paths_digest(outputs: list) -> str:
    h = hashlib.sha256()
    for traj, doob, _ in outputs:
        for arr in (traj.indices, traj.steps, traj.drifts, doob):
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def check_outputs(w: Workload, outputs: list) -> tuple[int, str]:
    """(number of outputs that fail their check, digest of all outputs)."""
    if w.call == "run_ensemble":
        bad = sum(
            1
            for traj, _, hyp in outputs
            if not (traj.valid and traj.is_full and not traj.violations and hyp.clean)
        )
        return bad, paths_digest(outputs)
    ver, _ = library()
    bad = sum(
        1
        for r in outputs
        if r.vacuous
        or not ver.within_bound(r)
        or r.replay_failures != 0
        or r.hypotheses_failed
    )
    return bad, report_digest([r.to_dict() for r in outputs])
