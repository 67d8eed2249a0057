"""Built-in random processes and the plugin contract the simulator consumes.

A plugin owns the process dynamics at scale n: it steps the state, reports
the tracked count vector Y(i), and supplies the exact conditional drift
E(Y(i+1) - Y(i) | F_i) in closed form (estimating drifts from samples would
confound verification). ``drift_field`` is the limiting right-hand side
F(t, y) in rescaled coordinates; plugins with ``exact_drift`` guarantee that
``drift(state)`` equals the field at the current rescaled state, so the
trend condition can never be violated.

A state is an int or a flat tuple of ints, each within int64, and every
state of a plugin has the length of its initial state: the kernel holds
every plugin's states as int64 rows (``_int64_rows``). A state from
``initial_state`` or a row-wise ``step`` that int64 cannot hold exactly,
such as 1.5, 2**70 or a ragged tuple, or a ``step_batch`` or
``observables_batch`` result of a dtype it cannot hold, ends the run with
``PluginCrashed`` naming the method; it is never truncated. States are
hashable, so that small instances can be exhaustively enumerated.

A plugin states each part of its dynamics once. A row-wise plugin defines
only the scalar methods ``step``, ``observables`` and ``drift``: the kernel
steps each row through ``step`` with the row's own generator, and the
``observables_batch`` and ``drift_batch`` defaults call the scalar methods
row by row. An array plugin sets ``uniforms_per_step = k`` and defines the
batch methods on the int64 array that stacks its states; its
``step_batch(states, u)`` returns the next states. A fallback rule covers
each way: a class that overrides a scalar method without its batch twin
gets that twin's per-row default (one that so overrides ``step`` is
row-wise), and an array plugin class that defines a batch method without
its scalar twin gets that scalar, when the class is made, as a batch of
one of its own batch function (``_batch_of_one``). An exception of a
batch method, or of the spec's field in the kernel's trend check, ends the
run with ``PluginCrashed`` (``_guard``); one of a row-wise ``step`` ends
only its row's trajectory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .core import Domain, PluginCrashed, ProcessSpec


_BATCH_TWINS = (
    ("step", "step_batch"),
    ("observables", "observables_batch"),
    ("drift", "drift_batch"),
)


@contextmanager
def _guard(plugin, method: str, where: str):
    """Re-raise what the plugin's ``method`` raises as ``PluginCrashed`` naming
    the class, the method and ``where`` it was called."""
    try:
        yield
    except PluginCrashed:
        raise
    except Exception as exc:
        raise PluginCrashed(f"{type(plugin).__name__}.{method} raised {exc!r} {where}") from exc


def _batch_of_one(scalar: str, batch, k: int):
    """The method ``scalar`` of an array plugin as a batch of one: the state
    run through its class's own batch function ``batch``, bound when the
    class is made (so a variant's ``super()`` call reaches the parent's
    array code), drawing ``rng.random((1, k))`` for ``step``."""

    def method(self, state, rng=None):
        rows = _int64_rows(self, f"{scalar} was given", [state])
        out = batch(self, rows, *(() if rng is None else (rng.random((1, k)),)))
        if not (isinstance(out, np.ndarray) and out.shape[:1] == (1,)):
            got = f"an array of shape {out.shape}" if isinstance(out, np.ndarray) else repr(out)
            raise PluginCrashed(
                f"{type(self).__name__}.{scalar}_batch returned {got} for a batch of one row,"
                " not an array of one row"
            )
        return _rows(out)[0]

    return method


def _rows(states: np.ndarray) -> list:
    """The rows of ``states`` as the scalar methods take them: ints or tuples."""
    return [tuple(s) if isinstance(s, list) else s for s in states.tolist()]


def _int64_rows(plugin, what: str, states: list, row: tuple | None = None) -> np.ndarray:
    """``states`` stacked as int64, each of shape ``row`` (by default any flat
    shape); ``what`` names the method and how it met them ("step returned").
    A state is an int or a flat tuple of ints, each within int64: any other
    is refused, never truncated."""

    def held(x, lead=0):
        try:
            x = np.array(x)
        except ValueError:  # a ragged tuple
            return None
        shape = x.shape[lead:]
        if shape == (shape[:1] if row is None else row) and np.can_cast(x.dtype, np.int64):
            return x.astype(np.int64, copy=False)

    out = held(states, 1)
    if out is not None:
        return out
    bad = next((x for x in states if held(x) is None), states)
    raise PluginCrashed(
        f"{type(plugin).__name__}.{what} {bad!r}: a state is an int"
        " or a flat tuple of ints, each within int64, all of one length"
    )


def _int64_values(plugin, method: str, values: np.ndarray) -> np.ndarray:
    """``values``, from what the batch method ``method`` returned, if int64
    holds their dtype exactly: a float state or count is refused, never
    truncated."""
    if not np.can_cast(values.dtype, np.int64):
        raise PluginCrashed(
            f"{type(plugin).__name__}.{method} returned {values.dtype} values:"
            " states and counts are ints within int64"
        )
    return values


def _integral(value, name: str) -> int:
    """``value`` as an int if it is an integral number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)) or value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class ProcessPlugin(ABC):
    """Dynamics of one discrete-time process at a fixed scale n."""

    name: str = "?"
    exact_drift: bool = False
    uniforms_per_step: int | None = None

    def __init_subclass__(cls, **kwargs):
        # One fallback rule each way: a class that overrides a scalar method
        # without its batch twin gets the twin's per-row default (one that so
        # overrides ``step`` is row-wise), and an array plugin class that
        # defines a batch method without its scalar twin gets that scalar as
        # a batch of one of it. A method with neither form stays abstract.
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "step" in own and "step_batch" not in own:
            cls.uniforms_per_step = None
        for scalar, batch in _BATCH_TWINS:
            default = getattr(ProcessPlugin, batch)
            if scalar in own and batch not in own:
                setattr(cls, batch, default)
            elif (
                cls.uniforms_per_step is not None
                and scalar not in own
                and own.get(batch, default) is not default
            ):
                setattr(cls, scalar, _batch_of_one(scalar, own[batch], cls.uniforms_per_step))

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n

    @property
    @abstractmethod
    def dim(self) -> int:
        """Number of tracked variables."""

    @property
    def params(self) -> dict:
        """JSON-serializable constructor parameters (excluding n)."""
        return {}

    @abstractmethod
    def initial_state(self):
        ...

    @abstractmethod
    def observables(self, state) -> tuple[int, ...]:
        """Tracked counts Y(i) for the given state."""

    @abstractmethod
    def step(self, state, rng: np.random.Generator):
        """Advance one step; returns the next state.

        An array plugin that does not define it gets a batch of one, which
        draws ``rng.random((1, uniforms_per_step))``.
        """

    @abstractmethod
    def drift(self, state) -> tuple[float, ...]:
        """Exact E(Y_k(i+1) - Y_k(i) | F_i) for each k.

        The kernel calls ``drift_batch``, like ``observables_batch``, on
        every state it stepped in a span, past a trajectory's stop too
        (outside the domain, say): these are all states the chain reaches.
        """

    @abstractmethod
    def drift_field(self, t: float, y: np.ndarray) -> np.ndarray:
        """Limiting drift F(t, y) in rescaled coordinates.

        Takes one point (``t`` a float, ``y`` of shape (a,)) and returns
        shape (a,). A field may also take N stacked points (``t`` of shape
        (N,), ``y`` of shape (N, a)) and return shape (N, a), each row equal
        bit for bit to its single-point call; the built-in fields do, and
        the ODE scans then evaluate their points in a few stacked calls.
        A single-point output is read in the shape (a,) (``ode._as_point``):
        (1, a) or, for a = 1, a float is taken, and (a + 1,) is refused.
        A field must neither write to nor keep its ``t`` or ``y`` argument:
        the RK4 driver reuses its stacked time array and its stage buffers,
        and passes them again with new values.
        """

    def step_batch(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Advance every row one step; returns the next states.

        Array plugins only: ``states`` stacks the scalar states as int64 (any
        number of rows), ``u`` has shape (rows, k) for k =
        ``uniforms_per_step``, and both are left unchanged (the kernel may
        pass views of its own buffers). Row r's next state must depend only
        on ``states[r]`` and ``u[r]``, with no hidden state kept between
        calls, and the method must not raise on a state the process cannot
        reach: the kernel steps guessed states and discards what they give.
        The kernel steps a row-wise plugin through ``step`` instead.
        """
        raise NotImplementedError(f"{type(self).__name__} steps row by row, through step")

    def observables_batch(self, states: np.ndarray) -> np.ndarray:
        """Y(i) of every row, int64 of shape (rows, dim); counts that int64
        cannot hold exactly are refused, naming ``observables``."""
        if not len(states):
            return np.empty((0, self.dim), dtype=np.int64)
        counts = np.array([self.observables(s) for s in _rows(states)])
        counts = _int64_values(self, "observables", counts)
        return counts.astype(np.int64, copy=False).reshape(len(states), self.dim)

    def drift_batch(self, states: np.ndarray) -> np.ndarray:
        """Exact drift of every row, float of shape (rows, dim)."""
        return np.array([self.drift(s) for s in _rows(states)], dtype=float).reshape(
            len(states), self.dim
        )

    @abstractmethod
    def enumerate_transitions(self, state) -> list[tuple[float, object]]:
        """All one-step outcomes as (probability, next_state) pairs.

        Only required to be practical at small n; drives the brute-force
        drift oracle and reachability enumeration in tests.
        """

    def avg_step_bound(self, spec: ProcessSpec) -> float | None:
        """Declared bound b on E(|Y_k(i+1) - Y_k(i)| | F_i) inside the domain."""
        return None

    def truncation(self, spec: ProcessSpec) -> tuple[float, float] | None:
        """Declared (gamma, B): step exceeds beta with prob <= gamma, hard cap B."""
        return None


class BallsInBins(ProcessPlugin):
    """Throw balls one at a time into n uniform bins; Y(i) = empty bins left.

    A ball lands in an empty bin with probability Y/n, so the drift is
    exactly -Y/n and the limit solves y' = -y, y(0) = 1.
    """

    name = "balls-in-bins"
    exact_drift = True
    uniforms_per_step = 1

    @property
    def dim(self) -> int:
        return 1

    def initial_state(self):
        return self.n

    def step_batch(self, states, u):
        return states - (u[:, 0] * self.n < states)

    def observables_batch(self, states):
        return states[:, None]

    def drift_batch(self, states):
        return -(states / self.n)[:, None]

    def drift_field(self, t, y):
        return np.negative(y, dtype=float)

    def enumerate_transitions(self, state):
        p = state / self.n
        out = []
        if p > 0:
            out.append((p, state - 1))
        if p < 1:
            out.append((1.0 - p, state))
        return out

    def avg_step_bound(self, spec):
        return min(1.0, spec.domain.hi[0])

    def truncation(self, spec):
        return 0.0, spec.beta


_TWO = np.array(2.0)  # DegreeProcess.drift_field's factor, as a 0-d array
_TWO.setflags(write=False)


class DegreeProcess(ProcessPlugin):
    """Degree profile of a multigraph grown one uniformly random edge at a time.

    Each step picks an ordered pair of distinct vertices (repeats across
    steps allowed) and raises both endpoint degrees. Y_k(i) counts vertices
    of degree k for k = 0..max_degree; vertices beyond max_degree are lumped
    into an untracked overflow class. Every vertex is an edge endpoint with
    probability exactly 2/n, so the drift is exactly 2(y_{k-1} - y_k) and
    the limit is the Poisson profile y_k(t) = (2t)^k e^{-2t} / k!.
    """

    name = "degree-process"
    exact_drift = True
    uniforms_per_step = 2

    def __init__(self, n: int, max_degree: int = 3):
        super().__init__(n)
        if n < 2:
            raise ValueError("degree process needs at least two vertices")
        max_degree = _integral(max_degree, "max_degree")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.max_degree = max_degree
        self._overflow = top = max_degree + 1  # lumped class index
        # _moves[ju * (top + 1) + jv]: the change of the counts when one
        # endpoint leaves class ju and the other jv, each moving up one class
        # (the overflow class keeps its own)
        eye = np.eye(top + 1, dtype=np.int64)
        move = eye[np.minimum(np.arange(top + 1) + 1, top)] - eye
        self._moves = (move[:, None] + move).reshape(-1, top + 1)
        self._below = np.arange(top)[:, None]  # the classes below the overflow class

    @property
    def dim(self) -> int:
        return self.max_degree + 1

    @property
    def params(self) -> dict:
        return {"max_degree": self.max_degree}

    def initial_state(self):
        counts = [0] * (self.max_degree + 2)
        counts[0] = self.n
        return tuple(counts)

    def step_batch(self, states, u):
        # With the vertices listed class by class, the first endpoint is
        # vertex du = u·n and the second vertex dv = v·(n - 1) of the others:
        # each is in the first class whose cumulative count (the first
        # endpoint taken out for the second) exceeds its draw. The counts are
        # nondecreasing (the first endpoint's class holds at least one
        # vertex, so taking it out keeps them so), so that class is the
        # number of cumulative counts at or below the draw: ju = Σ_k [acc_k
        # <= du] and jv = Σ_k [acc_k - (ju <= k) <= dv]. Both compare exact
        # int64 counts with float64 draws, so each row gets the classes of a
        # class-by-class search. The overflow class is never counted: its
        # cumulative count, n (n - 1 once the first endpoint is out),
        # exceeds every draw, since u, v <= 1 - 2^-53 give du < n and
        # dv < n - 1. The counts are built on a transposed copy, one
        # contiguous row per class, because numpy compares and sums whole
        # rows many times faster than it gathers or takes argmins along the
        # short class axis.
        top = self._overflow
        acc = states[:, :top].T.copy()
        for k in range(1, top):
            acc[k] += acc[k - 1]
        ju = (acc <= u[:, 0] * self.n).sum(axis=0)
        acc -= ju <= self._below
        jv = (acc <= u[:, 1] * (self.n - 1)).sum(axis=0)
        return states + np.take(self._moves, ju * (top + 1) + jv, axis=0)

    def observables_batch(self, states):
        return states[:, : self.max_degree + 1]

    def drift_batch(self, states):
        # on a transposed copy, one contiguous row per class, as in step_batch
        counts = states[:, : self.max_degree + 1].T.copy()
        diff = -counts
        diff[1:] += counts[:-1]
        return (2.0 * diff / self.n).T

    def drift_field(self, t, y):
        # 2 * (prev - y), prev = (0, y_0, .., y_{a-2}) written into the output;
        # numpy multiplies by a 0-d array faster than by a Python float
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape)
        out[..., 1:] = y[..., :-1]
        np.subtract(out, y, out)
        return np.multiply(_TWO, out, out)

    def enumerate_transitions(self, state):
        n = self.n
        top = self._overflow
        acc: dict[tuple, float] = {}
        for ju, cu in enumerate(state):
            if cu == 0:
                continue
            for jv, cv in enumerate(state):
                avail = cv - (jv == ju)
                if avail <= 0:
                    continue
                p = (cu / n) * (avail / (n - 1))
                out = list(state)
                out[ju] -= 1
                out[min(ju + 1, top)] += 1
                out[jv] -= 1
                out[min(jv + 1, top)] += 1
                key = tuple(out)
                acc[key] = acc.get(key, 0.0) + p
        return [(p, s) for s, p in acc.items()]

    def avg_step_bound(self, spec):
        hi = (0.0, *spec.domain.hi)
        return min(spec.beta, max(2.0 * (hi[k] + hi[k + 1]) for k in range(self.dim)))

    def truncation(self, spec):
        return 0.0, spec.beta


class GreedyMatching(ProcessPlugin):
    """Random greedy matching on the complete graph; Y(i) = unmatched vertices.

    Each step matches a uniformly random pair of unmatched vertices, so Y
    decreases by exactly 2 per step: the drift is the constant -2 and the
    martingale part vanishes. Included as a deterministic-drift smoke test.
    """

    name = "greedy-matching"
    exact_drift = True
    uniforms_per_step = 0

    def __init__(self, n: int):
        super().__init__(n)
        if n % 2:
            raise ValueError("greedy matching needs an even number of vertices")

    @property
    def dim(self) -> int:
        return 1

    def initial_state(self):
        return self.n

    def step_batch(self, states, u):
        return states - 2 * (states >= 2)

    def observables_batch(self, states):
        return states[:, None]

    def drift_batch(self, states):
        return np.where(states >= 2, -2.0, 0.0)[:, None]

    def drift_field(self, t, y):
        return np.full(np.shape(y), -2.0)

    def enumerate_transitions(self, state):
        return [(1.0, state - 2)] if state >= 2 else [(1.0, state)]

    def avg_step_bound(self, spec):
        return 2.0

    def truncation(self, spec):
        return 0.0, spec.beta


_REGISTRY: dict[str, Callable[[int, dict], ProcessPlugin]] = {}


def register_plugin(name: str, factory: Callable[[int, dict], ProcessPlugin]) -> None:
    """Register a plugin factory (n, params) -> plugin under a spec-file name."""
    _REGISTRY[name] = factory


def make_plugin(name: str, n: int, params: dict | None = None) -> ProcessPlugin:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown plugin {name!r} (registered: {known})")
    return _REGISTRY[name](n, params or {})


# a parameter that the constructor does not take raises TypeError
register_plugin("balls-in-bins", lambda n, params: BallsInBins(n, **params))
register_plugin("degree-process", lambda n, params: DegreeProcess(n, **params))
register_plugin("greedy-matching", lambda n, params: GreedyMatching(n, **params))


def _builtin_spec(
    plugin: ProcessPlugin, L: float, beta: float, lam: float, domain: Domain
) -> tuple[ProcessSpec, ProcessPlugin]:
    """A built-in's spec, with its plugin: delta = 0 and anchor (1, 0, ..., 0)."""
    spec = ProcessSpec(
        n=plugin.n,
        drift=plugin.drift_field,
        L=L,
        delta=0.0,
        beta=beta,
        lam=lam,
        y_hat=(1.0,) + (0.0,) * (plugin.dim - 1),
        domain=domain,
        plugin_name=plugin.name,
        plugin_params=plugin.params,
    )
    return spec, plugin


def balls_in_bins_spec(
    n: int,
    lam: float = 1e-3,
    domain: Domain | None = None,
) -> tuple[ProcessSpec, BallsInBins]:
    """Standard instance: empty-bin count vs y(t) = e^{-t} on a box."""
    dom = domain or Domain(t_lo=-0.1, t_hi=2.0, lo=(0.05,), hi=(1.1,))
    return _builtin_spec(BallsInBins(n), 1.0, 1.0, lam, dom)


def degree_process_spec(
    n: int,
    max_degree: int = 3,
    lam: float = 0.01,
    domain: Domain | None = None,
) -> tuple[ProcessSpec, DegreeProcess]:
    """Degree profile vs the Poisson curves on [0, 0.5]; L = 4 covers all F_k."""
    plugin = DegreeProcess(n, max_degree=max_degree)
    a = plugin.dim
    dom = domain or Domain(t_lo=-0.3, t_hi=0.5, lo=(-0.3,) * a, hi=(1.3,) * a)
    return _builtin_spec(plugin, 4.0, 2.0, lam, dom)


def greedy_matching_spec(
    n: int,
    lam: float = 0.01,
    domain: Domain | None = None,
) -> tuple[ProcessSpec, GreedyMatching]:
    """Unmatched-vertex count vs y(t) = 1 - 2t; constant drift, L = 0."""
    dom = domain or Domain(t_lo=-0.1, t_hi=0.45, lo=(0.05,), hi=(1.1,))
    return _builtin_spec(GreedyMatching(n), 0.0, 2.0, lam, dom)
