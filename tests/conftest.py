import numpy as np
import pytest

import aggfw
from aggfw.problems import Aggregate, ProblemInstance


class TableInstance(ProblemInstance):
    """Generic finite-universe instance driven by explicit contribution tables.

    Agent i's decisions are indices into ``tables[i]``, a (U_i, q) array of
    contribution vectors (all blocks scalar); the outer function is the
    separable quadratic ``sum_j (y_j - target_j)^2``.  Used to exercise the
    abstract interface with more than two decisions per agent.
    """

    def __init__(self, tables, target):
        self.tables = [np.asarray(t, dtype=float) for t in tables]
        self.target = np.asarray(target, dtype=float)
        q = self.tables[0].shape[1]
        assert all(t.shape[1] == q for t in self.tables)
        self._dims = (1,) * q
        # Tables padded to a common universe size, for the batched hook.
        self._padded = np.zeros((len(self.tables), max(len(t) for t in self.tables), q))
        for i, table in enumerate(self.tables):
            self._padded[i, : len(table)] = table

    @property
    def n_agents(self):
        return len(self.tables)

    @property
    def block_dims(self):
        return self._dims

    def decision_universe(self, i):
        return tuple(range(self.tables[i].shape[0]))

    def validate_decision(self, i, decision):
        return isinstance(decision, (int, np.integer)) and 0 <= decision < self.tables[i].shape[0]

    def contribution(self, i, decision):
        return Aggregate(self.tables[i][decision], self._dims)

    def contributions(self, agents, decisions):
        return self._padded[agents, np.asarray(decisions, dtype=np.intp)]

    def f_block_values(self, y):
        return (y.values - self.target) ** 2

    def f_grad(self, y):
        return Aggregate(2.0 * (y.values - self.target), self._dims)

    def best_response(self, i, grad):
        scores = self.tables[i] @ grad.values
        return int(np.argmin(scores))  # argmin returns the first minimizer

    @property
    def lipschitz_f(self):
        # Crude but valid modulus: 2 * (range radius + |target|) per block.
        lo = sum(t.min(axis=0) for t in self.tables) / self.n_agents
        hi = sum(t.max(axis=0) for t in self.tables) / self.n_agents
        return 2.0 * np.maximum(np.abs(lo - self.target), np.abs(hi - self.target))

    @property
    def lipschitz_grad(self):
        return np.full(self.n_blocks, 2.0)

    @property
    def diameters(self):
        return np.stack([t.max(axis=0) - t.min(axis=0) for t in self.tables])


class FloatResponses(TableInstance):
    """A table instance whose best response is a float, ``1.0`` where the
    iterate may hold ``1``, for about half the gradients (by a digit of the
    first entry): tokens equal under ``==`` arrive as distinct objects."""

    def validate_decision(self, i, decision):
        return decision in range(len(self.tables[i]))

    def best_response(self, i, grad):
        index = super().best_response(i, grad)
        return float(index) if int(abs(grad.values[0]) * 1e6) % 2 else index


def signed_zero_tables(seed):
    """Table instance whose contributions mix -0.0, 0.0 and normal entries."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(5):
        table = rng.normal(size=(2 + i % 3, 2))
        table[rng.random(table.shape) < 0.4] = -0.0
        table[rng.random(table.shape) < 0.2] = 0.0
        tables.append(table)
    return TableInstance(tables, target=np.array([0.1, -0.3]))


def cycling_tables(seed, cls=TableInstance):
    """Six agents choosing among 3 to 5 points of the unit circle around the
    target 0: the best response is the point facing away from the aggregate,
    so it turns with the aggregate and comes back to earlier tokens."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(6):
        angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(3 + i % 3) / (3 + i % 3)
        tables.append(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    return cls(tables, target=np.zeros(2))


# Instances for the properties that compare a solver with a reference loop.
INSTANCES = {
    "miqp": lambda seed: aggfw.generate(3, 8, seed=seed),
    "signed-zero-table": signed_zero_tables,
    "balanced-signs": lambda seed: aggfw.BalancedSignsInstance(9),
    "cycling-table": cycling_tables,
    "float-responses": lambda seed: cycling_tables(seed, FloatResponses),
}


class CountingInstance:
    """Transparent wrapper counting subproblem solves (one per agent solved),
    gradient evaluations and the rows requested through ``contributions``.
    ``gradients`` keeps the bytes of each gradient evaluated, and ``asked`` one
    ``(gradients evaluated so far, gradient bytes, agents)`` per ``best_response_all``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.grads = 0
        self.rows = 0
        self.gradients = []
        self.asked = []

    def contributions(self, agents, decisions):
        self.rows += len(agents)
        return self.inner.contributions(agents, decisions)

    def best_response(self, i, grad):
        self.calls += 1
        return self.inner.best_response(i, grad)

    def best_response_all(self, grad, agents=None):
        asked = list(range(self.inner.n_agents)) if agents is None else np.asarray(agents).tolist()
        self.calls += len(asked)
        self.asked.append((self.grads, grad.values.tobytes(), asked))
        return self.inner.best_response_all(grad, agents)

    def f_grad(self, y):
        self.grads += 1
        grad = self.inner.f_grad(y)
        self.gradients.append(grad.values.tobytes())
        return grad

    def __getattr__(self, name):
        return getattr(self.inner, name)


def gradient_runs(gradients):
    """Run number of each gradient: it goes up by one where the bytes change."""
    return np.cumsum([bool(i) and a != gradients[i - 1] for i, a in enumerate(gradients)])


@pytest.fixture(scope="session")
def miqp_small():
    """Desk-scale benchmark instance, N=10 agents and M=3 blocks."""
    return aggfw.generate(3, 10, seed=5)


@pytest.fixture(scope="session")
def miqp_small_reference(miqp_small):
    return miqp_small.relaxed_optimum(tol=1e-10)


@pytest.fixture(scope="session")
def miqp_medium():
    """N=M=30 instance used by the statistical tests."""
    return aggfw.generate(30, 30, seed=2)


@pytest.fixture(scope="session")
def miqp_medium_reference(miqp_medium):
    return miqp_medium.relaxed_optimum(tol=1e-9)


@pytest.fixture(scope="session")
def balanced_ten():
    return aggfw.BalancedSignsInstance(10)


@pytest.fixture()
def table_instance():
    rng = np.random.default_rng(42)
    tables = [rng.normal(size=(3 + (i % 2), 2)) for i in range(4)]
    return TableInstance(tables, target=np.array([0.3, -0.2]))
