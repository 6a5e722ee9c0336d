"""The benchmark's workloads: fixed solver call sequences on fixed instances.

A workload is set up once (instance generation, ``compute_constants``
and the reference relaxed optimum) and then run as passes.  A pass is
the workload's call sequence under one stream seed.  Every solver call
in a pass is checked two ways: its output checksum must equal the
recorded one for that workload and seed, and the paper's certificates
must hold on its records.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aggfw import bounds, frank_wolfe, measures, miqp, stochastic_fw
from aggfw import rng as aggfw_rng

CHECKSUM_FILE = Path(__file__).with_name("checksums.json")

# Stream seeds with a recorded checksum.  The run seed n uses pool seeds
# n, n+1, n+2, ... (mod SEED_POOL) for its successive passes, so every
# pass of every run is gated against a recorded output.
SEED_POOL = 8

INSTANCE_SEED = 0  # the paper instance of the acceptance suite
REFERENCE_TOL = 1e-7
GAP_TOL = 1e-9  # criterion 03's tolerance on gamma_k <= beta_k


@dataclass(frozen=True)
class Fw:
    """``fw_run`` with the ``ls-fw`` step rule."""

    iters: int

    def run(self, setup, seed, carry, callback):
        profile, records = frank_wolfe.fw_run(
            setup.instance, self.iters, rule=frank_wolfe.LineSearchFwStep(), callback=callback
        )
        carry["measure"], carry["fw_iters"] = profile, self.iters
        return records, None, None, 0


@dataclass(frozen=True)
class Select:
    """``select_best`` on the preceding FW measure, at the stream address
    ``fw_with_selection`` uses: (seed, SELECTION, 0, K)."""

    draws: int

    def run(self, setup, seed, carry, callback):
        stream = TickingStream(
            aggfw_rng.stream(seed, aggfw_rng.SELECTION, 0, carry["fw_iters"]), callback
        )
        decisions, value = measures.select_best(setup.instance, carry["measure"], self.draws, stream)
        return (), decisions.decisions, value, self.draws


class TickingStream:
    """A selection stream that calls ``tick(None)`` before each draw.

    ``select_best`` has no callback; this gives the pass clock one speed
    probe per draw.  The values drawn are the generator's own.
    """

    def __init__(self, generator, tick):
        self._generator = generator
        self._tick = tick

    def random(self, *args, **kwargs):
        self._tick(None)
        return self._generator.random(*args, **kwargs)


@dataclass(frozen=True)
class Sfw:
    """``sfw_run`` with the canonical step, or ``ls-sfw`` when ``line_search``."""

    iters: int
    schedule: object
    line_search: bool = False

    def run(self, setup, seed, carry, callback):
        rule = (
            frank_wolfe.LineSearchSfwStep.from_constants(setup.constants)
            if self.line_search
            else frank_wolfe.CanonicalStep()
        )
        profile, records = stochastic_fw.sfw_run(
            setup.instance, self.iters, self.schedule, seed, rule=rule, callback=callback
        )
        return records, profile.decisions, None, sum(r.n_draws for r in records)


@dataclass(frozen=True)
class Stop:
    """``stopping_time_run`` with its default draw cap."""

    iters: int

    def run(self, setup, seed, carry, callback):
        profile, records = stochastic_fw.stopping_time_run(
            setup.instance, self.iters, seed, callback=callback
        )
        return records, profile.decisions, None, sum(r.n_draws for r in records)


@dataclass(frozen=True)
class Workload:
    """A call sequence on one instance, with the accuracy it must reach.

    ``problem`` is ``("miqp", M, N)`` or ``("signs", N)``.  ``accuracy``
    bounds ``beta_k`` on FW records and the objective minus the reference
    on SFW records.
    """

    name: str
    problem: tuple
    calls: tuple
    accuracy: float

    def warmup(self) -> "Workload":
        """The same sequence cut to a few iterations and draws."""
        calls = tuple(
            dataclasses.replace(c, draws=min(c.draws, 5))
            if isinstance(c, Select)
            else dataclasses.replace(c, iters=min(c.iters, 5))
            for c in self.calls
        )
        return dataclasses.replace(self, calls=calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fw-select", ("miqp", 100, 1000), (Fw(200), Select(200)), accuracy=1e-6),
        Workload(
            "sfw-dense", ("miqp", 100, 100),
            (Sfw(200, stochastic_fw.ConstantSchedule(1000)),), accuracy=0.05,
        ),
        Workload(
            "sfw-closed-loop", ("miqp", 100, 100),
            (Sfw(199, stochastic_fw.QuadraticSchedule(24), line_search=True), Stop(199)),
            accuracy=0.1,
        ),
        Workload(
            "sfw-generic", ("signs", 1000),
            (Sfw(200, stochastic_fw.ConstantSchedule(10)), Stop(200)), accuracy=0.05,
        ),
    )
}


@dataclass(frozen=True)
class Setup:
    instance: object
    constants: object
    reference: float


def make_instance(workload: Workload):
    kind, *dims = workload.problem
    if kind == "miqp":
        return miqp.generate(dims[0], dims[1], seed=INSTANCE_SEED)
    return miqp.BalancedSignsInstance(dims[0])


def prepare(instance) -> Setup:
    """Constants and reference optimum of an instance."""
    constants = bounds.compute_constants(instance)
    reference = instance.relaxed_optimum(tol=REFERENCE_TOL).value
    return Setup(instance, constants, reference)


def setup_errors(workload: Workload, setup: Setup) -> list[str]:
    """The balanced-signs reference is -1 in closed form for every N."""
    if workload.problem[0] == "signs" and setup.reference != -1.0:
        return [f"{workload.name}: signs reference is {setup.reference!r}, expected -1"]
    return []


def pass_seed(run_seed: int, index: int) -> int:
    """Stream seed of the index-th pass of a run."""
    return (run_seed + index) % SEED_POOL


def checksum(records, decisions, value) -> str:
    """Hash of every record field except ``wall_ms``, plus the final decisions."""
    digest = hashlib.sha256()
    for record in records:
        fields = tuple(
            getattr(record, f.name) for f in dataclasses.fields(record) if f.name != "wall_ms"
        )
        digest.update(repr(fields).encode())
    digest.update(repr((None if decisions is None else tuple(decisions), value)).encode())
    return digest.hexdigest()[:16]


def certificate_errors(records, value, reference: float) -> list[str]:
    """FW: 0 <= primal gap <= beta_k at every step.  SFW and selection:
    no objective below the relaxed optimum."""
    errors = []
    for record in records:
        gap = record.objective - reference
        if gap < -GAP_TOL:
            errors.append(f"k={record.k}: objective {gap:.3e} below the reference")
        if isinstance(record, frank_wolfe.FwRecord) and gap - record.beta > GAP_TOL:
            errors.append(f"k={record.k}: primal gap {gap:.3e} exceeds beta {record.beta:.3e}")
    if value is not None and value - reference < -GAP_TOL:
        errors.append(f"selected value {value - reference:.3e} below the reference")
    return errors


# Speed probe.  On a 2-vCPU Xeon virtual machine the speed drifted by up
# to half between phases of a few seconds, on both vCPUs, which no
# median over a 20 s run removes.  Every timed window is therefore
# rescaled to the reference speed: multiplied by PROBE_REF_S over the
# median probe time around it. The probe runs in the solver callbacks,
# before each selection draw and around each call, and its own time is
# left out of every window.  It mixes the two kinds of work the solvers
# do, interpreter loops and small numpy and container allocations,
# because the slow phases hurt the second kind more (1.8x against 1.3x
# for a plain integer loop).
PROBE_REF_S = 7.5e-4


def probe() -> float:
    """Wall time of a fixed mix of interpreter and allocation work."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    for i in range(150):
        values = np.asarray((float(i), 1.0), dtype=float)
        dims = tuple(int(d) for d in (1, 1))
        total += bool(np.isfinite(values).all()) + len(dims)
        atoms = {d: w for w, d in ((0.5, 0), (0.5, 1))}
        total += len(atoms)
    return time.perf_counter() - start


def probed(fn, *args):
    """``fn(*args)``, its time at the reference speed, and the scale applied.

    The scale comes from one probe before the call and two after it.
    """
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    scale = PROBE_REF_S / statistics.median((before, probe(), probe()))
    return result, elapsed * scale, scale


@dataclass
class PassResult:
    """Timings of one pass, at the reference speed."""

    seed: int
    solve_s: float = 0.0  # all solver calls of the pass
    iter_s: list = field(default_factory=list)  # callback intervals of the first solver call
    cert_s: float | None = None  # pass start to the first record meeting the accuracy
    draws: int = 0  # profiles sampled: selection draws or SFW candidates
    draw_s: float = 0.0  # time of the calls that sampled them
    final_gap: float = float("nan")  # last call's final objective minus the reference
    speed: list = field(default_factory=list)  # reference over measured speed, per call
    checksums: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # certificate errors, one list per call


def run_pass(workload: Workload, setup: Setup, seed: int, wrap_callback=None) -> PassResult:
    """The workload's calls under one seed, timed and checked.

    Iteration times come from the first call that emits records (the
    workload's main solver; a stopping-time call after it would make
    their distribution bimodal).  The accuracy is checked on the last
    call that emits records, so the certificate clock runs through every
    call before it.  A traced run
    passes ``wrap_callback`` to put the callback (and its probe) in a
    span of its own, so that no solver span counts it as self time.
    """
    carry: dict = {}
    result = PassResult(seed)
    clock = time.perf_counter
    solver_calls = [i for i, c in enumerate(workload.calls) if not isinstance(c, Select)]
    iter_call, cert_call = solver_calls[0], solver_calls[-1]

    for index, call in enumerate(workload.calls):
        probes = [probe()]
        intervals: list = []
        cert_at = None  # number of intervals up to the certifying record
        paused = 0.0  # probe time inside the call
        start = last = clock()

        def callback(record):
            nonlocal cert_at, last, paused
            now = clock()
            intervals.append(now - last)
            if record is not None and index == cert_call and cert_at is None:
                fw = isinstance(record, frank_wolfe.FwRecord)
                gap = record.beta if fw else record.objective - setup.reference
                if gap <= workload.accuracy:
                    cert_at = len(intervals)
            probes.append(probe())
            last = clock()
            paused += last - now

        if wrap_callback is not None:
            callback = wrap_callback(callback)
        records, decisions, value, draws = call.run(setup, seed, carry, callback)
        elapsed = clock() - start - paused
        probes += [probe(), probe()]
        # Interval j ends at probe j + 1; it is scaled by the probes around
        # it, and the rest of the call by the call's median probe.
        scale = PROBE_REF_S / statistics.median(probes)
        scaled = [
            s * PROBE_REF_S / statistics.median(probes[max(0, j - 1) : j + 4])
            for j, s in enumerate(intervals)
        ]
        call_s = sum(scaled) + (elapsed - sum(intervals)) * scale
        if cert_at is not None:
            result.cert_s = result.solve_s + sum(scaled[:cert_at])
        result.solve_s += call_s
        if index == iter_call:
            result.iter_s += scaled
        result.speed.append(scale)
        if draws:
            result.draws += draws
            result.draw_s += call_s
        result.final_gap = (value if value is not None else records[-1].objective) - setup.reference
        result.checksums.append(checksum(records, decisions, value))
        result.errors.append(certificate_errors(records, value, setup.reference))
    if result.cert_s is None:
        result.errors[-1].append(f"accuracy {workload.accuracy} never reached")
    return result


def load_expected(path: Path = CHECKSUM_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Counts solver calls and the ones whose output is wrong."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def check_setup(self, workload: Workload, setup: Setup) -> None:
        self.attempted += 1  # the reference solve
        for message in setup_errors(workload, setup):
            self.fail(message)

    def check_pass(self, workload: Workload, result: PassResult) -> None:
        want = self.expected.get(workload.name, {}).get(str(result.seed))
        for index, (got, errors) in enumerate(zip(result.checksums, result.errors)):
            self.attempted += 1
            where = f"{workload.name} seed {result.seed} call {index}"
            if want is None or index >= len(want):
                self.fail(f"{where}: no recorded checksum")
            elif got != want[index]:
                self.fail(f"{where}: checksum {got} != recorded {want[index]}")
            elif errors:
                self.fail(f"{where}: {errors[0]} ({len(errors)} certificate errors)")

    def fail_pass(self, workload: Workload, seed: int, exc: BaseException) -> None:
        """A solver call raised: every call of the pass counts as failed."""
        self.attempted += len(workload.calls)
        self.failed += len(workload.calls)
        self.messages.append(f"{workload.name} seed {seed}: {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.failed == 0
