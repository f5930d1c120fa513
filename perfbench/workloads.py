"""The benchmark's workloads, each with the reason it exists.

Every workload builds its inputs from the seed alone, runs one kind of
operation (a trajectory step or a served request) a fixed number of times,
times each operation from outside the library, and gates every operation
for correctness.  The step count is derived from ``--seconds`` and a
nominal per-operation cost measured when the workload was defined, so the
same seed and seconds always give the same work and the same counts: a
faster program finishes the same work sooner instead of doing more of it.

Each run function returns an :class:`Outcome`.  Given a
:class:`~tracing.Tracer`, it runs the measured part twice in one process —
once plain, once with the tracer's layer wrappers installed — and reports
the per-layer metrics of the traced pass plus the traced-minus-plain
difference as the overhead.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import HamiltonianModel, build_matrices, water_box
from repro.chem.atoms import Atom, System
from repro.chem.basis import SZV
from repro.chem.density import reference_density_matrix
from repro.chem.orthogonalize import orthogonalized_ks
from repro.dbcsr.convert import block_matrix_from_csr
from repro.dbcsr.coo import CooBlockList
from repro.serve import AdmissionPolicy, DensityService

from tracing import Tracer, covered, union

N_ELECTRONS_PER_MOLECULE = 8.0
#: The library's default μ-bisection cap; a step that used all of it never
#: reached the bisection tolerance (counted as ``mu.capped_steps``).
MAX_MU_ITERATIONS = 200
#: A trajectory's set-up is measured this many times per run and reported
#: as the median (served_mixed: SERVED_SETUP_REPEATS).
SETUP_REPEATS = 3
#: Correctness gate of every trajectory step against its dense reference:
#: |electron count - target| and |band energy - reference| per atom.  At
#: T = 0 the submatrix electron count jumps with μ, so on some drifted
#: md_drift geometries no μ meets the bisection tolerance: the step exits at
#: MAX_MU_ITERATIONS off by up to 0.09 electrons and 2.0 meV/atom over 30
#: seeds (about 23 meV/atom per electron).  The gate admits that with a
#: margin of 2.5 and reports it (mu.electron_err, energy_err_meV_atom); one
#: misplaced orbital would be off by 2 electrons.
ELECTRON_TOL = 0.25
ENERGY_TOL_MEV_ATOM = 6.0

#: The bench_submatrix_engine basis: SZV with a shortened decay length, the
#: reproduction-scale stand-in for the saturated linear-scaling regime.
SHORT_SZV = dataclasses.replace(
    SZV, name="SZV-short-decay", decay_length=0.20, overlap_decay_length=0.16
)


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    trace: Optional[Tracer] = None
    trace_origin: float = 0.0
    summary: List[str] = dataclasses.field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ====================================================================== #
# trajectory workloads: md_drift, linear_sharded
# ====================================================================== #
@dataclasses.dataclass(frozen=True)
class TrajectorySpec:
    name: str
    why: str
    config: EngineConfig
    #: measured seconds per warm step when the workload was defined
    nominal_step_s: float
    make_inputs: Callable[[int, int], "TrajectoryInputs"]


@dataclasses.dataclass
class TrajectoryInputs:
    steps: List[Tuple[sp.csr_matrix, sp.csr_matrix]]
    blocks: object
    n_atoms: int
    n_electrons: float
    #: dense-reference band energy of every step (eV)
    reference_band: List[float]


def md_drift_inputs(seed: int, n_steps: int) -> TrajectoryInputs:
    """64 SZV molecules sampled along a seeded random walk of the atoms.

    The walk moves every atom by N(0, MD_DRIFT_SIGMA) Å per sub-step, and a
    sub-step becomes the next trajectory step once the filtered block
    pattern differs from the previous step's in at least MD_DRIFT_MIN_DELTA
    blocks.  Every step therefore patches a similar share of the plan: taken
    as they came, a third of the sub-steps changed 0-2 blocks, and the
    number of cached plans, and with it the peak RSS, varied by a fifth
    between seeds.
    """
    base = water_box((2, 1, 1))
    model = HamiltonianModel()
    eps_filter = MD_DRIFT.config.eps_filter
    rng = np.random.default_rng(seed)
    n_electrons = N_ELECTRONS_PER_MOLECULE * base.n_molecules
    positions = base.positions.copy()
    steps, reference_band, previous = [], [], None
    while len(steps) < n_steps:
        positions = positions + rng.normal(0.0, MD_DRIFT_SIGMA, positions.shape)
        system = System(
            [Atom(a.symbol, p, a.molecule) for a, p in zip(base.atoms, positions)],
            base.cell,
        )
        pair = build_matrices(system, model=model)
        pattern = block_pattern(pair, eps_filter)
        if previous is not None and len(pattern ^ previous) < MD_DRIFT_MIN_DELTA:
            continue
        previous = pattern
        steps.append((pair.K, pair.S))
        reference_band.append(
            reference_density_matrix(pair.K, pair.S, n_electrons=n_electrons).band_energy
        )
    return TrajectoryInputs(steps, pair.blocks, base.n_atoms, n_electrons, reference_band)


def block_pattern(pair, eps_filter: float) -> set:
    """The (row, col) blocks of the filtered orthogonalized K."""
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=eps_filter)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)
    coo = CooBlockList.from_block_matrix(blocked)
    return set(zip(coo.rows.tolist(), coo.cols.tolist()))


def linear_sharded_inputs(seed: int, n_steps: int) -> TrajectoryInputs:
    """256 short-decay SZV molecules; value-only steps K·(1 + 1e-4·ξ), S fixed.

    Scaling K by c > 0 scales every orbital energy by c and keeps the
    eigenvectors, so the canonical T = 0 reference density is unchanged and
    the reference band energy is exactly c times that of the unscaled K: one
    dense reference serves every step.
    """
    system = water_box((8, 1, 1))
    pair = build_matrices(system, model=HamiltonianModel(basis=SHORT_SZV))
    rng = np.random.default_rng(seed)
    n_electrons = N_ELECTRONS_PER_MOLECULE * system.n_molecules
    base_band = reference_density_matrix(pair.K, pair.S, n_electrons=n_electrons).band_energy
    scales = 1.0 + 1e-4 * rng.standard_normal(n_steps)
    steps = [(pair.K * float(c), pair.S) for c in scales]
    return TrajectoryInputs(
        steps, pair.blocks, system.n_atoms, n_electrons, [float(c) * base_band for c in scales]
    )


#: Per-sub-step atom displacement (Å) of the md_drift random walk, and the
#: block-pattern change (blocks, counting both triangles) that makes a
#: sub-step the next trajectory step.
MD_DRIFT_SIGMA = 0.004
MD_DRIFT_MIN_DELTA = 8

MD_DRIFT = TrajectorySpec(
    name="md_drift",
    why=(
        "The paper's production loop with pattern drift. 64 SZV waters "
        "(384 basis functions), eps_filter 1e-3, canonical T=0, driven "
        "through trajectory(replan='auto'). Steps are frames of a seeded "
        "random walk of the atoms (0.004 A per sub-step), each taken once the "
        "filtered pattern changed in at least 8 blocks; K, S and the dense "
        "references are built before the timed region. Every step is "
        "patched, rebuilding 52-64 of 64 column groups, and submatrices are "
        "large (max 288, mean 274). Traced on a 2-core x86 machine, plan "
        "patching (0.74 s) and the batched eigendecomposition (0.74 s) carry "
        "85 % of a 1.75 s step; block conversion 0.18 s, assembly 0.05 s, "
        "preparation 0.02 s. Every step exits the mu bisection at its "
        "200-iteration cap, some up to 0.06 electrons off. 64 rather than 128 "
        "molecules: a 128-molecule step takes 3-4 s, too few per run for a "
        "steady median, in the same submatrix regime."
    ),
    config=EngineConfig(engine="batched", backend="thread", eps_filter=1e-3),
    nominal_step_s=2.1,
    make_inputs=md_drift_inputs,
)

LINEAR_SHARDED = TrajectorySpec(
    name="linear_sharded",
    why=(
        "The saturated linear-scaling regime. 256 short-decay SZV waters "
        "(1536 basis functions, 256 block columns), eps_filter 1e-4, "
        "canonical T=0, value-only steps (one plan build), n_ranks=2 with "
        "overlap=True. Submatrices are tiny (max 18, mean 9), so the "
        "eigendecomposition is negligible (0.006 s a step). The only "
        "workload on core.shard/transfers/overlap, parallel.comm and the "
        "trajectory prefetch. Traced, the dense O(N^3) Loewdin preparation "
        "dominates: 1.17 s a step in the prefetch worker process, against a "
        "1.2-1.3 s observed step, overlapping the 0.33 s dense back-transform "
        "in assembly on the main thread. Block conversion was predicted to "
        "dominate too but takes 0.03 s here: the blocks are few and small. "
        "The library's own step record reports 0.02 s a step, which is why "
        "steps are timed from outside."
    ),
    config=EngineConfig(
        engine="batched", backend="thread", eps_filter=1e-4, n_ranks=2, overlap=True
    ),
    nominal_step_s=1.2,
    make_inputs=linear_sharded_inputs,
)


#: serving-layer metrics, 0 on the trajectory workloads that bypass it
SERVE_METRICS = (
    "serve.batch_size_mean",
    "serve.shared_frac",
    "serve.decomp_hit_rate",
    "serve.plan_hit_rate",
    "serve.rejected",
    "serve.failed",
    "serve.gen_lag_ms_p90",
)


@dataclasses.dataclass
class TrajectoryPass:
    start: float
    completions: List[float]
    results: list
    stats: object
    plan_cache_bytes: int

    @property
    def setup_s(self) -> float:
        return self.completions[0] - self.start

    @property
    def intervals(self) -> List[float]:
        return list(np.diff(self.completions))


def _drive(spec: TrajectorySpec, inputs: TrajectoryInputs, steps) -> TrajectoryPass:
    completions: List[float] = []
    start = time.perf_counter()
    context = SubmatrixContext(spec.config)
    try:
        trajectory = context.trajectory(
            steps,
            inputs.blocks,
            n_electrons=inputs.n_electrons,
            replan="auto",
            max_mu_iterations=MAX_MU_ITERATIONS,
            on_step=lambda index, result: completions.append(time.perf_counter()),
        )
        cache_bytes = context.plan_cache.total_bytes
    finally:
        context.close()
    return TrajectoryPass(start, completions, trajectory.results, trajectory.stats, cache_bytes)


def _gate(inputs: TrajectoryInputs, results) -> Tuple[int, float, float]:
    """Failures, max electron error, max band-energy error (meV/atom)."""
    failed, electron_err, energy_err = 0, 0.0, 0.0
    for result, reference in zip(results, inputs.reference_band):
        e_err = abs(result.n_electrons - inputs.n_electrons)
        b_err = 1000.0 * abs(result.band_energy - reference) / inputs.n_atoms
        electron_err, energy_err = max(electron_err, e_err), max(energy_err, b_err)
        ok = (
            np.isfinite(result.band_energy)
            and e_err <= ELECTRON_TOL
            and b_err <= ENERGY_TOL_MEV_ATOM
        )
        failed += 0 if ok else 1
    return failed, electron_err, energy_err


def run_trajectory(
    spec: TrajectorySpec, seed: int, seconds: float, tracer: Optional[Tracer]
) -> Outcome:
    n_measured = max(4, int(round(seconds / spec.nominal_step_s)))
    inputs = spec.make_inputs(seed, n_measured + 1)

    passes = []
    if tracer is None:
        passes = [_drive(spec, inputs, inputs.steps[:1]) for _ in range(SETUP_REPEATS - 1)]
    plain = _drive(spec, inputs, inputs.steps)
    passes.append(plain)
    setups = [p.setup_s for p in passes]

    attempted = sum(len(p.completions) for p in passes[:-1]) + len(inputs.steps)
    failed = attempted - sum(len(p.results) for p in passes)
    electron_err = energy_err = 0.0
    for p in passes:
        p_failed, p_electron, p_energy = _gate(inputs, p.results)
        failed += p_failed
        electron_err, energy_err = max(electron_err, p_electron), max(energy_err, p_energy)
    intervals = plain.intervals
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * percentile(intervals, 50),
        "latency_p90_ms": 1000.0 * percentile(intervals, 90),
        "throughput_per_s": len(intervals) / (plain.completions[-1] - plain.completions[0]),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = [
        f"{spec.name}: {attempted} steps ({len(intervals)} timed intervals), "
        f"{failed} failed; setup samples {[round(s, 3) for s in setups]}",
        f"  max electron error {electron_err:.3g}, max band-energy error "
        f"{energy_err:.3g} meV/atom",
    ]
    outcome = Outcome(attempted, failed, end_to_end, {}, summary=summary)
    if tracer is not None:
        with tracer:
            traced = _drive(spec, inputs, inputs.steps)
        t_failed, t_electron, t_energy = _gate(inputs, traced.results)
        outcome.failed += t_failed + len(inputs.steps) - len(traced.results)
        outcome.attempted += len(inputs.steps)
        outcome.per_layer = _trajectory_layers(
            plain, traced, tracer, (t_electron, t_energy)
        )
        outcome.trace, outcome.trace_origin = tracer, traced.start
    return outcome


def _trajectory_layers(plain: TrajectoryPass, traced: TrajectoryPass, tracer: Tracer, errors) -> Dict[str, float]:
    layers = tracer.self_intervals()
    window = (traced.completions[0], traced.completions[-1])
    n = len(traced.completions) - 1

    def per_step(layer: str) -> float:
        return covered(layers.get(layer, []), window) / n

    names = {
        "prep.orthogonalize_s": "prep",
        "dbcsr.s": "dbcsr",
        "plan.build_s": "plan",
        "decompose.eigh_s": "decompose",
        "assemble.s": "assemble",
        "mu.bisect_s": "mu",
        "exchange.pipeline_s": "exchange",
    }
    out = {metric: per_step(layer) for metric, layer in names.items()}
    out.update(_dbcsr_split(tracer, window, n))
    observed = float(np.mean(traced.intervals))
    accounted = covered(union([iv for ivs in layers.values() for iv in ivs]), window) / n
    stats, records = traced.stats, traced.stats.steps
    measured = traced.results[1:]
    decompose_spans = [
        s for s in tracer.finished() if s.layer == "decompose" and window[0] < s.start <= window[1]
    ]
    gflop = _gflop(decompose_spans)
    segment = [r.segment_fetch_bytes for r in measured if r.segment_fetch_bytes is not None]
    block = [r.block_fetch_bytes for r in measured if r.block_fetch_bytes is not None]
    out.update(
        {
            "plan.cold_build_s": covered(layers.get("plan", []), (traced.start, traced.completions[0])),
            "plan.builds": float(stats.plans_built),
            "plan.patches": float(stats.plans_patched),
            "plan.groups_rebuilt": float(stats.groups_rebuilt),
            "plan.hit_rate": float(stats.reuse_rate),
            "plan.cache_bytes": float(traced.plan_cache_bytes),
            "decompose.stacks": float(len(decompose_spans)) / n,
            "decompose.gflop": gflop / n,
            "decompose.gflops_rate": gflop / (n * out["decompose.eigh_s"]) if out["decompose.eigh_s"] else 0.0,
            "mu.iterations": float(np.mean([r.mu_iterations for r in records])),
            "mu.capped_steps": float(sum(r.mu_iterations >= MAX_MU_ITERATIONS for r in records)),
            "mu.electron_err": errors[0],
            "energy_err_meV_atom": errors[1],
            "exchange.segment_bytes": float(np.mean(segment)) if segment else 0.0,
            "exchange.block_bytes": float(np.mean(block)) if block else 0.0,
            "exchange.hidden_frac": float(stats.exchange_hidden_fraction),
            "pipeline.builds": float(stats.pipelines_built + stats.pipelines_patched),
            "trajectory.steps_prefetched": float(stats.steps_prefetched),
            "trajectory.reported_step_s": float(np.median([r.wall_time for r in records[1:]])),
            "trajectory.observed_step_s": observed,
            "trajectory.wait_s": observed - accounted,
            "trace.overhead_frac": statistics.median(traced.intervals) / statistics.median(plain.intervals) - 1.0,
        }
    )
    out.update(dict.fromkeys(SERVE_METRICS, 0.0))
    return out


def _dbcsr_split(tracer: Tracer, window, n: int) -> Dict[str, float]:
    """Per-step wall time of each dbcsr entry point (spans, not self time:
    the conversions call no other traced layer)."""
    out = {"dbcsr.from_csr_s": 0.0, "dbcsr.to_csr_s": 0.0, "dbcsr.coo_s": 0.0}
    key = {"from_csr": "dbcsr.from_csr_s", "to_csr": "dbcsr.to_csr_s", "coo": "dbcsr.coo_s"}
    for span in tracer.finished():
        if span.layer == "dbcsr" and window[0] < span.start <= window[1]:
            out[key[span.name]] += (span.end - span.start) / n
    return out


def _gflop(spans) -> float:
    """Computed eigendecomposition work, 9·n³ flop per n×n matrix, from the
    shapes of the decomposed stacks (computed, not measured)."""
    total = 0.0
    for span in spans:
        if span.shape and len(span.shape) >= 2:
            n = span.shape[-1]
            total += 9.0 * math.prod(span.shape[:-2]) * float(n) ** 3
    return total / 1e9


# ====================================================================== #
# served workload: served_mixed
# ====================================================================== #
SERVED_WHY = (
    "Multi-tenant traffic with hot caches. A library of 4 distinct "
    "32-molecule SZV boxes (seeds 2020-2023), three tenants, half "
    "grand-canonical and half canonical requests, observable sets rotating "
    "over {density}, {density,pdos}, {density,energy_weighted_density}. "
    "DensityService with default knobs except two dispatch workers, plus a "
    "decomposition cache that outlives the run and admission limits that "
    "refuse nothing; one "
    "request per box warms the caches untimed. Phase A: 140 open-loop "
    "arrivals from one generator thread at 4 req/s, gaps jittered by +-25 %, "
    "each request timed from its due time. Phase B: a burst of 32 requests "
    "submitted at once, run after each fifth of phase A. Traced, the "
    "decomposition cache hits 98 % and planning and the eigendecomposition are bypassed, so they should not move this "
    "workload (the prediction that they would does not hold once the cache "
    "is hot); block-to-CSR conversion (0.03 s) and observable assembly "
    "(0.02 s) carry a request, and the micro-batcher, dedup, decomposition "
    "cache and admission run only here. A 1 s cache TTL made about half of "
    "the requests miss at random, which moved the p50 by 20 % between seeds."
)
SERVED_BOXES = 4
SERVED_TENANTS = 3
#: Open-loop offered rate (requests/s), about a quarter of the ~15 req/s
#: the burst reaches with hot caches on a 2-core x86 machine.
SERVED_RATE = 4.0
#: At least 140 timed requests.  The p50 of 100 requests taken in 33 s
#: moved by 13 % and 26 % (IQR over median) in two sets of ten seeds on a
#: shared 2-core x86 host; more requests over a longer window average more
#: of the host's changing load.
SERVED_MIN_REQUESTS = 140
SERVED_BURST = 32
#: The open-loop requests are split into this many segments, each followed
#: by a burst, and the throughput is pooled over all bursts.  How a single
#: burst splits into micro-batches depends on thread timing (one burst ran
#: at 13 to 19 req/s), and bursts run back to back all sampled the same few
#: seconds of host load; spread over the run they sample all of it.
SERVED_BURSTS = 5
#: Service set-up (construction through the first request) is cheap, so it
#: is sampled more often than a trajectory's.
SERVED_SETUP_REPEATS = 5
#: longer than a run, so the library stays cached (see SERVED_WHY)
SERVED_TTL_S = 60.0
#: One dispatch thread per core of the 2-core machine the workload was
#: defined on.  Replaying one schedule three times with each count in turn
#: in one process, the p90 ranged over 71-88 ms with the default eight and
#: 84-85 ms with two, and the p50 over 56-64 ms and 57-60 ms.
SERVED_DISPATCH_WORKERS = 2
SERVED_OBSERVABLES = (
    ("density",),
    ("density", "pdos"),
    ("density", "energy_weighted_density"),
)
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")
SERVED_CONFIG = EngineConfig(engine="batched", backend="thread")
#: fields that record how long something took, not what was computed
TIMING_FIELDS = frozenset({"wall_time", "overlap_seconds"})


def _served_policy() -> AdmissionPolicy:
    return AdmissionPolicy(max_in_flight=4096, max_in_flight_per_tenant=4096)


def _request_mix(n: int, rng: Optional[np.random.Generator] = None):
    """``n`` requests of fixed composition, in seeded order.

    Every (box, ensemble, observable set) combination appears equally
    often; the seed only shuffles them, so every seed offers the same
    work.  Without a generator the order is the fixed product order.
    Tenants take turns.
    """
    combos = list(
        itertools.product(range(SERVED_BOXES), ("mu", "n_electrons"), range(len(SERVED_OBSERVABLES)))
    )
    mix = [combos[i % len(combos)] for i in range(n)]
    order = range(n) if rng is None else rng.permutation(n)
    return [(f"tenant-{k % SERVED_TENANTS}",) + mix[i] for k, i in enumerate(order)]


def arrival_gaps(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Open-loop inter-arrival gaps: the mean gap 1/rate, jittered uniformly
    by ±25 %.

    The shortest gap, 0.75/rate, is longer than the slowest request takes
    alone, so a request waits for another only when the program stalls.
    Poisson gaps at the same rate let a few arrival clusters set the p90,
    which moved by 29 % (IQR over median) across ten seeds on a 2-core x86
    machine, beyond the benchmark's bound.
    """
    return rng.uniform(0.75, 1.25, n) / rate


def identical(a, b) -> bool:
    """Bitwise equality of two results, ignoring timing fields."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if f.name not in TIMING_FIELDS
        )
    if sp.issparse(a):
        return sp.issparse(b) and a.shape == b.shape and (a != b).nnz == 0
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    return a == b


class ServedLibrary:
    def __init__(self):
        model = HamiltonianModel()
        self.mu = model.homo_lumo_gap_center()
        self.pairs = [
            build_matrices(water_box(1, seed=2020 + index), model=model)
            for index in range(SERVED_BOXES)
        ]
        self.n_atoms = water_box(1).n_atoms
        self.n_electrons = N_ELECTRONS_PER_MOLECULE * 32
        self.ensembles = {"mu": {"mu": self.mu}, "n_electrons": {"n_electrons": self.n_electrons}}

    def references(self):
        """Direct-call results (every observable) and dense band energies."""
        direct, dense = {}, {}
        with SubmatrixContext(SERVED_CONFIG) as context:
            for box, pair in enumerate(self.pairs):
                for kind, ensemble in self.ensembles.items():
                    direct[box, kind] = context.observables(
                        pair.K, pair.S, pair.blocks, observables=ALL_OBSERVABLES, **ensemble
                    )
                    dense[box, kind] = reference_density_matrix(pair.K, pair.S, **ensemble)
        return direct, dense

    def submit(self, service, tenant, box, kind, observables):
        pair = self.pairs[box]
        return service.submit(
            pair.K,
            pair.S,
            pair.blocks,
            tenant=tenant,
            observables=SERVED_OBSERVABLES[observables],
            max_mu_iterations=MAX_MU_ITERATIONS,
            **self.ensembles[kind],
        )


@dataclasses.dataclass(frozen=True)
class ServedCheck:
    """What the gate keeps of a served result that passed or failed it."""
    box: int
    kind: str
    band_energy: float
    n_electrons: float
    mu_iterations: int


class ServedGate:
    """Gates served results bitwise against direct calls as they arrive.

    Only a :class:`ServedCheck` of each result is kept: holding every
    result until the end of the run grew the process by about 200 MB, so
    ``peak_rss_mb`` measured the benchmark's copies rather than the service.
    """

    def __init__(self, direct):
        self.direct = direct
        self.attempted = 0
        self.failed = 0
        self.checks: List[ServedCheck] = []

    def __call__(self, requests, results) -> None:
        for (tenant, box, kind, obs), result in zip(requests, results):
            self.attempted += 1
            if result is None:
                self.failed += 1
                continue
            reference = self.direct[box, kind]
            names = SERVED_OBSERVABLES[obs]
            if names == ("density",):
                ok = identical(result, reference.results["density"])
                density = result
            else:
                ok = all(identical(result.results[n], reference.results[n]) for n in names)
                density = result.results["density"]
            self.failed += 0 if ok else 1
            self.checks.append(
                ServedCheck(box, kind, density.band_energy, density.n_electrons, density.mu_iterations)
            )


@dataclasses.dataclass
class ServedPass:
    setup_s: float
    start: float
    end: float
    latencies_s: List[float]
    gen_lag_s: List[float]
    burst_rps: float
    errors: List[str]
    stats: dict


def _submit(library, service, request, errors):
    try:
        return library.submit(service, *request)
    except Exception as error:  # an admission refusal counts as a failure
        errors.append(repr(error))
        return None


def _collect(futures, errors) -> list:
    results = []
    for future in futures:
        try:
            results.append(None if future is None else future.result(600))
        except Exception as error:
            errors.append(repr(error))
            results.append(None)
    return results


#: the request whose completion ends a service's set-up
SETUP_REQUEST = ("setup", 0, "mu", 0)


def _open_service(library: ServedLibrary, gate: ServedGate, errors: List[str]):
    """A new service and its set-up time through the first completed
    request, which is gated."""
    start = time.perf_counter()
    service = DensityService(
        config=SERVED_CONFIG,
        policy=_served_policy(),
        decomposition_ttl=SERVED_TTL_S,
        dispatch_workers=SERVED_DISPATCH_WORKERS,
    )
    try:
        results = _collect([_submit(library, service, SETUP_REQUEST, errors)], errors)
        setup_s = time.perf_counter() - start
        gate([SETUP_REQUEST], results)
    except BaseException:
        service.close()
        raise
    return service, setup_s


def _open_loop(library, service, requests, errors):
    """Submit ``requests`` (each ``(due, *request)``, due in seconds from
    now) on schedule from this thread; their results, latencies from due
    time and generator lags."""
    done_at = [math.nan] * len(requests)
    futures, lags = [], []
    start = time.perf_counter()
    for index, (due, *request) in enumerate(requests):
        due_at = start + due
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - due_at)
        future = _submit(library, service, request, errors)
        if future is not None:
            future.add_done_callback(
                lambda f, i=index: done_at.__setitem__(i, time.perf_counter())
            )
        futures.append(future)
    results = _collect(futures, errors)
    latencies = [
        done_at[i] - (start + requests[i][0])
        for i, result in enumerate(results)
        if result is not None
    ]
    return results, latencies, lags


def _serve(library: ServedLibrary, gate: ServedGate, warm, segments, burst) -> ServedPass:
    """Set up a service, warm its caches, then run each open-loop segment
    to completion followed by a burst, gating every result."""
    errors: List[str] = []
    service, setup_s = _open_service(library, gate, errors)
    try:
        gate(warm, _collect([_submit(library, service, r, errors) for r in warm], errors))
        latencies, lags = [], []
        burst_done, burst_seconds = 0, 0.0
        phase_start = time.perf_counter()
        for requests in segments:
            segment_results, segment_latencies, segment_lags = _open_loop(
                library, service, requests, errors
            )
            gate([request[1:] for request in requests], segment_results)
            latencies += segment_latencies
            lags += segment_lags
            burst_start = time.perf_counter()
            futures = [_submit(library, service, request, errors) for request in burst]
            burst_results = _collect(futures, errors)
            burst_seconds += time.perf_counter() - burst_start
            burst_done += sum(r is not None for r in burst_results)
            gate(burst, burst_results)
        phase_end = time.perf_counter()
        stats = service.stats()
    finally:
        service.close()
    return ServedPass(
        setup_s=setup_s,
        start=phase_start,
        end=phase_end,
        latencies_s=latencies,
        gen_lag_s=lags,
        burst_rps=burst_done / burst_seconds,
        errors=errors,
        stats=stats,
    )


def run_served(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    library = ServedLibrary()
    direct, dense = library.references()
    rng = np.random.default_rng(seed)
    n_a = max(SERVED_MIN_REQUESTS, int(round(seconds * SERVED_RATE)))
    due = np.cumsum(arrival_gaps(rng, n_a, SERVED_RATE))
    mix_a = _request_mix(n_a, rng)
    # the burst's order is fixed: how many neighbours the micro-batcher can
    # coalesce depends on it, and a seeded order moved throughput by 20 %
    mix_b = _request_mix(SERVED_BURST)
    # each segment's due times count from its own start
    segments = []
    for chunk in np.array_split(np.arange(n_a), SERVED_BURSTS):
        offset = due[chunk[0] - 1] if chunk[0] else 0.0
        segments.append([(float(due[i] - offset),) + mix_a[i] for i in chunk])
    # one request per library box fills the decomposition cache before the
    # timed phases, so they measure steady state, not the cold start
    warm = [("warm-up", box, "mu", 0) for box in range(SERVED_BOXES)]

    gate = ServedGate(direct)
    setups: List[float] = []
    setup_errors: List[str] = []
    if tracer is None:
        for _ in range(SERVED_SETUP_REPEATS - 1):
            service, setup_s = _open_service(library, gate, setup_errors)
            service.close()
            setups.append(setup_s)
    plain = _serve(library, gate, warm, segments, mix_b)
    setups.append(plain.setup_s)
    attempted, failed = gate.attempted, gate.failed
    end_to_end = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * percentile(plain.latencies_s, 50),
        "latency_p90_ms": 1000.0 * percentile(plain.latencies_s, 90),
        "throughput_per_s": plain.burst_rps,
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = [
        f"served_mixed: {n_a} open-loop requests at {SERVED_RATE} req/s "
        f"(p90 over {len(plain.latencies_s)} samples) in {SERVED_BURSTS} segments, "
        f"each followed by a burst of {SERVED_BURST}, {attempted} requests in all, "
        f"{failed} failed; setup samples {[round(s, 3) for s in setups]}",
    ] + [f"  error: {e}" for e in (setup_errors + plain.errors)[:5]]
    outcome = Outcome(attempted, failed, end_to_end, {}, summary=summary)
    if tracer is not None:
        traced_gate = ServedGate(direct)
        with tracer:
            traced = _serve(library, traced_gate, warm, segments, mix_b)
        outcome.attempted += traced_gate.attempted
        outcome.failed += traced_gate.failed
        outcome.per_layer = _served_layers(
            plain, traced, tracer, library, dense, traced_gate.checks,
            n_a + len(mix_b) * SERVED_BURSTS,
        )
        outcome.trace, outcome.trace_origin = tracer, traced.start
    return outcome


def _served_layers(plain, traced, tracer, library, dense, checks, n_requests) -> Dict[str, float]:
    layers = tracer.self_intervals()
    window = (traced.start, traced.end)

    def per_request(layer: str) -> float:
        return covered(layers.get(layer, []), window) / n_requests

    out = {
        "prep.orthogonalize_s": per_request("prep"),
        "dbcsr.s": per_request("dbcsr"),
        "plan.build_s": per_request("plan"),
        "decompose.eigh_s": per_request("decompose"),
        "assemble.s": per_request("assemble"),
        "mu.bisect_s": per_request("mu"),
        "exchange.pipeline_s": per_request("exchange"),
    }
    out.update(_dbcsr_split(tracer, window, n_requests))
    decompose_spans = [
        s for s in tracer.finished() if s.layer == "decompose" and window[0] < s.start <= window[1]
    ]
    gflop = _gflop(decompose_spans)
    stats = traced.stats
    total = stats["metrics"]["total"]
    cache = stats["plan_cache"]
    decomposition = stats.get("decomposition_cache") or {}
    d_lookups = decomposition.get("hits", 0) + decomposition.get("misses", 0)
    canonical = [c for c in checks if c.kind == "n_electrons"]
    energy_err = max(
        1000.0 * abs(c.band_energy - dense[c.box, c.kind].band_energy) / library.n_atoms
        for c in checks
    )
    out.update(
        {
            "plan.cold_build_s": covered(layers.get("plan", []), (traced.start - traced.setup_s, traced.start)),
            "plan.builds": float(cache["builds"]),
            "plan.patches": float(cache["patches"]),
            "plan.groups_rebuilt": float(cache["groups_rebuilt"]),
            "plan.hit_rate": float(stats["plan_cache_hit_rate"]),
            "plan.cache_bytes": float(stats["plan_cache_bytes"]),
            "decompose.stacks": float(len(decompose_spans)) / n_requests,
            "decompose.gflop": gflop / n_requests,
            "decompose.gflops_rate": gflop / (n_requests * out["decompose.eigh_s"]) if out["decompose.eigh_s"] else 0.0,
            "mu.iterations": float(np.mean([d.mu_iterations for d in canonical])),
            "mu.capped_steps": float(sum(d.mu_iterations >= MAX_MU_ITERATIONS for d in canonical)),
            "mu.electron_err": max(abs(d.n_electrons - library.n_electrons) for d in canonical),
            "energy_err_meV_atom": energy_err,
            "exchange.segment_bytes": 0.0,
            "exchange.block_bytes": 0.0,
            "exchange.hidden_frac": 0.0,
            "pipeline.builds": 0.0,
            "trajectory.steps_prefetched": 0.0,
            "trajectory.reported_step_s": 0.0,
            "trajectory.observed_step_s": 0.0,
            "trajectory.wait_s": 0.0,
            "serve.batch_size_mean": total["coalesced"] / total["batched"] if total["batched"] else 1.0,
            "serve.shared_frac": total["shared"] / max(1, total["completed"]),
            "serve.decomp_hit_rate": decomposition.get("hits", 0) / d_lookups if d_lookups else 0.0,
            "serve.plan_hit_rate": float(stats["plan_cache_hit_rate"]),
            "serve.rejected": float(total["rejected"]),
            "serve.failed": float(total["failed"]),
            "serve.gen_lag_ms_p90": 1000.0 * percentile(traced.gen_lag_s, 90),
            "trace.overhead_frac": percentile(traced.latencies_s, 50) / percentile(plain.latencies_s, 50) - 1.0,
        }
    )
    return out


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, float, Optional[Tracer]], Outcome]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(MD_DRIFT.name, MD_DRIFT.why, lambda s, t, tr: run_trajectory(MD_DRIFT, s, t, tr)),
        Workload(
            LINEAR_SHARDED.name,
            LINEAR_SHARDED.why,
            lambda s, t, tr: run_trajectory(LINEAR_SHARDED, s, t, tr),
        ),
        Workload("served_mixed", SERVED_WHY, run_served),
    )
}
