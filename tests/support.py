"""Shared instance builders for the test suite."""

import math
from types import SimpleNamespace

from mecoffload import (
    GenerationSpec,
    Instance,
    UserProfile,
    energy,
    generate_instance,
    harness,
    lp,
    rate,
)
from mecoffload.harness import SweepSpec
from mecoffload.lp import LpProblem
from mecoffload.rng import _GOLDEN, MASK64, _scramble, mix64


class SplitMix64:
    """The scalar SplitMix64 stream of 64-bit words and unit-interval
    doubles: the reference that `rng.uniform_rows` draws a block of."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _scramble(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits give the usual dyadic rational in [0, 1).
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u


def required_compute_time(instance, partition, s1) -> float:
    """Shortest parallel-computing window for the given optional set: the
    slowest full task among scheduled saving users, or the slowest forced
    minimum among costly ones, at the interference-degraded rate."""
    return energy._window(instance, *energy._commitment(instance, partition, s1))


def make_user(i=0, *, weight=1.0, a=1.0, b=1.0, gamma=1e-9, r=1.0, task=0.0,
              cycles=1.0, freq=1.0, kappa=1e-30, power=1.0):
    """Toy user with second/bit scales chosen for hand arithmetic."""
    return UserProfile(
        id=i,
        weight=weight,
        uplink_time_per_bit=a,
        downlink_time_per_bit=b,
        output_ratio=gamma,
        service_rate=r,
        task_bits=task,
        cycles_per_bit=cycles,
        cpu_freq=freq,
        energy_coeff=kappa,
        tx_power=power,
    )


def make_instance(users, *, deadline=1.0, degradation=0.0):
    return Instance(deadline=deadline, degradation=degradation, users=tuple(users))


def unit_roundtrip_user(i, *, r=1.0, weight=1.0, **kw):
    """User with a + b*gamma == 1 s/bit exactly."""
    return make_user(i, weight=weight, a=0.5, b=0.5, gamma=1.0, r=r, **kw)


def stock_instance(n_users, degradation, seed, deadline=0.035):
    """Instance drawn from the stock parameter distributions."""
    spec = GenerationSpec(n_users=n_users, deadline_s=deadline, degradation=degradation)
    return generate_instance(spec, seed)


def homogeneous_instance(n_users, degradation, seed, deadline=0.035):
    """Identical users; the shared parameters are drawn once from the stock ranges."""
    rng = SplitMix64(mix64(0x48, seed))
    a = 1.0 / (rng.uniform(100.0, 150.0) * 1e6)
    b = 1.0 / (rng.uniform(150.0, 200.0) * 1e6)
    gamma = 10.0 ** (-rng.uniform(0.5, 1.5))
    r = rng.uniform(1e7, 2e7)
    users = tuple(
        make_user(i, a=a, b=b, gamma=gamma, r=r, task=1.0, cycles=500.0, freq=2e8,
                  kappa=1e-28, power=0.1)
        for i in range(n_users)
    )
    return make_instance(users, deadline=deadline, degradation=degradation)


def homogeneous_txrate_instance(n_users, degradation, seed, deadline=0.035):
    """One shared transmission rate, per-user service rates."""
    rng = SplitMix64(mix64(0x54, seed))
    a = 1.0 / (rng.uniform(100.0, 150.0) * 1e6)
    b = 1.0 / (rng.uniform(150.0, 200.0) * 1e6)
    gamma = 10.0 ** (-rng.uniform(0.5, 1.5))
    users = tuple(
        make_user(i, a=a, b=b, gamma=gamma, r=rng.uniform(1e7, 2e7), task=1.0,
                  cycles=500.0, freq=2e8, kappa=1e-28, power=0.1)
        for i in range(n_users)
    )
    return make_instance(users, deadline=deadline, degradation=degradation)


def random_lp_problem(rng: SplitMix64, n_vars=4, n_rows=4) -> LpProblem:
    """Small integer-coefficient LP; lower bounds keep the region pointed."""
    objective = [float(int(rng.uniform(-3, 4))) for _ in range(n_vars)]
    coeffs, relations, rhs = [], [], []
    for _ in range(n_rows):
        coeffs.append([float(int(rng.uniform(-3, 4))) for _ in range(n_vars)])
        relations.append(("<=", ">=", "=")[int(rng.uniform(0, 3))])
        rhs.append(float(int(rng.uniform(-4, 9))))
    bounds = []
    for _ in range(n_vars):
        upper = 5.0 if rng.uniform() < 0.7 else math.inf
        bounds.append((0.0, upper))
    return LpProblem(objective, coeffs, relations, rhs, bounds)


def stock_energy_lps(realizations=10):
    """The LPs of certified stock energy-vs-T and energy-vs-d sweeps (seed
    7, `realizations` per grid point), built from their instances one
    instance after another: every subset LP of the exhaustive energy
    oracle in mask order, the heuristic's LP-branch LP where it takes that
    branch, and the all-offload LP where the deadline is not below t_min
    (below it the benchmark builds none)."""
    problems = []
    for experiment in ("energy-vs-T", "energy-vs-d"):
        spec = SweepSpec(experiment=experiment, realizations=realizations, base_seed=7)
        spec = spec.normalized()
        for gi, value in enumerate(spec.grid):
            generation = harness._generation_spec(spec, value)
            for ri in range(realizations):
                instance = generate_instance(generation, mix64(7, gi, ri))
                problems += subset_lps(instance)
                if energy.solve_energy_suboptimal(instance).status == "lp-path":
                    problems.append(empty_subset_lp(instance))
                if energy.feasibility_gap(instance, instance.deadline) <= 0.0:
                    problems.append(subset_lp(energy._all_offload_case(instance)))
    return [problem for problem in problems if problem is not None]


def subset_lp(case):
    """The LP that `energy._subset_plans` builds for one (instance,
    partition, s1) case: None where the case needs no LP."""
    return energy._subset_plans([case])[0][0]


def subset_lps(instance):
    """The LP of every subset of the instance's free saving users, in mask
    order, as the exhaustive energy oracle builds them: None where a subset
    has no LP."""
    partition = energy.partition_users(instance)
    optional = sorted(partition.free_saving)
    return [
        subset_lp((instance, partition, [uid for k, uid in enumerate(optional) if mask >> k & 1]))
        for mask in range(1 << len(optional))
    ]


def empty_subset_lp(instance):
    """The LP that the LP branch of `solve_energy_suboptimal` solves."""
    return subset_lp((instance, energy.partition_users(instance), ()))


def lp_key(problem):
    """The problem as bytes: every number as its 8 IEEE bytes (so -0.0 and
    0.0 differ), and the relations in order.  "<=", "=" and ">=" are told
    apart by their first character, so their concatenation splits one way
    only, and with the row count it fixes the variable count."""
    arrays = (problem.objective, problem.coeffs, problem.rhs, problem.bounds)
    return "".join(problem.relations), b"".join([a.tobytes() for a in arrays])


def count_stacked(monkeypatch):
    """Count the problems that reach `lp._solve_stack` from here on: the
    returned object's `problems` is the running total."""
    counter = SimpleNamespace(problems=0)
    solve = lp._solve_stack

    def counting(problems):
        counter.problems += len(problems)
        return solve(problems)

    monkeypatch.setattr(lp, "_solve_stack", counting)
    return counter


def count_builds(monkeypatch):
    """Count the `LpProblem`s built from here on, alone or by
    `LpProblem.block`, as the problems that `lp._check` checks: the
    returned object's `problems` is the running total."""
    counter = SimpleNamespace(problems=0)
    check = lp._check

    def counting(objective, *arrays):
        counter.problems += len(objective)
        return check(objective, *arrays)

    monkeypatch.setattr(lp, "_check", counting)
    return counter


def count_closed_forms(monkeypatch) -> list:
    """The (instance id, set) of each closed form formed from here on."""
    formed = []
    closed_form = rate._closed_form

    def counting(instance, ids):
        formed.append((id(instance), tuple(ids)))
        return closed_form(instance, ids)

    monkeypatch.setattr(rate, "_closed_form", counting)
    return formed
