"""Domain model for multiuser edge offloading with VM I/O interference.

One access point serves K users within a hard frame of ``deadline`` seconds,
split into three sequential phases: TDMA uplink offloading, parallel
computing in per-user VMs, and TDMA downlink of results.  Co-hosted VMs
interfere through shared I/O, so a VM that computes task i at ``service_rate``
r_i bits/s in isolation only achieves ``r_i * (1 + d) ** (1 - n)`` when n VMs
run together, with d the degradation factor.

Everything in this package computes in SI base units (bits, seconds, joules,
watts).  Unit conversion (Mbps, KB, ms) happens only at generation and at the
file boundary.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .rng import uniform_rows

__all__ = [
    "ConfigurationError",
    "ParseError",
    "UserProfile",
    "Instance",
    "DerivedUser",
    "Partition",
    "RateSchedule",
    "EnergySchedule",
    "ValidationCheck",
    "ValidationReport",
    "GenerationSpec",
    "derive_user",
    "vm_rate_factor",
    "interference_penalty",
    "baseline_local_energy",
    "validate_rate_schedule",
    "validate_energy_schedule",
    "generate_instance",
    "generate_instances",
    "read_instance",
    "write_instance",
]

# Absolute tolerance on time constraints (s) and relative tolerance on bit
# bounds.  Well above double-precision noise, far below the ms/kbit scales
# the solvers work at.
TIME_TOL = 1e-9
BITS_RTOL = 1e-9
RATE_RTOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid generation or sweep configuration."""


class ParseError(ValueError):
    """Malformed instance or schedule file."""


_POSITIVE_FIELDS = (
    "weight",
    "uplink_time_per_bit",
    "downlink_time_per_bit",
    "output_ratio",
    "service_rate",
    "cycles_per_bit",
    "cpu_freq",
    "energy_coeff",
    "tx_power",
)


@dataclass(frozen=True)
class UserProfile:
    """Physical parameters of one user.

    id                     index of the user, 0-based
    weight                 scheduling priority (dimensionless, > 0)
    uplink_time_per_bit    seconds to offload one input bit
    downlink_time_per_bit  seconds to download one result bit
    output_ratio           result bits produced per offloaded input bit
    service_rate           bits/s an isolated VM computes for this task
    task_bits              total task size in bits (energy side; >= 0)
    cycles_per_bit         CPU cycles to compute one bit locally
    cpu_freq               local CPU speed, cycles/s
    energy_coeff           switched-capacitance constant of the local CPU
    tx_power               uplink transmit power, watts
    """

    id: int
    weight: float
    uplink_time_per_bit: float
    downlink_time_per_bit: float
    output_ratio: float
    service_rate: float
    task_bits: float
    cycles_per_bit: float
    cpu_freq: float
    energy_coeff: float
    tx_power: float

    def __post_init__(self):
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"user {self.id}: {name} must be finite and > 0, got {value}")
        if self.task_bits < 0.0 or not math.isfinite(self.task_bits):
            raise ValueError(f"user {self.id}: task_bits must be finite and >= 0")
        if not math.isfinite(self.roundtrip_time_per_bit):
            raise ValueError(f"user {self.id}: roundtrip time per bit is not finite")

    @property
    def roundtrip_time_per_bit(self) -> float:
        """Seconds of radio time consumed per offloaded bit, uplink plus downlink."""
        return self.uplink_time_per_bit + self.downlink_time_per_bit * self.output_ratio


_USER_FIELDS = tuple(f.name for f in fields(UserProfile))
# every UserProfile field but the id, in declaration order: one column each
_USER_COLUMNS = _USER_FIELDS[1:]
_TASK_ROW = _USER_COLUMNS.index("task_bits")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Instance:
    """A solver input: frame deadline, interference factor, and the users'
    values as one read-only float64 array per `UserProfile` field, entry k
    belonging to user id k.  `roundtrip_time_per_bit` is formed once from
    them.  These columns are the instance's only store of user values; the
    energy side's `delta_per_bit` and `min_offload_bits` are formed from
    them on first read.  Every entry is the double that the scalar
    expression gives: read a single value through `tolist()`, so that it
    is a Python float.

    Build it from profiles, `Instance(deadline=, degradation=, users=)`, or
    from columns, one keyword per `UserProfile` field but the id (as
    `dataclasses.replace` does).  Columns are copied and checked as
    `UserProfile` checks a profile: the first bad user raises its error.
    """

    deadline: float
    degradation: float
    weight: np.ndarray
    uplink_time_per_bit: np.ndarray
    downlink_time_per_bit: np.ndarray
    output_ratio: np.ndarray
    service_rate: np.ndarray
    task_bits: np.ndarray
    cycles_per_bit: np.ndarray
    cpu_freq: np.ndarray
    energy_coeff: np.ndarray
    tx_power: np.ndarray
    roundtrip_time_per_bit: np.ndarray = field(init=False)

    def __init__(self, deadline: float, degradation: float, users=None, **columns):
        _check_scalars(deadline, degradation)
        if users is None:
            if set(columns) != set(_USER_COLUMNS):
                raise TypeError(f"Instance takes users or the columns {_USER_COLUMNS}")
            table = np.array([columns[name] for name in _USER_COLUMNS], dtype=float)
        else:
            if columns:
                raise TypeError("Instance takes users or columns, not both")
            users = tuple(users)
            for k, u in enumerate(users):
                if u.id != k:
                    raise ValueError(f"user ids must be 0..K-1 in order, position {k} has id {u.id}")
            values = chain.from_iterable(map(operator.attrgetter(*_USER_COLUMNS), users))
            table = np.fromiter(values, float, len(_USER_COLUMNS) * len(users))
            table = table.reshape(len(users), len(_USER_COLUMNS)).T.copy()
            self.__dict__["users"] = users  # the memo of the `users` property
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused below
            roundtrip = _roundtrip(table)
        if users is None:
            _check_columns(table, roundtrip)
        _fill(self, deadline, degradation, table, roundtrip)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.deadline == other.deadline
            and self.degradation == other.degradation
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _USER_COLUMNS)
        )

    def __hash__(self):
        columns = (tuple(getattr(self, n).tolist()) for n in _USER_COLUMNS)
        return hash((self.deadline, self.degradation, *columns))

    def __repr__(self):
        return (
            f"Instance(deadline={self.deadline!r}, degradation={self.degradation!r}, "
            f"n_users={self.n_users})"
        )

    @property
    def n_users(self) -> int:
        return len(self.weight)

    @cached_property
    def users(self) -> tuple[UserProfile, ...]:
        """The users as profiles: the ones the instance was built from, else
        built from the columns (with Python float fields) on first read and
        memoised.  No solver reads them."""
        rows = zip(*(getattr(self, name).tolist() for name in _USER_COLUMNS))
        return tuple(UserProfile(k, *row) for k, row in enumerate(rows))

    def user(self, user_id: int) -> UserProfile:
        if not 0 <= user_id < self.n_users:
            raise KeyError(f"no user with id {user_id}")
        return self.users[user_id]

    @cached_property
    def delta_per_bit(self) -> np.ndarray:
        """Every user's `DerivedUser.energy_delta_per_bit`, read-only:
        computed on first use and memoised on this object."""
        delta = self.weight * (
            self.uplink_time_per_bit * self.tx_power
            - self.energy_coeff * self.cycles_per_bit * _squares(self.cpu_freq)
        )
        delta.setflags(write=False)
        return delta

    @cached_property
    def min_offload_bits(self) -> np.ndarray:
        """Every user's `DerivedUser.min_offload_bits`, read-only: computed
        on first use and memoised on this object.  It depends on the
        deadline, so a copy made with `dataclasses.replace` builds its own."""
        excess = self.task_bits - self.deadline * self.cpu_freq / self.cycles_per_bit
        # np.where(0.0 > x, 0.0, x) is max(x, 0.0), zero sign included
        min_bits = np.where(0.0 > excess, 0.0, excess)
        min_bits.setflags(write=False)
        return min_bits

    @cached_property
    def partition(self) -> Partition:
        """The users split four ways (`Partition`): built on first use and
        memoised on this object, so it follows the deadline as
        `min_offload_bits` does."""
        classes = 2 * (self.min_offload_bits > 0.0) + (self.delta_per_bit < 0.0)
        # each class's ids ascending, as Python ints; class = 2 * forced + saving
        free_costly, free_saving, forced_costly, forced_saving = (
            frozenset((classes == c).nonzero()[0].tolist()) for c in range(4)
        )
        return Partition(forced_costly, forced_saving, free_costly, free_saving)

    @cached_property
    def rate_terms(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Every user's terms of the closed-form rate in id order, as Python
        floats: w*r, (a+b*g)*r and w/(a+b*g) (`rate.conditional_solution`).
        Computed on first use and memoised on this object."""
        weight, roundtrip = self.weight, self.roundtrip_time_per_bit
        service = self.service_rate
        return (
            tuple((weight * service).tolist()),
            tuple((roundtrip * service).tolist()),
            tuple((weight / roundtrip).tolist()),
        )

    @cached_property
    def local_energy(self) -> float:
        """`baseline_local_energy`: computed on first use and memoised on
        this object."""
        energy = (
            self.weight * self.energy_coeff * self.cycles_per_bit * self.task_bits
            * _squares(self.cpu_freq)
        )
        return sum(energy.tolist(), 0.0)


def _check_scalars(deadline: float, degradation: float) -> None:
    if not (deadline > 0.0) or not math.isfinite(deadline):
        raise ValueError("deadline must be finite and > 0")
    if degradation < 0.0 or not math.isfinite(degradation):
        raise ValueError("degradation must be finite and >= 0")


def _roundtrip(table: np.ndarray) -> np.ndarray:
    """uplink + downlink * ratio of `Instance` columns: one instance's
    (fields, K) table or a block's (R, fields, K)."""
    return table[..., 1, :] + table[..., 2, :] * table[..., 3, :]


def _fill(instance: Instance, deadline: float, degradation: float, table: np.ndarray,
          roundtrip: np.ndarray) -> Instance:
    """Give an instance its scalars and its checked columns, read-only."""
    table.setflags(write=False)
    roundtrip.setflags(write=False)
    vars(instance).update(
        zip(_USER_COLUMNS, table),
        deadline=deadline,
        degradation=degradation,
        roundtrip_time_per_bit=roundtrip,
    )
    return instance


def _columns_ok(table: np.ndarray, roundtrip: np.ndarray) -> bool:
    """Whether `UserProfile` accepts every user of these columns (a block's
    (R, fields, K) table): every field but the task size positive, the task
    size nonnegative, all of them and the roundtrip time finite (nan fails
    every comparison, and numpy's min and max keep it)."""
    low = table.min(axis=(0, 2), initial=math.inf).tolist()
    task_low = low.pop(_TASK_ROW)
    return (
        all(x > 0.0 for x in low)
        and task_low >= 0.0
        and table.max(initial=0.0) < math.inf
        and roundtrip.max(initial=0.0) < math.inf
    )


def _check_columns(table: np.ndarray, roundtrip: np.ndarray) -> None:
    """Refuse one instance's columns if they hold a value that `UserProfile`
    refuses, with the error it raises for the first such user."""
    if not _columns_ok(table[None], roundtrip):
        for k, row in enumerate(zip(*table.tolist())):
            UserProfile(k, *row)  # raises at the first bad user


@dataclass(frozen=True)
class DerivedUser:
    """Per-user constants derived from a profile and the instance deadline,
    one user at a time: the scalar reference for the columns
    `Instance.delta_per_bit` and `Instance.min_offload_bits`.

    energy_delta_per_bit   net energy cost of offloading one bit instead of
                           computing it locally (J/bit); negative means
                           offloading saves energy
    min_offload_bits       bits the user must offload to finish by the
                           deadline given its local CPU
    tx_rate                1 / roundtrip time per bit (bits/s)
    weighted_tx_rate       weight / roundtrip time per bit
    """

    id: int
    energy_delta_per_bit: float
    min_offload_bits: float
    tx_rate: float
    weighted_tx_rate: float
    roundtrip_time_per_bit: float


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive split of the users (`Instance.partition`).

    forced_* users cannot finish locally by the deadline (min_offload_bits
    > 0) and must be scheduled; free_* users could stay local.  *_saving
    users reduce their energy by offloading (negative per-bit energy delta);
    *_costly users do not, so they offload only the forced minimum.
    Energy-neutral users count as costly: no point occupying a VM for zero
    gain.
    """

    forced_costly: frozenset[int]
    forced_saving: frozenset[int]
    free_costly: frozenset[int]
    free_saving: frozenset[int]

    @property
    def forced(self) -> frozenset[int]:
        return self.forced_costly | self.forced_saving


def derive_user(instance: Instance, user_id: int) -> DerivedUser:
    """Compute the derived constants for one user. Pure function of its inputs."""
    u = instance.user(user_id)
    delta = u.weight * (
        u.uplink_time_per_bit * u.tx_power - u.energy_coeff * u.cycles_per_bit * u.cpu_freq**2
    )
    local_capacity = instance.deadline * u.cpu_freq / u.cycles_per_bit
    min_bits = max(u.task_bits - local_capacity, 0.0)
    rt = u.roundtrip_time_per_bit
    return DerivedUser(
        id=u.id,
        energy_delta_per_bit=delta,
        min_offload_bits=min_bits,
        tx_rate=1.0 / rt,
        weighted_tx_rate=u.weight / rt,
        roundtrip_time_per_bit=rt,
    )


def _squares(values: np.ndarray) -> np.ndarray:
    """x**2 of each entry, one Python float at a time: numpy's square may
    differ from Python's `**` in the last bit."""
    return np.array([x**2 for x in values.tolist()])


def vm_rate_factor(degradation: float, n_scheduled: int) -> float:
    """Multiplicative service-rate loss when n_scheduled VMs share the server."""
    return (1.0 + degradation) ** (1 - n_scheduled)


def interference_penalty(degradation: float, n_scheduled: int) -> float:
    """(1 + d)^(n - 1), the inverse of `vm_rate_factor`, or inf where the
    power overflows: past that size the interference saturates, every VM
    rate is 0 and no computing window is long enough."""
    try:
        return (1.0 + degradation) ** (n_scheduled - 1)
    except OverflowError:
        return math.inf


def baseline_local_energy(instance: Instance) -> float:
    """Weighted energy of computing every task fully locally (joules),
    summed left to right in user id; memoised per instance object
    (`Instance.local_energy`)."""
    return instance.local_energy


@dataclass(frozen=True)
class RateSchedule:
    """Output of a rate-maximization solver.

    offload_bits maps every user id to its offloaded bits (0 when not
    scheduled); sum_rate is the weighted offloaded bits per frame second.
    """

    scheduled: frozenset[int]
    offload_bits: dict[int, float]
    compute_time: float
    sum_rate: float


@dataclass(frozen=True)
class EnergySchedule:
    """Output of an energy-minimization solver.

    objective is the schedule-dependent part of the energy (sum of
    energy_delta_per_bit * offloaded bits); total_energy adds the constant
    all-local energy so it matches the physical total.  status records which
    solver branch produced the schedule: "optimal-path" (deadline slack lets
    every saving user offload fully), "greedy-path" (users were dropped to
    fit the deadline), "lp-path" (offload sizes came from an LP), or
    "infeasible" (the deadline cannot be met at all; t_min carries the
    smallest feasible deadline when known).
    """

    scheduled: frozenset[int]
    offload_bits: dict[int, float]
    compute_time: float
    objective: float
    total_energy: float
    status: str
    t_min: float | None = None


@dataclass(frozen=True)
class ValidationCheck:
    """One constraint check: residual is the signed amount by which the
    constraint is exceeded, so anything <= tolerance passes."""

    name: str
    residual: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_records(self) -> list[dict]:
        return [{"constraint": c.name, "residual": c.residual, "ok": c.ok} for c in self.checks]

    def render(self) -> str:
        lines = [
            f"{'PASS' if c.ok else 'FAIL'}  {c.name}  residual={c.residual!r}" for c in self.checks
        ]
        lines.append(f"overall: {'valid' if self.ok else 'INVALID'}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _check_known_users(instance: Instance, schedule) -> None:
    known = range(instance.n_users)
    for uid in schedule.scheduled:
        if uid not in known:
            raise KeyError(f"schedule references unknown user {uid}")
    for uid in schedule.offload_bits:
        if uid not in known:
            raise KeyError(f"schedule references unknown user {uid}")


def _common_checks(instance: Instance, schedule, scheduled_checks, unscheduled_checks):
    """Checks both validators share, in report order: the latency budget, a
    nonnegative computing window, then per user id either
    `scheduled_checks(uid, bits, vm_cap)` (vm_cap is the most the user's
    VM computes in the window) or `unscheduled_zero` followed by
    `unscheduled_checks(uid)`."""
    _check_known_users(instance, schedule)
    n = len(schedule.scheduled)
    factor = vm_rate_factor(instance.degradation, n) if n else 0.0
    te = schedule.compute_time
    roundtrip = instance.roundtrip_time_per_bit.tolist()
    service = instance.service_rate.tolist()

    used = sum(schedule.offload_bits.get(i, 0.0) * roundtrip[i] for i in sorted(schedule.scheduled))
    budget = used + te - instance.deadline
    checks = [
        ValidationCheck("latency_budget", budget, budget <= TIME_TOL),
        ValidationCheck("compute_time_nonneg", -te, te >= -TIME_TOL),
    ]
    for uid in range(instance.n_users):
        bits = schedule.offload_bits.get(uid, 0.0)
        if uid in schedule.scheduled:
            checks.extend(scheduled_checks(uid, bits, te * service[uid] * factor))
        else:
            checks.append(
                ValidationCheck(f"unscheduled_zero[{uid}]", abs(bits), abs(bits) <= BITS_RTOL)
            )
            checks.extend(unscheduled_checks(uid))
    return checks


def validate_rate_schedule(instance: Instance, schedule: RateSchedule) -> ValidationReport:
    """Check a rate schedule against every constraint it must satisfy.

    This is the universal checker: every solver and oracle output is expected
    to pass it.  Violations are reported, never raised.
    """

    def offload_bounds(uid, bits, cap):
        tol = BITS_RTOL * max(1.0, cap)
        return (
            ValidationCheck(f"offload_upper[{uid}]", bits - cap, bits - cap <= tol),
            ValidationCheck(f"offload_nonneg[{uid}]", -bits, bits >= -tol),
        )

    checks = _common_checks(instance, schedule, offload_bounds, lambda uid: ())
    recomputed = (
        sum(
            weight * schedule.offload_bits.get(uid, 0.0)
            for uid, weight in enumerate(instance.weight.tolist())
        )
        / instance.deadline
    )
    mismatch = abs(schedule.sum_rate - recomputed)
    checks.append(
        ValidationCheck(
            "rate_consistency", mismatch, mismatch <= RATE_RTOL * (1.0 + abs(recomputed))
        )
    )
    return ValidationReport(tuple(checks))


def validate_energy_schedule(instance: Instance, schedule: EnergySchedule) -> ValidationReport:
    """Check an energy schedule: latency budget, per-user offload bounds,
    mandatory-offload coverage, and the energy bookkeeping identities."""
    if schedule.status == "infeasible":
        raise ValueError("cannot validate an infeasible schedule")
    min_bits = instance.min_offload_bits.tolist()
    task_bits = instance.task_bits.tolist()

    def offload_bounds(uid, bits, vm_cap):
        cap = min(task_bits[uid], vm_cap)
        tol = BITS_RTOL * max(1.0, cap)
        floor = min_bits[uid]
        low = floor - bits
        return (
            ValidationCheck(f"offload_lower[{uid}]", low, low <= BITS_RTOL * max(1.0, floor)),
            ValidationCheck(f"offload_upper[{uid}]", bits - cap, bits - cap <= tol),
        )

    def must_not_be_forced(uid):
        # a user that cannot finish locally must appear in the schedule
        floor = min_bits[uid]
        return (
            ValidationCheck(
                f"unscheduled_free[{uid}]", floor, floor <= BITS_RTOL * max(1.0, task_bits[uid])
            ),
        )

    checks = _common_checks(instance, schedule, offload_bounds, must_not_be_forced)
    recomputed = sum(
        delta * schedule.offload_bits.get(uid, 0.0)
        for uid, delta in enumerate(instance.delta_per_bit.tolist())
    )
    mismatch = abs(schedule.objective - recomputed)
    checks.append(
        ValidationCheck(
            "objective_consistency", mismatch, mismatch <= 1e-9 * (1.0 + abs(recomputed))
        )
    )
    e0 = baseline_local_energy(instance)
    gap = abs(schedule.total_energy - (schedule.objective + e0))
    checks.append(
        ValidationCheck("total_energy_identity", gap, gap <= 1e-12 * (1.0 + abs(schedule.total_energy)))
    )
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

_BITS_PER_KB = 8000.0  # decimal kilobyte, consistent with rates in Mbps


@dataclass(frozen=True)
class GenerationSpec:
    """Parameter ranges for random instances.

    Ranges are (lo, hi) pairs sampled uniformly; scalar fields are shared by
    every user.  Defaults give a mixed population of radio and compute
    capabilities on the scale the stock experiments use.
    """

    n_users: int
    deadline_s: float = 0.035
    degradation: float = 0.1
    uplink_mbps: tuple[float, float] = (100.0, 150.0)
    downlink_mbps: tuple[float, float] = (150.0, 200.0)
    service_rate_bps: tuple[float, float] = (1e7, 2e7)
    output_ratio_exponent: tuple[float, float] = (0.5, 1.5)  # ratio = 10 ** -x
    task_kb: tuple[float, float] = (50.0, 100.0)
    cycles_per_bit: tuple[float, float] = (500.0, 1000.0)
    cpu_freq_hz: tuple[float, float] = (2e8, 6e8)
    energy_coeff: float = 1e-28
    tx_power_w: float = 0.1
    weight: float = 1.0


def _check_range(name: str, rng_pair, positive: bool = True) -> None:
    lo, hi = rng_pair
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ConfigurationError(f"{name}: invalid range ({lo}, {hi})")
    if positive and lo <= 0.0:
        raise ConfigurationError(f"{name}: range must be strictly positive, got ({lo}, {hi})")


def _check_spec(spec: GenerationSpec) -> None:
    if spec.n_users < 0:
        raise ConfigurationError(f"n_users must be >= 0, got {spec.n_users}")
    if spec.deadline_s <= 0.0:
        raise ConfigurationError(f"deadline_s must be > 0, got {spec.deadline_s}")
    if spec.degradation < 0.0:
        raise ConfigurationError(f"degradation must be >= 0, got {spec.degradation}")
    _check_range("uplink_mbps", spec.uplink_mbps)
    _check_range("downlink_mbps", spec.downlink_mbps)
    _check_range("service_rate_bps", spec.service_rate_bps)
    _check_range("output_ratio_exponent", spec.output_ratio_exponent, positive=False)
    _check_range("task_kb", spec.task_kb, positive=False)
    _check_range("cycles_per_bit", spec.cycles_per_bit)
    _check_range("cpu_freq_hz", spec.cpu_freq_hz)
    if spec.task_kb[0] < 0.0:
        raise ConfigurationError("task_kb range must be nonnegative")
    for name in ("energy_coeff", "tx_power_w", "weight"):
        if getattr(spec, name) <= 0.0:
            raise ConfigurationError(f"{name} must be > 0")


# The `Instance` columns in order.  Columns 1 to 7 take a user's seven draws
# in draw order; then the service rate, the third draw, moves to its own
# column, and the output ratio formed from the fourth takes the third.
assert _USER_COLUMNS == (
    "weight", "uplink_time_per_bit", "downlink_time_per_bit", "output_ratio", "service_rate",
    "task_bits", "cycles_per_bit", "cpu_freq", "energy_coeff", "tx_power",
)


def generate_instances(spec: GenerationSpec, seeds) -> list[Instance]:
    """Draw one random instance per seed, each deterministic given (spec,
    seed): `generate_instance` of every seed, drawn as one block.

    Per-user draw order is fixed: uplink Mbps, downlink Mbps, service rate,
    output-ratio exponent, task KB, cycles/bit, CPU frequency.  Mbps and KB
    convert to seconds/bit and bits here; nothing downstream ever converts.
    The spec is checked once, the block's draws come from one
    `rng.uniform_rows` call and every field is converted across the block;
    the values go straight into the instances' columns.  A value that
    `UserProfile` refuses raises its error, for the first such user of the
    first such seed.
    """
    _check_spec(spec)
    seeds = list(seeds)
    n = spec.n_users
    # one row of draws per user, in the per-user order above, mapped onto
    # each field's range with the scalar draw's `lo + (hi - lo) * u`
    lo, hi = np.array([
        spec.uplink_mbps,
        spec.downlink_mbps,
        spec.service_rate_bps,
        spec.output_ratio_exponent,
        spec.task_kb,
        spec.cycles_per_bit,
        spec.cpu_freq_hz,
    ]).T
    draws = uniform_rows(seeds, 7 * n).reshape(len(seeds), n, 7)
    # each seed's (fields, K) table of `Instance` columns
    table = np.empty((len(seeds), len(_USER_COLUMNS), n))
    table[:, 0], table[:, 8], table[:, 9] = spec.weight, spec.energy_coeff, spec.tx_power_w
    with np.errstate(over="ignore", invalid="ignore"):  # the checks refuse inf and nan
        values = lo + (hi - lo) * draws
        values[..., :2] = 1.0 / (values[..., :2] * 1e6)  # Mbps to seconds per bit
        values[..., 4] *= _BITS_PER_KB
        exponent = values[..., 3]
        table[:, 1:8] = values.transpose(0, 2, 1)
        table[:, 4] = table[:, 3]
        try:
            # numpy's power may differ from Python's in the last bit
            table[:, 3] = np.array([10.0 ** (-x) for x in exponent.ravel().tolist()]).reshape(
                exponent.shape)
            overflow = False
        except OverflowError:
            table[:, 3] = math.nan
            overflow = True
        roundtrip = _roundtrip(table)
    deadline, degradation = spec.deadline_s, spec.degradation
    if overflow or not (
        math.isfinite(deadline) and math.isfinite(degradation) and _columns_ok(table, roundtrip)
    ):
        _refuse_first_bad(spec, values, table)
    table.setflags(write=False)
    return [
        _fill(Instance.__new__(Instance), deadline, degradation, seed_table, seed_roundtrip)
        for seed_table, seed_roundtrip in zip(table, roundtrip)
    ]


def _refuse_first_bad(spec: GenerationSpec, values: np.ndarray, table: np.ndarray) -> None:
    """Raise the error of the first seed of a block that `Instance` refuses,
    seed by seed as `generate_instance` would: where an output ratio's power
    overflows, the profiles are built one at a time, as the per-user loop
    did, so that a bad user before that one comes first; otherwise the
    instance's own checks run, the deadline and degradation first."""
    for rows, seed_table in zip(values.tolist(), table):
        try:
            seed_table[3] = [10.0 ** (-x) for _, _, _, x, *_ in rows]
        except OverflowError:
            for i, (up, down, rate, x, task, c, f) in enumerate(rows):
                UserProfile(i, spec.weight, up, down, 10.0 ** (-x), rate, task, c, f,
                            spec.energy_coeff, spec.tx_power_w)
        _check_scalars(spec.deadline_s, spec.degradation)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            _check_columns(seed_table, _roundtrip(seed_table))
    raise AssertionError("a refused block has no bad seed")


def generate_instance(spec: GenerationSpec, seed: int) -> Instance:
    """Draw a random instance. Deterministic given (spec, seed): the one
    instance of `generate_instances(spec, [seed])`."""
    return generate_instances(spec, [seed])[0]


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

_TOP_FIELDS = ("deadline_s", "degradation", "users")


def write_instance(instance: Instance, path) -> None:
    doc = {
        "deadline_s": instance.deadline,
        "degradation": instance.degradation,
        "users": [{name: getattr(u, name) for name in _USER_FIELDS} for u in instance.users],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that a double holds (a bool is not a number)."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _number(mapping: dict, key: str, where: str) -> float:
    value = _require(mapping, key, where)
    if _is_int(value) and not _is_number(value):  # an integer literal beyond the doubles
        raise ParseError(f"{where}: {key} is out of range")
    if not _is_number(value):
        raise ParseError(f"{where}: {key} must be a number")
    return float(value)


def _read_json(path) -> dict:
    """A JSON file whose top level is an object; malformed JSON or another
    top level is a `ParseError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def read_instance(path) -> Instance:
    """Load an instance file.  Field names are the contract: unknown fields
    are rejected, missing ones named in the error, and a value of the wrong
    JSON type (a bool is not a number) is a `ParseError` naming its field."""
    doc = _read_json(path)
    for key in doc:
        if key not in _TOP_FIELDS:
            raise ParseError(f"{path}: unknown field '{key}'")
    deadline = _number(doc, "deadline_s", str(path))
    degradation = _number(doc, "degradation", str(path))
    raw_users = _require(doc, "users", str(path))
    if not isinstance(raw_users, list):
        raise ParseError(f"{path}: 'users' must be an array")
    users = []
    for k, entry in enumerate(raw_users):
        where = f"{path}: users[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        for key in entry:
            if key not in _USER_FIELDS:
                raise ParseError(f"{where}: unknown field '{key}'")
        user_id = _require(entry, "id", where)
        if not _is_int(user_id):
            raise ParseError(f"{where}: id must be an integer")
        users.append(UserProfile(user_id, *(_number(entry, name, where) for name in _USER_COLUMNS)))
    return Instance(deadline=deadline, degradation=degradation, users=users)


def with_deadline(instance: Instance, deadline: float) -> Instance:
    """Copy of the instance with a different frame deadline."""
    return replace(instance, deadline=deadline)
