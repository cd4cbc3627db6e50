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
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, reduce
from itertools import chain, filterfalse, repeat, starmap

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
    "derive_energy_columns",
    "vm_rate_factor",
    "interference_penalty",
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
    energy side's five memos (`derive_energy_columns`) are formed from them
    together on the first read of one, or for a whole block at once.  Every
    entry is the double that the scalar expression gives: read a single
    value through `tolist()`, so that it is a Python float.

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
        """Every user's `DerivedUser.energy_delta_per_bit`, read-only."""
        return _energy_memo(self, "delta_per_bit")

    @cached_property
    def min_offload_bits(self) -> np.ndarray:
        """Every user's `DerivedUser.min_offload_bits`, read-only: its
        `min_offload_bits_at(deadline)`."""
        return _energy_memo(self, "min_offload_bits")

    def min_offload_bits_at(self, t: float) -> np.ndarray:
        """Every user's bits that its local CPU cannot compute within t,
        max(L - t f / c, 0), each the double of the scalar expression."""
        return _min_offload_bits(self.task_bits, self.cpu_freq, self.cycles_per_bit, t)

    @cached_property
    def partition(self) -> Partition:
        """The users split four ways (`Partition`) at the deadline."""
        return _energy_memo(self, "partition")

    @cached_property
    def deadline_gap(self) -> float:
        """`energy.feasibility_gap` at the deadline: positive exactly when
        the deadline is below t_min."""
        return _energy_memo(self, "deadline_gap")

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
        """Weighted energy of computing every task locally (J), summed in id order."""
        return _energy_memo(self, "local_energy")

    @cached_property
    def solved_sets(self) -> dict:
        """The memo of the fixed-set solves, so that each is made once per
        instance: `rate._closed_forms` keeps the closed form of a set under
        the tuple of its ids, `energy._subset_schedules` the subset-LP
        schedule (or None) of an optional set of this instance's own
        partition under its frozenset; a tuple never equals a frozenset.  A
        `dataclasses.replace` copy starts empty, and pickle and copy leave
        it behind (`__getstate__`)."""
        return {}

    def __getstate__(self):
        # the memo's schedules hold read-only bits, which do not pickle
        return {name: value for name, value in vars(self).items() if name != "solved_sets"}


def _check_scalars(deadline: float, degradation: float) -> None:
    if not (deadline > 0.0) or not math.isfinite(deadline):
        raise ValueError(f"deadline must be finite and > 0, got {deadline}")
    if degradation < 0.0 or not math.isfinite(degradation):
        raise ValueError(f"degradation must be finite and >= 0, got {degradation}")


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
        u.uplink_time_per_bit * u.tx_power - u.energy_coeff * u.cycles_per_bit * _square(u.cpu_freq)
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


def per_user_count(instances, solve) -> list:
    """solve(block) of each block of the instances that share a user count,
    put back in the instances' order."""
    instances = list(instances)
    blocks: dict[int, list[int]] = {}
    for k, instance in enumerate(instances):
        blocks.setdefault(instance.n_users, []).append(k)
    if len(blocks) == 1:
        return solve(instances)
    results = [None] * len(instances)
    for ks in blocks.values():
        for k, result in zip(ks, solve([instances[k] for k in ks])):
            results[k] = result
    return results


def derive_energy_columns(instances) -> None:
    """Fill the five energy memos of every instance without them, one broadcast
    per user count.  Each entry is formed as its instance alone forms it (the
    squares one Python `**` at a time, sums left to right), to the bit.

    The energy solvers start here, so it refuses, with `ValueError`, every
    instance whose energy terms overflow the doubles: a local energy or an
    energy delta per bit that is not finite would make every objective and
    total energy of the instance inf or nan."""
    blocks: dict[int, dict[int, Instance]] = {}  # per user count, the instances by id
    for instance in instances:
        if "partition" not in vars(instance):
            blocks.setdefault(instance.n_users, {})[id(instance)] = instance
    for block in blocks.values():
        _derive_energy_block(list(block.values()))
    if instances and not np.isfinite(np.concatenate(
            [[i.local_energy for i in instances], *(i.delta_per_bit for i in instances)])).all():
        raise ValueError("energy terms overflow the doubles: an instance's local energy or energy "
                         "delta per bit is not finite")


# an overflowed product or sum is inf, and inf - inf nan: `derive_energy_columns`
# refuses them, and t_min and the rate solvers do not read them
@np.errstate(over="ignore", invalid="ignore")
def _derive_energy_block(instances: list[Instance]) -> None:
    """`derive_energy_columns` of unfilled instances of one user count."""
    weight, uplink, power, coeff, cycles, freq, task, roundtrip, service = block_columns(
        instances, "weight", "uplink_time_per_bit", "tx_power", "energy_coeff", "cycles_per_bit",
        "cpu_freq", "task_bits", "roundtrip_time_per_bit", "service_rate")
    squares = _squares(freq.ravel()).reshape(freq.shape)
    delta = weight * (uplink * power - coeff * cycles * squares)
    deadlines = np.array([i.deadline for i in instances])
    min_bits = _min_offload_bits(task, freq, cycles, deadlines[:, None])
    local = sums_in_order(weight * coeff * cycles * task * squares).tolist()
    gaps = _gap_rows(min_bits, roundtrip, service, [i.degradation for i in instances],
                     deadlines).tolist()
    # class 2 * forced + saving, of bools viewed as int8 (no wider integers)
    classes = (2 * (min_bits > 0.0).view(np.int8) + (delta < 0.0).view(np.int8)).tolist()
    for array in (delta, min_bits):
        array.setflags(write=False)
    for k, instance in enumerate(instances):
        members = ([], [], [], [])  # each class's ids ascending, as Python ints
        for uid, c in enumerate(classes[k]):
            members[c].append(uid)
        free_costly, free_saving, forced_costly, forced_saving = map(frozenset, members)
        vars(instance).update(
            delta_per_bit=delta[k], min_offload_bits=min_bits[k], local_energy=local[k],
            deadline_gap=gaps[k],
            partition=Partition(forced_costly, forced_saving, free_costly, free_saving))


def _gap_rows(min_bits: np.ndarray, roundtrip: np.ndarray, service: np.ndarray, degradations,
              ts) -> np.ndarray:
    """The feasibility gap of each row at its t: the radio time of its forced
    minimum offloads plus the window of the slowest at the degraded rate of
    its forced users, minus t.  The radio time is never -0.0, so the +-0.0
    floor of a row without forced users leaves it as it is."""
    forced = np.add.reduce(min_bits > 0.0, axis=-1).tolist()  # +-0.0 is not forced
    # Python ints keep the power Python's: a numpy exponent would take numpy's
    factors = np.array([[vm_rate_factor(d, n)] for d, n in zip(degradations, forced)])
    radio, floor = _radio_and_floor(min_bits, roundtrip, service, factors)
    return radio + floor - ts


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _radio_and_floor(bits: np.ndarray, roundtrip: np.ndarray, service: np.ndarray, factors):
    """The radio time of offloading bits, summed left to right in user id,
    and the floor under the computing window, the slowest b / (s * factor),
    along the last axis; factors broadcast against the columns.  A sum that
    overflows is inf, and so is the floor where a forced user's degraded
    rate underflows to 0 (b / 0): no window is then long enough.  An
    unforced user's 0 / x is 0, or nan where x underflows to 0, which fmax
    skips; the floor of no offloads is 0."""
    floor = np.fmax.reduce(bits / (service * factors), axis=-1, initial=0.0)
    return sums_in_order(bits * roundtrip), floor


def block_columns(instances, *names: str) -> list[np.ndarray]:
    """The named columns of instances of one user count, each as a (rows, K)
    array: a lone instance (each lone solve) views its own columns rather
    than pay for a copy."""
    if len(instances) == 1:
        return [getattr(instances[0], name)[None] for name in names]
    return [np.array([getattr(i, name) for i in instances]) for name in names]


def _energy_memo(instance: Instance, name: str):
    """One energy memo, filled with the others by its block of one."""
    _derive_energy_block([instance])
    return vars(instance)[name]


# a t f beyond the doubles is inf, as a Python float product gives: the
# whole task fits locally and nobody is forced
@np.errstate(over="ignore")
def _min_offload_bits(task: np.ndarray, freq: np.ndarray, cycles: np.ndarray, t) -> np.ndarray:
    """max(L - t f / c, 0) of each user; t is a deadline or a column of them."""
    excess = task - t * freq / cycles
    # np.where(0.0 > x, 0.0, x) is max(x, 0.0), zero sign included
    return np.where(0.0 > excess, 0.0, excess)


def _power(base: float, exponent: float) -> float:
    """base ** exponent as Python's float `**` gives it, or inf where that
    overflows the doubles."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _square(x: float) -> float:
    """x**2, or inf past about 1.34e154."""
    return _power(x, 2)


def _squares(values: np.ndarray) -> np.ndarray:
    """`_square` of each entry, one Python float at a time: numpy's square
    may differ from Python's `**` in the last bit."""
    return np.array([_power(x, 2) for x in values.tolist()])


def sum_in_order(values, start: float = 0.0) -> float:
    """start + v0 + v1 + ..., rounded after each term, on every Python
    version: the builtin sum of floats compensates the rounding from 3.12
    on.  The solvers' float sums add this way, so that they equal the
    `np.add.accumulate` sums they are paired with.  Starting from the float
    start keeps 0.0 + -0.0 at +0.0."""
    return reduce(operator.add, values, start)


def sums_in_order(values: np.ndarray) -> np.ndarray:
    """`sum_in_order` of each row along the last axis, to the bit: accumulate
    adds left to right (.sum() would add pairwise), and adding it to 0.0
    turns a sum of -0.0s into +0.0 as the float start does.  An empty row
    sums to 0.0."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1])
    # [()] makes the sum of a 1-D array a numpy scalar, which adds faster
    return 0.0 + np.add.accumulate(values, axis=-1)[..., -1][()]


def vm_rate_factor(degradation: float, n_scheduled: int) -> float:
    """Multiplicative service-rate loss when n_scheduled VMs share the server."""
    return (1.0 + degradation) ** (1 - n_scheduled)


def interference_penalty(degradation: float, n_scheduled: int) -> float:
    """(1 + d)^(n - 1), the inverse of `vm_rate_factor`, or inf where the
    power overflows: past that size the interference saturates, every VM
    rate is 0 and no computing window is long enough."""
    return _power(1.0 + degradation, n_scheduled - 1)


@dataclass(frozen=True)
class RateSchedule:
    """Output of a rate-maximization solver.

    offload_bits maps every user id to its offloaded bits (0 when not
    scheduled); sum_rate is the weighted offloaded bits per frame second.
    The rate solvers hand out the bits read-only (`types.MappingProxyType`):
    every solver that picks one set of an instance returns the one schedule
    of that set that `Instance.solved_sets` keeps.
    """

    scheduled: frozenset[int]
    offload_bits: Mapping[int, float]
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
    smallest feasible deadline when known).  The energy solvers hand out the
    bits read-only (`types.MappingProxyType`): every row that solves one
    subset LP of an instance returns the one schedule of that subset that
    `Instance.solved_sets` keeps.
    """

    scheduled: frozenset[int]
    offload_bits: Mapping[int, float]
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


def _report(instance: Instance, schedule, families) -> ValidationReport:
    """The report of a schedule, every check `residual <= tolerance`, in the
    order both validators share: the latency budget and a nonnegative
    computing window; per user id the member families, or else
    `unscheduled_zero` followed by the non-member families; the totals.
    `families(bits, vm_cap)` forms them over all users at once, from the
    offloaded bits in id order and the most each user's VM computes in the
    window, as (member, non-member, total) lists of (name, residuals,
    tolerances).  A schedule that names a user the instance lacks raises
    KeyError."""
    known = range(instance.n_users)
    for uid in filterfalse(known.__contains__, chain(schedule.scheduled, schedule.offload_bits)):
        raise KeyError(f"schedule references unknown user {uid}")
    n = len(schedule.scheduled)
    te = schedule.compute_time
    member = np.fromiter(map(schedule.scheduled.__contains__, known), bool, len(known))
    # The budget allows TIME_TOL plus (n + 2) ulps of T.  The check adds n
    # rounded products b r and the window.  While the sum stays below the
    # power of two above T (wherever it can pass), each of its n additions
    # errs by at most ulp(T) / 2 and the products together by at most
    # u T < ulp(T) (u = 2^-53; the subtraction of T is exact, Sterbenz), so
    # its own rounding is below (n / 2 + 1) ulp(T).  A schedule that fills
    # the frame exactly was formed from sums as long, off by about as much
    # again.  At the stock deadlines TIME_TOL dominates: (n + 2) ulp(0.65 s)
    # is 1.1e-13 s at n = 1000, and ulp(T) passes TIME_TOL only from
    # T = 2^23 s (8.4e6 s) on.
    time_tol = TIME_TOL + (n + 2) * math.ulp(instance.deadline)
    # a Python float's overflow is inf and inf - inf nan, without a warning
    with np.errstate(all="ignore"):
        bits = np.fromiter(map(schedule.offload_bits.get, known, repeat(0.0)), float, len(known))
        vm_cap = te * instance.service_rate * vm_rate_factor(instance.degradation, n)
        # a non-member adds +0.0, which leaves the sum's bits as they are
        used = sums_in_order(np.where(member, bits * instance.roundtrip_time_per_bit, 0.0))
        members, others, totals = families(bits, vm_cap)
        head = [("latency_budget", used + te - instance.deadline, time_tol),
                ("compute_time_nonneg", -te, TIME_TOL)]
        others = [("unscheduled_zero", np.abs(bits), BITS_RTOL), *others]
        head, members, others, totals = map(_verdicts, (head, members, others, totals))
    return ValidationReport(tuple(chain(
        starmap(ValidationCheck, head),
        (ValidationCheck(f"{name}[{uid}]", r[uid], ok[uid])
         for uid, is_member in enumerate(member.tolist())
         for name, r, ok in (members if is_member else others)),
        starmap(ValidationCheck, totals),
    )))


def _verdicts(families) -> list:
    """Each (name, residuals, tolerances) as (name, the residuals as Python
    floats, whether each is <= its tolerance): lists for a family over the
    users, a float and a bool for a total."""
    verdicts = []
    for name, residuals, tolerances in families:
        residuals = np.asarray(residuals, dtype=float)
        verdicts.append((name, residuals.tolist(), (residuals <= tolerances).tolist()))
    return verdicts


def _at_least_one(x: np.ndarray) -> np.ndarray:
    """max(1.0, x) of each entry as Python gives it: 1.0 where x is nan."""
    return np.where(x > 1.0, x, 1.0)


def validate_rate_schedule(instance: Instance, schedule: RateSchedule) -> ValidationReport:
    """Check a rate schedule against every constraint it must satisfy.

    This is the universal checker: every solver and oracle output is expected
    to pass it.  Violations are reported, never raised.
    """

    def families(bits, cap):
        tol = BITS_RTOL * _at_least_one(cap)
        recomputed = sums_in_order(instance.weight * bits) / instance.deadline
        return (
            [("offload_upper", bits - cap, tol), ("offload_nonneg", -bits, tol)],
            [],
            [("rate_consistency", abs(schedule.sum_rate - recomputed),
              RATE_RTOL * (1.0 + abs(recomputed)))],
        )

    return _report(instance, schedule, families)


def validate_energy_schedule(instance: Instance, schedule: EnergySchedule) -> ValidationReport:
    """Check an energy schedule: latency budget, per-user offload bounds,
    mandatory-offload coverage, and the energy bookkeeping identities."""
    if schedule.status == "infeasible":
        raise ValueError("cannot validate an infeasible schedule")
    floor, task = instance.min_offload_bits, instance.task_bits

    def families(bits, vm_cap):
        # np.where(b < a, b, a) is Python's min(a, b): a where b is nan
        cap = np.where(vm_cap < task, vm_cap, task)
        recomputed = sums_in_order(instance.delta_per_bit * bits)
        total = schedule.total_energy
        return (
            [("offload_lower", floor - bits, BITS_RTOL * _at_least_one(floor)),
             ("offload_upper", bits - cap, BITS_RTOL * _at_least_one(cap))],
            # a user that cannot finish locally must appear in the schedule
            [("unscheduled_free", floor, BITS_RTOL * _at_least_one(task))],
            [("objective_consistency", abs(schedule.objective - recomputed),
              1e-9 * (1.0 + abs(recomputed))),
             ("total_energy_identity", abs(total - (schedule.objective + instance.local_energy)),
              1e-12 * (1.0 + abs(total)))],
        )

    return _report(instance, schedule, families)


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
    """Refuse a spec before anything is drawn: a negative user count, a bad
    range or a constant that is not finite and positive raises
    ConfigurationError naming its field, and a deadline or degradation that
    `Instance` refuses raises its ValueError (`_check_scalars`, the one rule
    for both)."""
    if spec.n_users < 0:
        raise ConfigurationError(f"n_users must be >= 0, got {spec.n_users}")
    _check_scalars(spec.deadline_s, spec.degradation)
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
        value = getattr(spec, name)
        if not (value > 0.0 and math.isfinite(value)):  # nan fails the comparison
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


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
    The spec is checked once, by `_check_spec` before anything is drawn;
    the block's draws come from one `rng.uniform_rows` call and every field
    is converted across the block; the values go straight into the
    instances' columns.  Refusals are typed: `_check_spec`'s, then a block
    too large for numpy to allocate (named by its user count and number of
    seeds) raises ConfigurationError, and a drawn value that `UserProfile`
    refuses (an output ratio whose power overflows is inf) raises its
    ValueError, for the first such user of the first such seed.
    """
    _check_spec(spec)
    deadline, degradation = spec.deadline_s, spec.degradation
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
    try:
        draws = uniform_rows(seeds, 7 * n).reshape(len(seeds), n, 7)
        # each seed's (fields, K) table of `Instance` columns
        table = np.empty((len(seeds), len(_USER_COLUMNS), n))
    except (ValueError, MemoryError) as exc:  # numpy refuses the size or the memory
        raise ConfigurationError(
            f"cannot draw {n} users for {len(seeds)} seed(s): {exc}") from None
    table[:, 0], table[:, 8], table[:, 9] = spec.weight, spec.energy_coeff, spec.tx_power_w
    with np.errstate(over="ignore", invalid="ignore"):  # the checks refuse inf and nan
        values = lo + (hi - lo) * draws
        values[..., :2] = 1.0 / (values[..., :2] * 1e6)  # Mbps to seconds per bit
        values[..., 4] *= _BITS_PER_KB
        exponent = values[..., 3]
        table[:, 1:8] = values.transpose(0, 2, 1)
        table[:, 4] = table[:, 3]
        # numpy's power may differ from Python's in the last bit
        ratios = exponent.ravel().tolist()
        try:
            ratios = [10.0 ** (-x) for x in ratios]
        except OverflowError:
            ratios = [_power(10.0, -x) for x in ratios]
        table[:, 3] = np.array(ratios).reshape(exponent.shape)
        roundtrip = _roundtrip(table)
    if not _columns_ok(table, roundtrip):
        for seed_table, seed_roundtrip in zip(table, roundtrip):
            _check_columns(seed_table, seed_roundtrip)
    table.setflags(write=False)
    return [
        _fill(Instance.__new__(Instance), deadline, degradation, seed_table, seed_roundtrip)
        for seed_table, seed_roundtrip in zip(table, roundtrip)
    ]


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
