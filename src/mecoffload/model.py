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
from dataclasses import dataclass, fields, replace

from .rng import SplitMix64

__all__ = [
    "ConfigurationError",
    "ParseError",
    "UserProfile",
    "Instance",
    "DerivedUser",
    "RateSchedule",
    "EnergySchedule",
    "ValidationCheck",
    "ValidationReport",
    "GenerationSpec",
    "derive_user",
    "vm_rate_factor",
    "baseline_local_energy",
    "validate_rate_schedule",
    "validate_energy_schedule",
    "generate_instance",
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


@dataclass(frozen=True)
class Instance:
    """A solver input: frame deadline, interference factor, and the user list."""

    deadline: float
    degradation: float
    users: tuple[UserProfile, ...]

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if not (self.deadline > 0.0) or not math.isfinite(self.deadline):
            raise ValueError("deadline must be finite and > 0")
        if self.degradation < 0.0 or not math.isfinite(self.degradation):
            raise ValueError("degradation must be finite and >= 0")
        for k, u in enumerate(self.users):
            if u.id != k:
                raise ValueError(f"user ids must be 0..K-1 in order, position {k} has id {u.id}")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def user(self, user_id: int) -> UserProfile:
        if not 0 <= user_id < len(self.users):
            raise KeyError(f"no user with id {user_id}")
        return self.users[user_id]


@dataclass(frozen=True)
class DerivedUser:
    """Per-user constants derived from a profile and the instance deadline.

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


def vm_rate_factor(degradation: float, n_scheduled: int) -> float:
    """Multiplicative service-rate loss when n_scheduled VMs share the server."""
    return (1.0 + degradation) ** (1 - n_scheduled)


def baseline_local_energy(instance: Instance) -> float:
    """Weighted energy of computing every task fully locally (joules)."""
    return sum(
        u.weight * u.energy_coeff * u.cycles_per_bit * u.task_bits * u.cpu_freq**2
        for u in instance.users
    )


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
    nonnegative computing window, then per user either
    `scheduled_checks(user, bits, vm_cap)` (vm_cap is the most the user's
    VM computes in the window) or `unscheduled_zero` followed by
    `unscheduled_checks(user)`."""
    _check_known_users(instance, schedule)
    n = len(schedule.scheduled)
    factor = vm_rate_factor(instance.degradation, n) if n else 0.0
    te = schedule.compute_time

    used = sum(
        schedule.offload_bits.get(i, 0.0) * instance.users[i].roundtrip_time_per_bit
        for i in sorted(schedule.scheduled)
    )
    budget = used + te - instance.deadline
    checks = [
        ValidationCheck("latency_budget", budget, budget <= TIME_TOL),
        ValidationCheck("compute_time_nonneg", -te, te >= -TIME_TOL),
    ]
    for u in instance.users:
        bits = schedule.offload_bits.get(u.id, 0.0)
        if u.id in schedule.scheduled:
            checks.extend(scheduled_checks(u, bits, te * u.service_rate * factor))
        else:
            checks.append(
                ValidationCheck(f"unscheduled_zero[{u.id}]", abs(bits), abs(bits) <= BITS_RTOL)
            )
            checks.extend(unscheduled_checks(u))
    return checks


def validate_rate_schedule(instance: Instance, schedule: RateSchedule) -> ValidationReport:
    """Check a rate schedule against every constraint it must satisfy.

    This is the universal checker: every solver and oracle output is expected
    to pass it.  Violations are reported, never raised.
    """

    def offload_bounds(u, bits, cap):
        tol = BITS_RTOL * max(1.0, cap)
        return (
            ValidationCheck(f"offload_upper[{u.id}]", bits - cap, bits - cap <= tol),
            ValidationCheck(f"offload_nonneg[{u.id}]", -bits, bits >= -tol),
        )

    checks = _common_checks(instance, schedule, offload_bounds, lambda u: ())
    recomputed = (
        sum(instance.users[i].weight * schedule.offload_bits.get(i, 0.0) for i in range(instance.n_users))
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
    derived = [derive_user(instance, u.id) for u in instance.users]

    def offload_bounds(u, bits, vm_cap):
        cap = min(u.task_bits, vm_cap)
        tol = BITS_RTOL * max(1.0, cap)
        floor = derived[u.id].min_offload_bits
        low = floor - bits
        return (
            ValidationCheck(f"offload_lower[{u.id}]", low, low <= BITS_RTOL * max(1.0, floor)),
            ValidationCheck(f"offload_upper[{u.id}]", bits - cap, bits - cap <= tol),
        )

    def must_not_be_forced(u):
        # a user that cannot finish locally must appear in the schedule
        floor = derived[u.id].min_offload_bits
        return (
            ValidationCheck(
                f"unscheduled_free[{u.id}]", floor, floor <= BITS_RTOL * max(1.0, u.task_bits)
            ),
        )

    checks = _common_checks(instance, schedule, offload_bounds, must_not_be_forced)
    recomputed = sum(
        d.energy_delta_per_bit * schedule.offload_bits.get(d.id, 0.0) for d in derived
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


def generate_instance(spec: GenerationSpec, seed: int) -> Instance:
    """Draw a random instance. Deterministic given (spec, seed).

    Per-user draw order is fixed: uplink Mbps, downlink Mbps, service rate,
    output-ratio exponent, task KB, cycles/bit, CPU frequency.  Mbps and KB
    convert to seconds/bit and bits here; nothing downstream ever converts.
    """
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

    rng = SplitMix64(seed)
    users = []
    for i in range(spec.n_users):
        uplink = rng.uniform(*spec.uplink_mbps)
        downlink = rng.uniform(*spec.downlink_mbps)
        service = rng.uniform(*spec.service_rate_bps)
        exponent = rng.uniform(*spec.output_ratio_exponent)
        task_kb = rng.uniform(*spec.task_kb)
        cycles = rng.uniform(*spec.cycles_per_bit)
        freq = rng.uniform(*spec.cpu_freq_hz)
        users.append(
            UserProfile(
                id=i,
                weight=spec.weight,
                uplink_time_per_bit=1.0 / (uplink * 1e6),
                downlink_time_per_bit=1.0 / (downlink * 1e6),
                output_ratio=10.0 ** (-exponent),
                service_rate=service,
                task_bits=task_kb * _BITS_PER_KB,
                cycles_per_bit=cycles,
                cpu_freq=freq,
                energy_coeff=spec.energy_coeff,
                tx_power=spec.tx_power_w,
            )
        )
    return Instance(deadline=spec.deadline_s, degradation=spec.degradation, users=tuple(users))


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

_USER_FIELDS = tuple(f.name for f in fields(UserProfile))
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


def read_instance(path) -> Instance:
    """Load an instance file.  Field names are the contract: unknown fields
    are rejected, missing ones named in the error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in doc:
        if key not in _TOP_FIELDS:
            raise ParseError(f"{path}: unknown field '{key}'")
    deadline = _require(doc, "deadline_s", str(path))
    degradation = _require(doc, "degradation", str(path))
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
        kwargs = {}
        for name in _USER_FIELDS:
            value = _require(entry, name, where)
            if name == "id":
                if not isinstance(value, int):
                    raise ParseError(f"{where}: id must be an integer")
                kwargs[name] = value
            else:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ParseError(f"{where}: {name} must be a number")
                kwargs[name] = float(value)
        users.append(UserProfile(**kwargs))
    return Instance(deadline=float(deadline), degradation=float(degradation), users=tuple(users))


def with_deadline(instance: Instance, deadline: float) -> Instance:
    """Copy of the instance with a different frame deadline."""
    return replace(instance, deadline=deadline)
