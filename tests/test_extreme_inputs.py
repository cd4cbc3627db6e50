"""Extreme inputs give a schedule that validates or a typed refusal.

A fixed grid of user counts, interference factors and deadlines, from an
empty instance to K = 1000 and from d = 0 to 1e300 and T = 1e-9 s to
1e300 s, with the deadlines at t_min and one ulp below it added.  Every
solver's schedule must pass its validator, or the call must refuse in a
typed way: no users (a `ValueError` naming them), a size budget
(`BudgetExceededError`), or an energy status of "infeasible" that carries
t_min.  The suite runs with `RuntimeWarning` as an error, so a stray
overflow fails a cell too.  A costly variant of every cell, whose every
third user pays 100 times the transmit power, also runs the subset LP and
the energy oracle, which must give a schedule that validates or say that
the subset or the instance is infeasible.  An instance whose energy terms
overflow the doubles is refused by every energy solver with a `ValueError`.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mecoffload import (
    BudgetExceededError,
    GenerationSpec,
    benchmark_all_offloading,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    brute_force_energy,
    brute_force_rate_max,
    feasibility_gap,
    feasibility_tmin,
    generate_instance,
    lp,
    solve_energy_suboptimal,
    solve_energy_suboptimal_batch,
    solve_rate_max,
    solve_subset_lp,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
    write_instance,
)
from mecoffload.harness import cli_main
from support import stock_instance

USER_COUNTS = (0, 1, 12, 13, 1000)
DEGRADATIONS = (0.0, 5e-324, 0.1, 0.3, 3.0, 1e30, 1e300)
DEADLINES = (1e-9, 0.035, 1.5, 1e6, 1e300)
SEED = 3


def grid_instances(n_users, degradation):
    """The grid's instances of one (K, d), one per deadline, then at t_min
    and the double below it where t_min > 0; and t_min."""
    spec = GenerationSpec(n_users=n_users, degradation=degradation, deadline_s=DEADLINES[0])
    base = generate_instance(spec, SEED)
    t_min = feasibility_tmin(base)
    deadlines = list(DEADLINES)
    if t_min > 0.0:
        deadlines += [t_min, math.nextafter(t_min, 0.0)]
    return [with_deadline(base, t) for t in deadlines], t_min


def rate_cell(instance):
    """Every rate solver on one instance: its schedule validates, or the
    instance has no users and the call says so."""
    solvers = [lambda i: solve_rate_max(i)[0], benchmark_greedy, benchmark_all_offloading]
    if instance.n_users <= 12:
        solvers.append(brute_force_rate_max)
    for solve in solvers:
        if instance.n_users == 0:
            with pytest.raises(ValueError, match="no users"):
                solve(instance)
            continue
        report = validate_rate_schedule(instance, solve(instance))
        assert report.ok, report.failures()


def energy_cell(instance, t_min):
    """The energy heuristic on one instance: a schedule that validates
    exactly when the deadline reaches t_min, else a refusal that reports
    t_min."""
    schedule = solve_energy_suboptimal(instance)
    feasible = instance.deadline >= t_min
    assert (schedule.status != "infeasible") == feasible
    if feasible:
        report = validate_energy_schedule(instance, schedule)
        assert report.ok, report.failures()
    else:
        assert schedule.t_min == t_min


def costly(instance):
    """The instance with 100 times the transmit power of users 1, 4, 7, ...,
    for whom offloading then costs energy: at a short deadline some of them
    are forced costly, the users whose forced minimum the subset LP commits."""
    power = instance.tx_power.copy()
    power[1::3] *= 100.0
    return dataclasses.replace(instance, tx_power=power)


def assert_valid_energy(instance, schedule):
    report = validate_energy_schedule(instance, schedule)
    assert report.ok, report.failures()


def costly_cell(instance, t_min):
    """The subset LP of the forced users alone, and the energy oracle within
    its budget: each schedule validates, or the subset LP returns None, or
    the oracle returns an infeasible schedule that reports t_min.  Below
    t_min both refuse, with no LP; at or above it, the oracle refuses only
    where the subset LP is infeasible too."""
    schedule = solve_subset_lp(instance, instance.partition, ())
    assert (schedule is None) >= (instance.deadline < t_min)
    if schedule is not None:
        assert_valid_energy(instance, schedule)
    if instance.n_users <= 13:
        reference = brute_force_energy(instance)
        assert (reference.status == "infeasible") >= (instance.deadline < t_min)
        if reference.status == "infeasible":
            assert reference.t_min == t_min
            assert instance.deadline < t_min or schedule is None
        else:
            assert_valid_energy(instance, reference)


@pytest.mark.parametrize("n_users", USER_COUNTS)
@pytest.mark.parametrize("degradation", DEGRADATIONS)
def test_costly_cells_validate_or_refuse(n_users, degradation):
    instances, t_min = grid_instances(n_users, degradation)
    variants = [costly(instance) for instance in instances]
    for instance in variants:
        assert feasibility_tmin(instance) == t_min  # the power moves no deadline
        costly_cell(instance, t_min)
        energy_cell(instance, t_min)
    if n_users >= 12:
        assert any(instance.partition.forced_costly for instance in variants)


@pytest.mark.parametrize("n_users", USER_COUNTS)
@pytest.mark.parametrize("degradation", DEGRADATIONS)
def test_every_cell_validates_or_refuses(n_users, degradation):
    instances, t_min = grid_instances(n_users, degradation)
    for instance in instances:
        assert feasibility_tmin(instance) == t_min
        assert feasibility_gap(instance, t_min) <= 0.0
        if t_min > 0.0:
            assert feasibility_gap(instance, math.nextafter(t_min, 0.0)) > 0.0
        rate_cell(instance)
        energy_cell(instance, t_min)


@pytest.mark.parametrize("coeff", [5e281, 1e282])
def test_overflowing_energy_terms_are_refused(coeff):
    # Every user's local energy w kappa c L f^2 overflows the doubles, and
    # with it every objective: the energy solvers refuse the instance,
    # while t_min and the rate solvers, which do not read those terms,
    # still answer.
    base = stock_instance(10, 0.2, 5, deadline=0.65)
    instance = dataclasses.replace(base, energy_coeff=np.full(10, coeff))
    assert feasibility_tmin(instance) == feasibility_tmin(base)
    rate_cell(instance)
    for solve in (solve_energy_suboptimal, benchmark_energy_all_offloading, brute_force_energy,
                  lambda i: solve_subset_lp(i, i.partition, ()),
                  lambda i: solve_energy_suboptimal_batch([base, i])):
        with pytest.raises(ValueError, match="local energy or energy delta per bit"):
            solve(instance)


@pytest.mark.parametrize("freq", [1e160, 1e200])
def test_overflowing_cpu_squares_are_refused(freq, tmp_path, capsys):
    # f^2 overflows the doubles past about 1.34e154 Hz: the square is inf,
    # so the energy solvers refuse the instance as for an overflowing local
    # energy, while t_min and the rate solvers still answer
    base = stock_instance(10, 0.2, 5, deadline=0.65)
    instance = dataclasses.replace(base, cpu_freq=np.full(10, freq))
    assert feasibility_tmin(instance) > 0.0
    rate_cell(instance)
    for solve in (solve_energy_suboptimal, benchmark_energy_all_offloading, brute_force_energy,
                  lambda i: solve_subset_lp(i, i.partition, ()),
                  lambda i: solve_energy_suboptimal_batch([base, i])):
        with pytest.raises(ValueError, match="local energy or energy delta per bit"):
            solve(instance)
    path = tmp_path / "instance.json"
    write_instance(instance, path)
    assert cli_main(["solve-energy", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_all_offload_refuses_above_the_lp_guard_before_building():
    # the least K whose all-offload LP (2K + 1 rows over K + 1 columns)
    # exceeds the guard, about 1,300
    lo, hi = 1, 10_000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            lp.check_size(2 * mid + 1, mid + 1)
            lo = mid
        except BudgetExceededError:
            hi = mid
    assert 1000 < hi < 2000
    instance = generate_instance(GenerationSpec(n_users=hi, deadline_s=1.5), SEED)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            benchmark_energy_all_offloading(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the LP's constraint matrix alone would take K^2 doubles (13 MB); the
    # refusal may allocate an eighth of that
    assert peak < hi * hi
