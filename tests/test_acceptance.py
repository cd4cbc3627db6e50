"""Acceptance gate: every stock criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Three clauses fail by design honesty rather than by bug: under
the stock parameter distributions the greedy rate benchmark never hits its
stopping condition (so it coincides with all-offloading and the 20%-gap
target cannot occur), and the energy problem is infeasible below roughly
0.2 s at K=10 (so the 30 ms comparison point admits no schedule for any
algorithm).  The failure messages carry the measured numbers; DESIGN_NOTES
in the repository root walks through the analysis.
"""

import math
import statistics

import pytest

from mecoffload import (
    GenerationSpec,
    benchmark_all_offloading,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    benchmark_lr,
    brute_force_energy,
    brute_force_rate_max,
    conditional_solution,
    dinkelbach_slave,
    feasibility_gap,
    feasibility_tmin,
    generate_instance,
    homogeneous_txrate_schedule,
    meets_necessary_condition,
    no_interference_schedule,
    solve_energy_suboptimal,
    solve_lp,
    solve_rate_max,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
)
from mecoffload.harness import SweepSpec, run_sweep
from mecoffload.rng import mix64
from lp_reference import enumerate_vertices
from support import (
    SplitMix64,
    homogeneous_instance,
    homogeneous_txrate_instance,
    make_instance,
    make_user,
    random_lp_problem,
)

BASE_SEED = 20240
D_VALUES = (0.0, 0.05, 0.1, 0.2, 0.3)
RATE_ALGOS = {
    "optimal": lambda inst: solve_rate_max(inst)[0],
    "lr": benchmark_lr,
    "greedy": benchmark_greedy,
    "all-offload": benchmark_all_offloading,
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared computations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rate_pool():
    """500 stock instances cycling K in 4..12 and d over the stock grid,
    solved both fast and by brute force."""
    pool = []
    for i in range(500):
        k = 4 + (i % 9)
        d = D_VALUES[i % 5]
        inst = generate_instance(
            GenerationSpec(n_users=k, degradation=d), mix64(BASE_SEED, 1, i)
        )
        fast, table = solve_rate_max(inst)
        oracle = brute_force_rate_max(inst)
        pool.append((inst, fast, table, oracle))
    return pool


@pytest.fixture(scope="module")
def sweep_rate_k():
    grid = tuple(range(4, 13))
    values = {name: [[] for _ in grid] for name in RATE_ALGOS}
    for gi, k in enumerate(grid):
        for ri in range(500):
            inst = generate_instance(
                GenerationSpec(n_users=k, degradation=0.1), mix64(BASE_SEED, gi, ri)
            )
            for name, fn in RATE_ALGOS.items():
                values[name][gi].append(fn(inst).sum_rate)
    return grid, values


@pytest.fixture(scope="module")
def sweep_rate_d():
    grid = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    values = {name: [[] for _ in grid] for name in RATE_ALGOS}
    for gi, d in enumerate(grid):
        for ri in range(500):
            inst = generate_instance(
                GenerationSpec(n_users=10, degradation=d), mix64(BASE_SEED, gi, ri)
            )
            for name, fn in RATE_ALGOS.items():
                values[name][gi].append(fn(inst).sum_rate)
    return grid, values


@pytest.fixture(scope="module")
def energy_vs_deadline():
    """One fixed 500-instance pool re-solved at every deadline grid point,
    so deadline effects are not confounded with redraws."""
    grid = (0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65)
    rows = []
    for ri in range(500):
        inst = generate_instance(
            GenerationSpec(n_users=10, degradation=0.2, deadline_s=grid[0]),
            mix64(BASE_SEED, 0, ri),
        )
        row = []
        for t in grid:
            s = solve_energy_suboptimal(with_deadline(inst, t))
            row.append(None if s.status == "infeasible" else s.total_energy)
        rows.append(row)
    return grid, rows


@pytest.fixture(scope="module")
def sweep_energy_d():
    grid = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    rows = []
    for ri in range(500):
        row = []
        for gi, d in enumerate(grid):
            inst = generate_instance(
                GenerationSpec(n_users=10, degradation=d, deadline_s=0.65),
                mix64(BASE_SEED, gi, ri),
            )
            s = solve_energy_suboptimal(inst)
            a = benchmark_energy_all_offloading(inst)
            row.append(
                (
                    None if s.status == "infeasible" else s.total_energy,
                    None if a.status == "infeasible" else a.total_energy,
                )
            )
        rows.append(row)
    return grid, rows


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_rate_optimality(rate_pool):
    worst = 0.0
    for _, fast, _, oracle in rate_pool:
        rel = abs(fast.sum_rate - oracle.sum_rate) / oracle.sum_rate
        worst = max(worst, rel)
    report(
        "criterion 1 (rate optimality vs brute force, 500 instances)",
        worst <= 1e-9,
        f"worst relative error {worst:.3e} (tolerance 1e-9)",
    )


def test_criterion_02_binary_offload_structure(rate_pool):
    worst_slack = 0.0
    all_valid = True
    for inst, fast, _, _ in rate_pool:
        factor = (1.0 + inst.degradation) ** (1 - len(fast.scheduled))
        for uid in fast.scheduled:
            cap = fast.compute_time * inst.users[uid].service_rate * factor
            worst_slack = max(worst_slack, abs(fast.offload_bits[uid] - cap) / cap)
        for uid in range(inst.n_users):
            if uid not in fast.scheduled and fast.offload_bits[uid] != 0.0:
                all_valid = False
        if not validate_rate_schedule(inst, fast).ok:
            all_valid = False
    report(
        "criterion 2 (every scheduled user at its offload cap)",
        worst_slack <= 1e-9 and all_valid,
        f"worst relative cap slack {worst_slack:.3e}; checker clean: {all_valid}",
    )


def wide_txrate_instance(seed):
    spec = GenerationSpec(
        n_users=8,
        degradation=0.1,
        uplink_mbps=(2.0, 300.0),
        downlink_mbps=(2.0, 300.0),
        service_rate_bps=(1e7, 1e8),
    )
    return generate_instance(spec, seed)


def test_criterion_03_bottleneck_condition_and_removal(rate_pool):
    clean_winners = all(
        meets_necessary_condition(inst, oracle)
        for inst, _, _, oracle in rate_pool
    )

    rng = SplitMix64(0xC3)
    violations = 0
    trials = 0
    improved = True
    while violations < 1000 and trials < 60000:
        trials += 1
        inst = wide_txrate_instance(int(rng.next_u64() % (1 << 48)))
        members = sorted(
            {int(rng.uniform(0, inst.n_users)) for _ in range(2 + int(rng.uniform(0, 7)))}
        )
        if len(members) < 2:
            continue
        cs = conditional_solution(inst, members)
        if meets_necessary_condition(inst, cs):
            continue
        violations += 1
        slowest = min(
            members,
            key=lambda i: (inst.users[i].weight / inst.users[i].roundtrip_time_per_bit, i),
        )
        reduced = conditional_solution(inst, [i for i in members if i != slowest])
        if not reduced.sum_rate > cs.sum_rate:
            improved = False
    report(
        "criterion 3 (bottleneck condition and strict removal gain)",
        clean_winners and improved and violations >= 1000,
        f"winners clean: {clean_winners}; {violations} violating sets all improved: {improved}",
    )


def test_criterion_04_special_cases():
    # (a) homogeneous users: scheduled count in the floor/ceil neighborhood
    ok_a = True
    for d in (0.05, 0.1, 0.2):
        x = 1.0 / math.log1p(d)
        candidates = {
            min(max(int(math.floor(x)), 1), 12),
            min(max(int(math.ceil(x)), 1), 12),
        }
        for seed in range(40):
            schedule, _ = solve_rate_max(homogeneous_instance(12, d, seed))
            if len(schedule.scheduled) not in candidates:
                ok_a = False
    # (b) shared transmission rate: service-rate prefix equals brute force
    worst_b = 0.0
    for seed in range(200):
        inst = homogeneous_txrate_instance(8, 0.05 + 0.05 * (seed % 5), seed)
        fast = homogeneous_txrate_schedule(inst)
        oracle = brute_force_rate_max(inst)
        worst_b = max(worst_b, abs(fast.sum_rate - oracle.sum_rate) / oracle.sum_rate)
    # (c) zero interference: transmission-rate threshold equals brute force
    worst_c = 0.0
    for seed in range(200):
        inst = generate_instance(
            GenerationSpec(n_users=8, degradation=0.0), mix64(BASE_SEED, 4, seed)
        )
        fast = no_interference_schedule(inst)
        oracle = brute_force_rate_max(inst)
        worst_c = max(worst_c, abs(fast.sum_rate - oracle.sum_rate) / oracle.sum_rate)
    report(
        "criterion 4 (special-case solvers)",
        ok_a and worst_b <= 1e-9 and worst_c <= 1e-9,
        f"homogeneous neighborhood ok: {ok_a}; shared-tx worst rel {worst_b:.2e}; "
        f"zero-interference worst rel {worst_c:.2e}",
    )


def test_criterion_05_dinkelbach_convergence():
    max_iters = 0
    monotone = True
    converged = True
    for i in range(100):
        k = 4 + (i % 9)
        d = D_VALUES[i % 5]
        inst = generate_instance(
            GenerationSpec(n_users=k, degradation=d), mix64(BASE_SEED, 5, i)
        )
        for m in range(1, k + 1):
            selected, _, trace = dinkelbach_slave(inst, m)
            rates = [rec.rate for rec in trace.records]
            if not all(a < b for a, b in zip(rates, rates[1:])):
                monotone = False
            max_iters = max(max_iters, trace.iterations)
            num = sum(inst.users[u].weight * inst.users[u].service_rate for u in selected)
            if abs(trace.records[-1].gap) > 1e-9 * (1.0 + num):
                converged = False
    report(
        "criterion 5 (Dinkelbach strictly increasing, <= 30 iterations)",
        monotone and converged and max_iters <= 30,
        f"max iterations {max_iters}; strictly increasing: {monotone}; "
        f"final gap within tolerance: {converged}",
    )


def test_criterion_06_feasibility_tmin():
    # algebraic single-user case
    u = make_user(0, a=0.05, b=0.05, gamma=1.0, r=1.0, task=10.0, cycles=1.0, freq=1.0)
    single = make_instance([u], deadline=1.0, degradation=0.0)
    single_ok = abs(feasibility_tmin(single) - 11.0 / 2.1) <= 1e-6

    worst_resid = 0.0
    sides_ok = bracket_ok = True
    for i in range(200):
        d = D_VALUES[i % 5]
        inst = generate_instance(
            GenerationSpec(n_users=6, degradation=d), mix64(BASE_SEED, 6, i)
        )
        t_min = feasibility_tmin(inst)
        scale = max(t_min, 1e-3)
        worst_resid = max(worst_resid, abs(feasibility_gap(inst, t_min)) / scale)
        # the double below t_min is infeasible: no double is skipped
        bracket_ok &= t_min == 0.0 or feasibility_gap(inst, math.nextafter(t_min, 0.0)) > 0.0
        if t_min > 1e-3:
            above = brute_force_energy(with_deadline(inst, t_min + 1e-6))
            below = brute_force_energy(with_deadline(inst, t_min - 1e-3))
            if above.status == "infeasible" or below.status != "infeasible":
                sides_ok = False
    report(
        "criterion 6 (smallest feasible deadline)",
        single_ok and worst_resid <= 1e-6 and sides_ok and bracket_ok,
        f"algebraic case ok: {single_ok}; worst residual/scale {worst_resid:.2e}; "
        f"two-sided oracle checks ok: {sides_ok}; one-ulp brackets ok: {bracket_ok}",
    )


def test_criterion_07_energy_near_optimality():
    rng = SplitMix64(0xE7)
    gaps = []
    never_beaten = True
    checker_clean = True
    for i in range(300):
        k = 3 + (i % 8)
        d = (0.05, 0.1, 0.2, 0.3)[i % 4]
        inst = generate_instance(
            GenerationSpec(n_users=k, degradation=d), mix64(BASE_SEED, 7, i)
        )
        t_min = feasibility_tmin(inst)
        t = t_min * (1.0 + rng.uniform())
        at = with_deadline(inst, t)
        fast = solve_energy_suboptimal(at)
        oracle = brute_force_energy(at)
        if fast.status == "infeasible" or oracle.status == "infeasible":
            never_beaten = False
            continue
        if fast.objective < oracle.objective - 1e-9 * (1.0 + abs(oracle.objective)):
            never_beaten = False
        if not validate_energy_schedule(at, fast).ok:
            checker_clean = False
        gaps.append((fast.total_energy - oracle.total_energy) / oracle.total_energy)
    mean_gap = statistics.mean(gaps)
    report(
        "criterion 7 (energy scheduler vs oracle, 300 instances)",
        never_beaten and checker_clean and mean_gap <= 0.10,
        f"mean relative total-energy gap {mean_gap:.3e} (guard 0.10); "
        f"oracle never beaten: {never_beaten}; checker clean: {checker_clean}",
    )


def _means(per_grid):
    return [statistics.mean(vals) for vals in per_grid]


def _stderrs(per_grid):
    return [statistics.stdev(v) / math.sqrt(len(v)) for v in per_grid]


def test_criterion_08a_optimal_dominates(sweep_rate_k):
    grid, values = sweep_rate_k
    means = {name: _means(v) for name, v in values.items()}
    stderrs = {name: _stderrs(v) for name, v in values.items()}
    ok = True
    for gi in range(len(grid)):
        for name in ("lr", "greedy", "all-offload"):
            if means["optimal"][gi] < means[name][gi] - stderrs[name][gi]:
                ok = False
    report(
        "criterion 8a (optimal mean rate dominates every benchmark)",
        ok,
        "dominance within standard error at every population size",
    )


def test_criterion_08a_benchmark_gaps(sweep_rate_k):
    grid, values = sweep_rate_k
    gi = grid.index(12)
    opt = statistics.mean(values["optimal"][gi])
    gaps = {
        name: 100.0 * (opt - statistics.mean(values[name][gi])) / statistics.mean(values[name][gi])
        for name in ("lr", "greedy", "all-offload")
    }
    targets = {"lr": 3.0, "greedy": 6.0, "all-offload": 20.0}
    misses = {
        name: gaps[name] for name in targets if abs(gaps[name] - targets[name]) > 5.0
    }
    report(
        "criterion 8a (mean gaps at K=12 near 3%/6%/20%, each +-5pp)",
        not misses,
        f"measured lr {gaps['lr']:.2f}%, greedy {gaps['greedy']:.2f}%, "
        f"all-offload {gaps['all-offload']:.2f}%"
        + (
            "; the all-offload target presumes the greedy stopping condition can"
            " bind, which the stock transmission rates never allow"
            if misses
            else ""
        ),
    )


def test_criterion_08b_interference_decline(sweep_rate_d):
    grid, values = sweep_rate_d
    means = {name: _means(v) for name, v in values.items()}
    mono = all(
        means["optimal"][i + 1] <= means["optimal"][i] * (1 + 1e-12)
        for i in range(len(grid) - 1)
    )
    declines = {
        name: (m[0] - m[-1]) / m[0] for name, m in means.items()
    }
    smallest = all(
        declines["optimal"] <= declines[name] + 1e-9 for name in means
    )
    report(
        "criterion 8b (optimal degrades slowest as interference grows)",
        mono and smallest,
        f"optimal mean nonincreasing: {mono}; declines "
        + ", ".join(f"{n} {100 * v:.1f}%" for n, v in sorted(declines.items())),
    )


def test_criterion_08c_energy_deadline_trend(energy_vs_deadline):
    grid, rows = energy_vs_deadline
    common = [r for r in rows if all(v is not None for v in r)]
    means = [statistics.mean(r[i] for r in common) for i in range(len(grid))]
    mono = all(means[i + 1] <= means[i] * (1 + 1e-12) for i in range(len(grid) - 1))
    saturated = abs(means[-1] - means[-2]) <= 1e-9 * means[-2]
    report(
        "criterion 8c (energy falls with the deadline, then saturates)",
        mono and saturated,
        f"{len(common)}/500 instances feasible across the grid; nonincreasing: {mono}; "
        f"last two grid means relative difference "
        f"{abs(means[-1] - means[-2]) / means[-2]:.2e}",
    )


def test_criterion_08c_savings_at_30ms():
    both = []
    for ri in range(500):
        inst = generate_instance(
            GenerationSpec(n_users=10, degradation=0.2, deadline_s=0.030),
            mix64(BASE_SEED, 8, ri),
        )
        s = solve_energy_suboptimal(inst)
        a = benchmark_energy_all_offloading(inst)
        if s.status != "infeasible" and a.status != "infeasible":
            both.append((s.total_energy, a.total_energy))
    if both:
        saving = 100.0 * (
            statistics.mean(b for _, b in both) - statistics.mean(s for s, _ in both)
        ) / statistics.mean(b for _, b in both)
        ok = abs(saving - 14.0) <= 5.0
        detail = f"measured saving {saving:.2f}% over {len(both)} feasible pairs"
    else:
        ok = False
        detail = (
            "0/500 realizations feasible at a 30 ms deadline: the stock task sizes "
            "need roughly 50 ms of radio time plus an interference-inflated "
            "computing window (smallest feasible deadlines average 0.30 s), so no "
            "algorithm admits a schedule there and no saving can be measured"
        )
    report("criterion 8c (14% +-5pp saving vs all-offloading at 30 ms)", ok, detail)


def test_criterion_08d_energy_interference_growth(sweep_energy_d):
    grid, rows = sweep_energy_d
    common = [r for r in rows if all(v[0] is not None and v[1] is not None for v in r)]
    sub = [statistics.mean(r[i][0] for r in common) for i in range(len(grid))]
    allo = [statistics.mean(r[i][1] for r in common) for i in range(len(grid))]
    growth_sub = [m - sub[0] for m in sub]
    growth_all = [m - allo[0] for m in allo]
    bad = [
        (grid[i], growth_sub[i], growth_all[i])
        for i in range(1, len(grid))
        if not growth_sub[i] < growth_all[i]
    ]
    report(
        "criterion 8d (scheduler energy grows slower in d than all-offloading)",
        not bad,
        f"growth from d=0, scheduler vs all-offloading: "
        + ", ".join(
            f"d={grid[i]:.2f}: {growth_sub[i]:.2e} vs {growth_all[i]:.2e}"
            for i in range(1, len(grid))
        )
        + (
            "; with every stock user favoring offloading the two schemes coincide"
            " until the deadline binds, and at d=0.3 the scheduler's all-or-nothing"
            " rule grows faster than the benchmark's continuous split"
            if bad
            else ""
        ),
    )


def test_criterion_09_lp_solver():
    rng = SplitMix64(0x1B)
    agree = True
    worst = 0.0
    deterministic = True
    for _ in range(1000):
        problem = random_lp_problem(rng)
        fast = solve_lp(problem)
        slow = enumerate_vertices(problem)
        if fast.status != slow.status:
            agree = False
            continue
        if fast.status == "optimal":
            diff = abs(fast.objective_value - slow.objective_value)
            worst = max(worst, diff / (1.0 + abs(slow.objective_value)))
        rerun = solve_lp(problem)
        if rerun != fast:
            deterministic = False
    report(
        "criterion 9 (simplex vs vertex enumeration, 1000 LPs)",
        agree and worst <= 1e-8 and deterministic,
        f"statuses agree: {agree}; worst objective disagreement {worst:.2e}; "
        f"deterministic: {deterministic}",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    specs = [
        SweepSpec(experiment="rate-vs-d", grid=(0.0, 0.2), realizations=5,
                  base_seed=77, certify=True),
        SweepSpec(experiment="energy-vs-T", grid=(0.4, 0.6), realizations=5,
                  base_seed=78, n_users=5),
    ]
    ok = True
    for spec in specs:
        if run_sweep(spec) != run_sweep(spec):
            ok = False
    report(
        "criterion 10 (repeated sweeps are byte-identical)",
        ok,
        "two runs of each experiment with a fixed seed compared equal",
    )
