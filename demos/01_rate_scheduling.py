"""Walk through sum-offloading-rate maximization on one small system.

Eight users share an edge server for a 35 ms frame.  Scheduling more of
them multiplexes the parallel-computing phase but degrades every VM through
I/O interference, so the best schedule balances the two.
"""

from mecoffload import (
    GenerationSpec,
    benchmark_all_offloading,
    benchmark_greedy,
    benchmark_lr,
    brute_force_rate_max,
    conditional_solution,
    generate_instance,
    meets_necessary_condition,
    per_size_table,
    solve_rate_max,
    validate_rate_schedule,
)

instance = generate_instance(GenerationSpec(n_users=8, degradation=0.15), seed=7)
print(f"{instance.n_users} users, deadline {instance.deadline * 1e3:.0f} ms, "
      f"degradation factor {instance.degradation}")

# The optimal schedule: one Dinkelbach loop over every set size at once,
# sorting the users once per step.  The per-size diagnostic table runs a
# separate fixed-size solve for each size and shows why every size must be
# considered: the conditional optimum is not monotone in the set size.
schedule, _ = solve_rate_max(instance)
print("\n size | best rate (Mbit/s) | iterations | scheduled")
for row in per_size_table(instance):
    mark = "*" if row.selected == schedule.scheduled else " "
    print(f"  {row.m:3d} | {row.rate / 1e6:17.4f} | {row.iterations:10d} |"
          f" {sorted(row.selected)} {mark}")

print(f"\noptimal: schedule {sorted(schedule.scheduled)} at "
      f"{schedule.sum_rate / 1e6:.4f} Mbit/s "
      f"(computing window {schedule.compute_time * 1e3:.2f} ms)")

# Every scheduled user offloads exactly its interference-degraded cap; the
# independent checker verifies the bit caps and the latency budget.
report = validate_rate_schedule(instance, schedule)
print(f"constraint checker: {'all clean' if report.ok else report.render()}")

# A brute-force pass over all 255 nonempty subsets certifies optimality.
oracle = brute_force_rate_max(instance)
rel = abs(schedule.sum_rate - oracle.sum_rate) / oracle.sum_rate
print(f"brute force agrees to relative error {rel:.1e}")

# The fixed-set closed form also evaluates any schedule you like.
everyone = conditional_solution(instance, range(instance.n_users))
print(f"\nscheduling everyone instead: {everyone.sum_rate / 1e6:.4f} Mbit/s "
      f"({'meets' if meets_necessary_condition(instance, everyone) else 'violates'} "
      f"the bottleneck condition)")

print("\nbenchmarks:")
# The LP relaxation has integral vertices, so it is exact and shows +0.00%.
for name, fn in [("greedy", benchmark_greedy), ("lp-relax (exact)", benchmark_lr),
                 ("all-offloading", benchmark_all_offloading)]:
    r = fn(instance).sum_rate
    print(f"  {name:16s} {r / 1e6:8.4f} Mbit/s "
          f"({100 * (schedule.sum_rate - r) / r:+.2f}% for optimal)")
