"""Walk through sum-mobile-energy minimization as the deadline tightens.

The energy side partitions users by necessity and profitability of
offloading, then picks one of three branches: offload everything that
saves energy, drop optional users greedily, or shrink the forced users'
offload sizes with an LP.
"""

import numpy as np

from mecoffload import (
    GenerationSpec,
    brute_force_energy,
    derive_user,
    feasibility_tmin,
    generate_instance,
    partition_users,
    solve_energy_suboptimal,
    total_delay,
    validate_energy_schedule,
    with_deadline,
)

base = generate_instance(GenerationSpec(n_users=8, degradation=0.2, deadline_s=0.45), seed=23)

# Smallest workable deadline: below this even maximal offloading cannot
# finish every task in time.
t_min = feasibility_tmin(base)
forced_count = np.count_nonzero(base.min_offload_bits_at(t_min) > 0)
print(f"smallest feasible deadline: {t_min * 1e3:.1f} ms "
      f"({forced_count} users would be forced to offload there)")

part = partition_users(base)
print(f"\npartition at T = {base.deadline * 1e3:.0f} ms:")
print(f"  forced & saving   {sorted(part.forced_saving)}")
print(f"  forced & costly   {sorted(part.forced_costly)}")
print(f"  free & saving     {sorted(part.free_saving)}")
print(f"  free & costly     {sorted(part.free_costly)}")
full_delay = total_delay(base, part, part.free_saving)
print(f"full offloading of every saving user needs {full_delay * 1e3:.1f} ms")

print("\ndeadline sweep (same users, tighter and tighter):")
print("     T (ms) | branch        | scheduled | energy (mJ) | oracle gap")
for t in (1.2 * full_delay, 0.95 * full_delay, 1.2 * t_min, 1.02 * t_min, 0.8 * t_min):
    at = with_deadline(base, t)
    schedule = solve_energy_suboptimal(at)
    if schedule.status == "infeasible":
        print(f"  {t * 1e3:9.1f} | infeasible    |        -- |          -- | "
              f"(needs {schedule.t_min * 1e3:.1f} ms)")
        continue
    oracle = brute_force_energy(at)
    gap = (schedule.total_energy - oracle.total_energy) / oracle.total_energy
    ok = validate_energy_schedule(at, schedule).ok
    print(f"  {t * 1e3:9.1f} | {schedule.status:13s} | {len(schedule.scheduled):9d} |"
          f" {schedule.total_energy * 1e3:11.4f} | {gap:9.2e}{'' if ok else '  CHECK FAILED'}")

# Per-bit economics behind the partition: offloading saves energy exactly
# when the radio joules per bit undercut the local CPU joules per bit.
print("\nper-user energy delta (J/bit, negative saves):")
for u in base.users[:4]:
    d = derive_user(base, u.id)
    print(f"  user {u.id}: {d.energy_delta_per_bit:+.3e} "
          f"(must offload {d.min_offload_bits / 1e3:.1f} kbit)")
