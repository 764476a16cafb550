"""
Anatomy of a single simulation run
==================================

Runs one small simulation with event recording switched on, follows a
task through its lifecycle, and prints the resulting metrics record in
CSV form.
"""

from satmist import Simulation, TaskState, emit_csv, parse_config

# Six mist satellites, one edge datacenter, one cloud satellite; the
# round_robin policy spreads tasks across tiers so remote transfers and
# queueing both show up.
config = parse_config(
    "constellation.mist=6\n"
    "constellation.edge_dc=1\n"
    "constellation.cloud=1\n"
    "simulation.duration_s=60\n"
    "policy.name=round_robin\n"
    "rng.seed=7\n"
)

sim = Simulation(config, record_events=True)
record = sim.run()

# Every task ends in exactly one of these buckets.
print(f"generated {record.generated}: {record.succeeded} succeeded, "
      f"{record.failed_total} failed, {record.unfinished} unfinished")

# The event log is ordered by (time, sequence); SIM_END closes the run.
print("\nfirst events of the run:")
for event in sim.events[:8]:
    print(f"  t={event.time:9.4f}  {event.kind.name:18s} task={event.task_id}")
print(f"  ... {len(sim.events)} events total, "
      f"last: {sim.events[-1].kind.name} at t={sim.events[-1].time}")

# Follow one remote task end to end through the recorded events. Satellite
# i hosts VM i, so a task whose VM differs from its origin ran remotely.
remote = next(
    task for task in sim.tasks
    if task.state is TaskState.SUCCEEDED and task.assigned_vm != task.origin_satellite
)
print(f"\ntask {remote.id}: origin satellite {remote.origin_satellite}, "
      f"ran on VM {remote.assigned_vm}")
for event in sim.events:
    if event.task_id == remote.id:
        print(f"  t={event.time:9.4f}  {event.kind.name}")
print(f"  created {remote.created_at:.4f} -> finished {remote.finished_at:.4f}"
      f"  (e2e {remote.e2e_s:.4f} s <= deadline {remote.max_latency_s} s)")

# The per-run record serializes to one CSV row.
print("\nmetrics CSV:")
print(emit_csv([record]).decode(), end="")
