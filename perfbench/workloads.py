"""The benchmark's three workloads, each a sweep grid over one base config.

A workload is a config file text (the `section.key=value` format that
`satmist run --config` reads) plus the grid `sweep.run_sweep` expands it
into, over all five POLICIES. The benchmark seed picks the simulator
seed(s). The grid's mist count replaces `constellation.mist`, and
`derive_config` also makes the simulator seed the constellation seed,
which only `random_uniform` phasing reads. Why each workload was chosen
is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    mist_counts: tuple[int, ...]
    seed_offsets: tuple[int, ...] = (0,)

    def seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(seed + offset for offset in self.seed_offsets)


POLICIES = ("distance_only", "round_robin", "trade_off", "random_vm", "weight_greedy")

# Horizon of every workload under --tiny, which the self-test uses.
TINY_DURATION_S = 1.0

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance-10 scenario. The paper's horizon is 600 s; 15 s
        # fits several whole rounds of five policies into one measured run.
        Workload(
            name="full_walker",
            config_text="simulation.duration_s=15\n",
            mist_counts=(1000,),
        ),
        # The acceptance 1-4 grid on a short horizon, two seeds.
        Workload(
            name="desk_sweep",
            config_text="simulation.duration_s=10\n",
            mist_counts=(100, 200, 300),
            seed_offsets=(0, 1),
        ),
        # Ranges below the largest inter-shell distances (mist-mist 13.5e6 m,
        # mist-edge 15.1e6 m, mist-cloud 23.1e6 m), so feasibility changes
        # from task to task and some downloads fail the range check.
        Workload(
            name="sparse_links",
            config_text=(
                "simulation.duration_s=20\n"
                "constellation.phasing=random_uniform\n"
                "link.range_mist_m=6e6\n"
                "link.range_edge_m=9e6\n"
                "link.range_cloud_m=17e6\n"
                "task.rate_per_min=40\n"
            ),
            mist_counts=(300,),
        ),
    )
}
