"""Behaviour lock: a small sweep grid must reproduce tests/golden/results.csv byte for byte.

The grid is all five policies x mist counts {50, 100} x seeds {1, 2} over
two base configs. The second one uses random phasing and short link
ranges without the mist layer, so it reaches the failed_mobility and
failed_no_destination paths that the defaults never hit.

A change that alters behaviour on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and explains the diff.
"""

from pathlib import Path

from satmist import SweepSpec, emit_csv, parse_config, run_sweep

GOLDEN = Path(__file__).parent / "golden" / "results.csv"

BASE_CONFIGS = (
    "simulation.duration_s=60\n",
    "simulation.duration_s=60\n"
    "constellation.phasing=random_uniform\n"
    "link.range_mist_m=6e6\n"
    "link.range_edge_m=4e6\n"
    "link.range_cloud_m=12e6\n"
    "architecture.layers=edge_dc,cloud\n",
)


def golden_csv() -> bytes:
    spec = SweepSpec(satellite_counts=(50, 100), seeds=(1, 2))
    records = []
    for text in BASE_CONFIGS:
        records += run_sweep(spec, parse_config(text))
    return emit_csv(records)


def test_golden_results_reproduced():
    assert golden_csv() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(golden_csv())
