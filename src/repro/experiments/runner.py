"""The experiment registry behind ``python -m repro experiments``.

:data:`EXPERIMENTS` maps each exhibit key to its full-scale and quick
callables; :func:`run_experiments` runs a selection of them.  The CLI
(:mod:`repro.cli`) is the one command-line entry point::

    python -m repro experiments              # everything
    python -m repro experiments fig11 fig13  # a subset
    python -m repro experiments --quick      # smaller workloads
    python -m repro experiments --csv-dir out/  # + CSV per exhibit
    python -m repro experiments --parallelism 4

``--parallelism`` fans independent simulations out across worker
processes; the regenerated numbers are bit-identical to the serial run.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.experiments.common import execution
from repro.experiments import (
    energy_comparison,
    fig02_breakdown,
    fig03_scheduling_effect,
    fig05_scheduling,
    fig07_systolic_example,
    fig08_latency_curves,
    fig09_hybrid_toy,
    fig11_throughput,
    fig12_utilization,
    fig13_dse,
    fig14_datasets,
    table1_configs,
    table2_area_power,
    table3_interface,
)

#: Experiment registry: key -> (full-run callable, quick-run callable).
EXPERIMENTS: Dict[str, Dict[str, Callable]] = {
    "fig02": {"full": fig02_breakdown.run,
              "quick": lambda: fig02_breakdown.run(reads=80,
                                                   genome_length=40_000,
                                                   zoom=slice(40, 80))},
    "fig03": {"full": fig03_scheduling_effect.run,
              "quick": lambda: fig03_scheduling_effect.run(reads=150)},
    "fig05": {"full": fig05_scheduling.run, "quick": fig05_scheduling.run},
    "fig07": {"full": fig07_systolic_example.run,
              "quick": fig07_systolic_example.run},
    "fig08": {"full": fig08_latency_curves.run,
              "quick": fig08_latency_curves.run},
    "fig09": {"full": fig09_hybrid_toy.run, "quick": fig09_hybrid_toy.run},
    "table1": {"full": table1_configs.run, "quick": table1_configs.run},
    "fig11": {"full": fig11_throughput.run,
              "quick": lambda: fig11_throughput.run(reads=300)},
    "table2": {"full": table2_area_power.run, "quick": table2_area_power.run},
    "fig12": {"full": fig12_utilization.run,
              "quick": lambda: fig12_utilization.run(reads=400)},
    "fig13": {"full": fig13_dse.run,
              "quick": lambda: fig13_dse.run(
                  reads=200, depths=(64, 1024),
                  interval_counts=(1, 4),
                  switch_thresholds=(0.75,),
                  idle_fractions=(0.15,))},
    "fig14": {"full": fig14_datasets.run,
              "quick": lambda: fig14_datasets.run(reads_per_dataset=150)},
    "table3": {"full": table3_interface.run, "quick": table3_interface.run},
    "energy": {"full": energy_comparison.run,
               "quick": lambda: energy_comparison.run(reads=200)},
}


def run_experiments(names: List[str], quick: bool = False,
                    csv_dir: Optional[str] = None,
                    parallelism: Optional[int] = None) -> List:
    """Run the named experiments (all when empty); returns the results.

    With ``csv_dir`` set, each exhibit's rows are also written to
    ``<csv_dir>/<name>.csv``.  ``parallelism`` installs a worker count
    for the duration of the run; experiments resolve it ambiently, so
    the registry's zero-arg callables need no threading-through.
    """
    selected = names or list(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiments {unknown}; known: {known}")
    mode = "quick" if quick else "full"
    results = []
    with execution(parallelism):
        for name in selected:
            result = EXPERIMENTS[name][mode]()
            if csv_dir is not None:
                os.makedirs(csv_dir, exist_ok=True)
                result.to_csv(os.path.join(csv_dir, f"{name}.csv"))
            results.append(result)
    return results
