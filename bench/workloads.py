"""Benchmark workloads: the config each one hands to ``bdris run``, and what it predicts.

Every workload is one experiment at a fixed, small trial count, so a run of
the benchmark fits several complete ``bdris run`` children.  The seed is not
part of the config: the harness passes it through ``bdris run --seed``.

The three workloads stress different layers:

* ``freq-sweep`` re-projects every trial onto 31 frequency codebooks, so the
  per-frequency snap -> scatter -> zero-forcing loop and the blocked-link SVD
  carry the run.  The conditional-gradient solver never runs, so a change to
  it must show nothing here.
* ``direct-links`` is the mirror image: every trial is a 500-iteration
  conditional-gradient solve plus branch retrieval at one frequency, and the
  SVD never runs.
* ``power-grid`` runs both solvers over D = 20..100 with two priority base
  stations, so per-call overhead (small D) and kernel time (large D) both
  show, and conditional-gradient batches hold every trial's stacked matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

ARCHITECTURES = ["fully-connected", "group-connected", "single-connected"]

# Every span the traced child records; see trace_child.TARGETS.
SPANS = (
    "channel.sample",
    "channel.zf",
    "matrixkit.leading_sv",
    "optimizer.stack",
    "optimizer.frank_wolfe",
    "optimizer.retrieve",
    "optimizer.snap",
    "circuit.scatter",
    "circuit.codebook",
    "metrics.received_power",
    "metrics.se_outdated",
    "experiments",
    "results.write",
    "config.load",
    "config.validate",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``points`` is the number of (architecture, grid value) points the
    experiment solves; with ``trials`` it gives the trial solves a run
    needs, the numerator of ``channel.draw_yield``.  ``zero_spans`` are the
    spans predicted never to run; every other span must record calls.
    """

    name: str
    experiment: str
    trials: int
    settings: dict
    points: int
    zero_spans: frozenset = field(default_factory=frozenset)
    optimization: dict = field(default_factory=dict)

    def config(self) -> dict:
        """The YAML (written as JSON) config merged over bdris's defaults."""
        cfg = {
            "simulation": {"trials": self.trials, "architectures": ARCHITECTURES},
            "experiments": {self.experiment: self.settings},
        }
        if self.optimization:
            cfg["optimization"] = self.optimization
        return cfg

    def write_config(self, directory) -> Path:
        """Write the config as JSON, which the YAML loader reads; return its path."""
        path = Path(directory) / f"{self.name}.yaml"
        path.write_text(json.dumps(self.config(), indent=1) + "\n")
        return path

    def expected_spans(self) -> list[str]:
        return [s for s in SPANS if s not in self.zero_spans]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="freq-sweep",
            experiment="freq-response",
            trials=2,
            settings={"d_values": [60, 100],
                      "grid_ghz": {"start": 1.0, "stop": 16.0, "step": 0.5}},
            points=2 * 3,
            zero_spans=frozenset({"optimizer.frank_wolfe", "metrics.se_outdated"}),
        ),
        Workload(
            name="direct-links",
            experiment="interference",
            trials=2,
            settings={"ris_positions_m": [[20.0, 20.0], [40.0, 20.0], [60.0, 20.0]],
                      "d_grid": [20, 40, 60, 80]},
            optimization={"fw_iterations": 500},
            points=3 * 4 * 3,
            zero_spans=frozenset({"matrixkit.leading_sv", "metrics.received_power"}),
        ),
        Workload(
            name="power-grid",
            experiment="network-power",
            trials=2,
            settings={"weight_sets": [[0.3, 0.7]],
                      "link_modes": ["blocked", "available"],
                      "d_grid": [20, 40, 60, 80, 100]},
            optimization={"fw_iterations": 500},
            points=2 * 3 * 5,
            zero_spans=frozenset({"metrics.se_outdated"}),
        ),
    )
}
