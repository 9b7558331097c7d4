"""Set-up cost of one workload, as a fresh process pays it.

Imports ``quarterplane.cli`` (which pulls in numpy and scipy) and builds
every model the workload uses.  ``run.py`` times this script as a child
process from spawn to exit:

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

MODELS = {
    "viscous_sweep": [("burgers", {}), ("elastodynamics", {})],
    "admissible_sets": [("burgers", {}), ("cubic", {})],
    "scheme_runs": [("burgers", {}), ("cubic", {}), ("elastodynamics", {}),
                    ("euler_isentropic", {"gamma": 2.0})],
    "quick_tasks": [("linear2", {"B": [5.0, 1.0]}), ("elastodynamics", {}),
                    ("euler_isentropic", {"gamma": 2.0}), ("lagrangian_gas", {}),
                    ("cubic", {}), ("burgers", {})],
}


def main(workload: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import quarterplane.cli  # noqa: F401
    from quarterplane.systems import make_model

    for name, params in MODELS[workload]:
        make_model(name, **params)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
