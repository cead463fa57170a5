"""The set-up that setup_s times: import the package, touch every layer.

``python3 perfbench/warmup.py`` (from the repository root) is what the
benchmark starts, a few times per run, in a fresh interpreter.  The
warm-up calls no oracle function, so that an oracle import deferred to
first use moves its cost out of setup_s and into the first solve.
"""

import sys
from pathlib import Path


def warm_up() -> None:
    import numpy as np

    from dressedcool import (DressedInit, PhysicalParams, SweepSpec, cli,
                             rate_set, run_sweep, steady_phonon, trajectory,
                             validity_report)

    p = PhysicalParams(omega=5.0, delta=0.0, nu=10.0, eta=0.02,
                       gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)
    rate_set(p)
    steady_phonon(p)
    validity_report(p)
    trajectory(p, DressedInit(rz=-1.0, n=1.0), np.linspace(0.0, 1.0, 3))
    table = run_sweep(SweepSpec(base=p, variable="delta",
                                grid=(-1.0, 0.0, 1.0)))
    table.to_csv()
    table.to_json()
    cli.build_parser()


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    warm_up()
