"""Seeded inputs of every workload.

Each builder takes the run's ``--seed`` and returns plain data; the same
seed gives the same inputs.  Seeds only move points by small amounts
inside fixed structures, so that every seed asks for about the same
amount of work (see README.md, "Seeds").
"""

from __future__ import annotations

import math

import numpy as np

from dressedcool import (
    PhysicalParams,
    is_heating,
    steady_atom,
    steady_phonon,
    validity_report,
)

# the README operating point, used by `validate` and by the probes
README_POINT = dict(omega=5.0, delta=0.0, nu=10.0, eta=0.02,
                    gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)

# the point where `validate` divides by a closed-form n_s of exactly 0
ZERO_NS_POINT = dict(omega=5.0, delta=0.0, nu=10.0, eta=0.02,
                     gamma_plus=1.0, gamma_minus=0.0, gamma_zero=0.0)

# the detuning at which the dressed splitting matches the nu = 12 mode
RESONANCE_POINT = PhysicalParams(omega=5.0, delta=2.0 * math.sqrt(11.0),
                                 nu=12.0, eta=0.1, gamma_plus=1.0,
                                 gamma_minus=1.0, gamma_zero=1.0)

# oracle escalation settings, as in the acceptance suite
RESONANCE_N_MAX_START = 12
SAMPLED_N_MAX_START = 8
ORACLE_DIM_CAP = 50

CLOSED_FORM_BATCH = 200
TRAJECTORY_TIMES = np.linspace(0.0, 60.0, 201)


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one independent stream per input set, so adding draws to one set
    # never shifts the inputs of another
    return np.random.default_rng([int(seed), stream])


def closed_form_batch(seed: int) -> list[tuple[PhysicalParams, float]]:
    """Random parameter sets with an initial phonon number each.

    Ranges as in acceptance criterion 1.  Sets whose dressed populations
    are balanced to better than 1e-3 are redrawn: the rate identities
    still hold there but lose digits to cancellation.
    """
    rng = _rng(seed, 1)
    out = []
    while len(out) < CLOSED_FORM_BATCH:
        p = PhysicalParams(
            omega=float(rng.uniform(0.5, 8.0)),
            delta=float(rng.uniform(-8.0, 8.0)),
            nu=float(rng.uniform(0.5, 18.0)),
            eta=float(rng.uniform(0.01, 0.3)),
            gamma_plus=float(rng.uniform(0.05, 2.5)),
            gamma_minus=float(rng.uniform(0.05, 2.5)),
            gamma_zero=float(rng.uniform(0.05, 2.5)),
        )
        n0 = float(rng.uniform(0.0, 5.0))
        if abs(steady_atom(p).rz) < 1e-3:
            continue
        out.append((p, n0))
    return out


def cli_point(seed: int) -> dict:
    """A validity-passing cooling point near the sideband match, plus the
    trajectory and custom-sweep settings drawn with it."""
    rng = _rng(seed, 2)
    while True:
        omega = float(rng.uniform(4.5, 5.5))
        delta = float(rng.uniform(-1.0, 1.0))
        nu = (2.0 * math.hypot(omega, 0.5 * delta)
              + float(rng.uniform(0.0, 0.5)))
        params = dict(omega=omega, delta=delta, nu=nu,
                      eta=float(rng.uniform(0.015, 0.025)),
                      gamma_plus=1.0,
                      gamma_minus=float(rng.uniform(0.15, 0.25)),
                      gamma_zero=float(rng.uniform(0.15, 0.25)))
        p = PhysicalParams(**params)
        if validity_report(p).overall and not is_heating(steady_phonon(p)):
            break
    return {
        "params": params,
        "t_end": float(rng.uniform(30.0, 50.0)),
        "n0": float(rng.uniform(1.0, 5.0)),
        "grid_min": float(rng.uniform(-3.0, -1.0)),
        "grid_max": float(rng.uniform(1.0, 3.0)),
    }


def oracle_sets(seed: int) -> list[PhysicalParams]:
    """The acceptance suite's candidate grid near the sideband match,
    filtered to validity-passing cooling points with a closed-form n_s
    below 1, each point then jittered by the seed.

    The filter runs on the unjittered grid, so every seed draws the same
    24 points; the jitter is small (0.5 % on rates and coupling, 0.02 in
    detuning, a mode offset in [0, 0.1) on top of the grid offset), so
    every seed keeps nearly the same Fock-cut escalation.
    """
    rng = _rng(seed, 3)
    omega = 5.0
    out = []
    for delta in (0.0, 2.0, -2.0, 4.0, -4.0):
        omega_bar = math.hypot(omega, 0.5 * delta)
        for offset in (0.0, 0.5):
            for eta in (0.02, 0.05):
                for gp, gm, g0 in ((1.0, 0.2, 0.2), (1.0, 0.1, 0.3),
                                   (1.0, 0.3, 0.1)):
                    p = PhysicalParams(omega=omega, delta=delta,
                                       nu=2.0 * omega_bar + offset, eta=eta,
                                       gamma_plus=gp, gamma_minus=gm,
                                       gamma_zero=g0)
                    if not validity_report(p).overall:
                        continue
                    ns = steady_phonon(p)
                    if is_heating(ns) or ns >= 1.0:
                        continue
                    out.append(p)
    jittered = []
    for p in out:
        j = rng.uniform(-1.0, 1.0, size=5)
        delta = p.delta + 0.02 * j[0]
        shift = p.nu - 2.0 * math.hypot(omega, 0.5 * p.delta)
        jittered.append(p.replace(
            delta=delta,
            nu=(2.0 * math.hypot(omega, 0.5 * delta) + shift
                + 0.05 * (1.0 + j[1])),
            eta=p.eta * (1.0 + 0.005 * j[2]),
            gamma_minus=p.gamma_minus * (1.0 + 0.005 * j[3]),
            gamma_zero=p.gamma_zero * (1.0 + 0.005 * j[4])))
    return jittered


def decay_point(seed: int) -> tuple[float, float]:
    """(delta, nu) within 0.01 of the acceptance suite's decay point
    (10, 12).  The integration runs to 7/C, so a wider draw would change
    the work per seed: 0.05 already moves 7/C by 6 %."""
    rng = _rng(seed, 4)
    return (10.0 + float(rng.uniform(-0.01, 0.01)),
            12.0 + float(rng.uniform(-0.01, 0.01)))
