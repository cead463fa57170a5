"""Correctness checks of every workload's outputs.

Each check returns a list of messages, empty when the output is right.
The checks compare against independent computations (the mixing weights
are recomputed here from omega and delta, decay curves are refitted,
serialized tables are parsed back) or against required properties, never
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math

# oracle tolerances of acceptance criteria 5, 6 and 8
ORACLE_N_REL = 0.15
ORACLE_POP_REL = 0.05
RESIDUAL_MAX = 1e-10
TRACE_DEV_MAX = 1e-8
HERM_MAX = 1e-10
MIN_EIG_MIN = -1e-10
REL_CHANGE_MAX = 1e-4
RATE_REL = 0.20
QUADRUPLING = (4.0 * 0.85, 4.0 * 1.15)
FLOOR_REL = 1e-4
VALIDATE_THRESHOLD = 0.15

IDENTITY_REL = 1e-12
# a sideband balance closer than this is left out of the sign law: both
# sides round to the same float and either sign is a correct answer
BALANCE_REL = 1e-12


def mixing_weights(omega: float, delta: float) -> tuple[float, float]:
    """(cos^4 theta, sin^4 theta) from omega and delta, computed here.

    cos^2 theta = (omega_bar + delta/2) / (2 omega_bar) with
    omega_bar = sqrt(omega^2 + delta^2/4); a different float route from
    the package's 0.5 (1 + delta / (2 omega_bar)).
    """
    omega_bar = math.sqrt(omega * omega + 0.25 * delta * delta)
    cos2 = (omega_bar + 0.5 * delta) / (2.0 * omega_bar)
    sin2 = (omega_bar - 0.5 * delta) / (2.0 * omega_bar)
    return cos2 * cos2, sin2 * sin2


def sideband_weights(p) -> tuple[float, float]:
    """(gamma_plus cos^4 theta, gamma_minus sin^4 theta)."""
    c4, s4 = mixing_weights(p.omega, p.delta)
    return p.gamma_plus * c4, p.gamma_minus * s4


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_sign_law(p, c: float) -> list[str]:
    """C > 0 exactly when gamma_plus cos^4 > gamma_minus sin^4."""
    down, up = sideband_weights(p)
    if abs(down - up) <= BALANCE_REL * (down + up):
        return []
    if (c > 0.0) != (down > up):
        return [f"sign law broken at {p}: C = {c!r}, "
                f"gamma+cos^4 = {down!r}, gamma-sin^4 = {up!r}"]
    return []


def check_floor(p, n_s: float) -> list[str]:
    """n_s >= r22 / (r11 - r22) on the cooling side."""
    down, up = sideband_weights(p)
    r11, r22 = down / (down + up), up / (down + up)
    floor = r22 / (r11 - r22)
    if n_s < floor * (1.0 - 1e-9):
        return [f"n_s = {n_s!r} below the sideband floor {floor!r} at {p}"]
    return []


def check_point(p, rates, direct_c: float, n_s, report, traj, n0: float,
                heating) -> list[str]:
    """One random parameter set through every closed-form function."""
    errs = []
    scale = max(rates.a_rate_minus, rates.a_rate_plus, abs(direct_c))
    if abs(direct_c - rates.cooling_rate) > IDENTITY_REL * scale:
        errs.append(f"cooling_rate() = {direct_c!r} differs from the rate "
                    f"set difference {rates.cooling_rate!r} at {p}")
    errs += check_sign_law(p, rates.cooling_rate)
    if heating(n_s):
        if rates.cooling_rate > 0.0:
            errs.append(f"HEATING with C = {rates.cooling_rate!r} > 0 at {p}")
    else:
        if not _close(n_s * rates.cooling_rate, rates.a_rate_plus,
                      IDENTITY_REL):
            errs.append(f"n_s C = {n_s * rates.cooling_rate!r} differs from "
                        f"A+ = {rates.a_rate_plus!r} at {p}")
        errs += check_floor(p, n_s)
    # validity: the conjunction, and the secular ratio recomputed here
    if report.overall != all(c.satisfied for c in report.checks):
        errs.append(f"validity overall flag disagrees with its checks at {p}")
    omega_bar = math.sqrt(p.omega ** 2 + 0.25 * p.delta ** 2)
    secular = 2.0 * omega_bar / max(p.gamma_plus, p.gamma_minus,
                                    p.gamma_zero)
    if not _close(report["secular"].ratio, secular, 1e-12):
        errs.append(f"secular ratio {report['secular'].ratio!r} != "
                    f"{secular!r} at {p}")
    # trajectory: n(t) = n_s + (n0 - n_s) exp(-C t) where n_s = A+/C
    c = rates.cooling_rate
    t = traj.times
    expect = [n0 * math.exp(-c * ti) + rates.a_rate_plus
              * (-math.expm1(-c * ti)) / c for ti in t]
    worst = max(abs(a - b) / max(abs(b), 1e-12)
                for a, b in zip(traj.n, expect))
    if worst > 1e-9:
        errs.append(f"trajectory n(t) off the exponential by {worst:.2e} "
                    f"at {p}")
    if traj.n[0] != n0:
        errs.append(f"trajectory starts at {traj.n[0]!r}, not n0 = {n0!r}")
    if traj.phonon_growing != (c < 0.0):
        errs.append(f"phonon_growing = {traj.phonon_growing} with C = {c!r}")
    return errs


def _parse_cell(text: str, value, sentinel: str):
    """Parse one CSV cell the way a reader of the file would."""
    if text == "":
        return None
    if text == sentinel:
        return text
    if text in ("true", "false"):
        return text == "true"
    if isinstance(value, str):
        return text
    return float(text)


def check_table(table, csv_text: str, json_text: str, heating,
                sentinel: str) -> list[str]:
    """Serialized sweep output parses back to the row values."""
    errs = []
    cols = list(table.columns)
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != cols:
        errs.append(f"{table.spec.label}: CSV header {rows[0]} != {cols}")
    if len(rows) - 1 != len(table.rows):
        errs.append(f"{table.spec.label}: CSV has {len(rows) - 1} rows, "
                    f"table has {len(table.rows)}")
    doc = json.loads(json_text)
    if doc["columns"] != cols or len(doc["rows"]) != len(table.rows):
        errs.append(f"{table.spec.label}: JSON columns or row count differ")
    for i, row in enumerate(table.rows):
        for j, name in enumerate(cols):
            value = getattr(row, name)
            want = sentinel if heating(value) else value
            try:
                got_csv = _parse_cell(rows[i + 1][j], value, sentinel)
            except (IndexError, ValueError) as exc:
                got_csv = f"unreadable: {exc}"
            got_json = doc["rows"][i][j]
            if got_csv != want or got_json != want:
                errs.append(f"{table.spec.label} row {i} {name}: table "
                            f"{want!r}, CSV {got_csv!r}, JSON {got_json!r}")
                return errs
    return errs


def check_sweep_rows(table, heating) -> list[str]:
    """Sign law, sideband floor and n_s C = A+ on every row of a curve."""
    errs = []
    for row in table.rows:
        p = table.spec.params_at(row.x)
        if row.error is not None:
            errs.append(f"{table.spec.label} x={row.x!r}: {row.error}")
            continue
        errs += check_sign_law(p, row.c)
        if heating(row.n_s):
            continue
        errs += check_floor(p, row.n_s)
        if abs(row.rz_s) >= 1e-3 and not _close(
                row.n_s * row.c, row.a_plus_rate, IDENTITY_REL):
            errs.append(f"{table.spec.label} x={row.x!r}: n_s C != A+")
        if errs:
            break
    return errs


def check_fig2(table, heating) -> list[str]:
    """Resonant drive: s_z = 0 on every row, heating exactly at ratio >= 1."""
    errs = []
    for row in table.rows:
        if row.sz_s != 0.0:
            errs.append(f"{table.spec.label} x={row.x!r}: s_z = {row.sz_s!r}")
        if heating(row.n_s) != (row.x >= 1.0):
            errs.append(f"{table.spec.label} x={row.x!r}: heating is "
                        f"{heating(row.n_s)} at rate ratio {row.x!r}")
    return errs[:3]


def check_fig3(table, heating) -> list[str]:
    """The cool-and-inverted window is non-empty and bounded by the
    rate-balance ratio cos^4 theta / sin^4 theta."""
    c4, s4 = mixing_weights(table.spec.base.omega, table.spec.base.delta)
    threshold = c4 / s4
    window = [r for r in table.rows if r.c > 0.0 and r.two_sz_s > 0.0]
    errs = []
    if not window:
        errs.append(f"{table.spec.label}: no cool-and-inverted window")
    if any(r.x >= threshold for r in window):
        errs.append(f"{table.spec.label}: window reaches past "
                    f"{threshold!r}")
    beyond = [r for r in table.rows if r.x > threshold
              and not heating(r.n_s) and r.two_sz_s > 0.0]
    if beyond:
        errs.append(f"{table.spec.label}: cool and inverted at "
                    f"x = {beyond[0].x!r} beyond {threshold!r}")
    return errs


def check_oracle_point(p, ns: float, r11: float, r22: float, oracle_n: float,
                       oracle_rz: float, cert: dict,
                       rel_change: float) -> list[str]:
    """Oracle steady state against the closed form, plus its own health."""
    errs = []
    if abs(oracle_n - ns) / ns > ORACLE_N_REL:
        errs.append(f"oracle n = {oracle_n!r} vs closed form {ns!r} at {p}")
    o11, o22 = 0.5 * (1.0 - oracle_rz), 0.5 * (1.0 + oracle_rz)
    if (abs(o11 - r11) / r11 > ORACLE_POP_REL
            or abs(o22 - r22) / r22 > ORACLE_POP_REL):
        errs.append(f"oracle populations ({o11!r}, {o22!r}) vs closed form "
                    f"({r11!r}, {r22!r}) at {p}")
    errs += check_health(cert, f"steady state at {p}")
    if not cert["residual"] <= RESIDUAL_MAX:
        errs.append(f"residual {cert['residual']!r} at {p}")
    if not rel_change <= REL_CHANGE_MAX:
        errs.append(f"rel_change {rel_change!r} at {p}")
    return errs


def check_health(cert: dict, where: str) -> list[str]:
    """Trace, Hermiticity and positivity of one state (or the worst of a
    series): keys trace_dev, herm_defect, min_eig."""
    errs = []
    if not cert["trace_dev"] <= TRACE_DEV_MAX:
        errs.append(f"{where}: trace deviation {cert['trace_dev']!r}")
    if not cert["herm_defect"] <= HERM_MAX:
        errs.append(f"{where}: Hermiticity defect {cert['herm_defect']!r}")
    if not cert["min_eig"] >= MIN_EIG_MIN:
        errs.append(f"{where}: smallest eigenvalue {cert['min_eig']!r}")
    return errs


def check_decay(entries: dict) -> list[str]:
    """Fitted full-model decay rates against the closed-form C.

    entries maps a label ("eta", "2eta") to a dict with analytic_rate,
    fitted_rate, floor_n, floor_next_n, and the worst-sample health
    numbers under "samples" and the floors' under "floors".
    """
    errs = []
    for label, e in entries.items():
        ratio = e["fitted_rate"] / e["analytic_rate"]
        if not abs(ratio - 1.0) <= RATE_REL:
            errs.append(f"{label}: fitted/analytic rate = {ratio!r}")
        errs += check_health(e["samples"], f"{label} evolution")
        for cert in e["floors"]:
            errs += check_health(cert, f"{label} floor")
        rel = abs(e["floor_next_n"] - e["floor_n"]) / e["floor_n"]
        if not rel <= FLOOR_REL:
            errs.append(f"{label}: floors at the two cuts differ by {rel!r}")
    quad = entries["2eta"]["fitted_rate"] / entries["eta"]["fitted_rate"]
    if not QUADRUPLING[0] <= quad <= QUADRUPLING[1]:
        errs.append(f"2eta/eta fitted rate ratio = {quad!r}, not 4 +- 15%")
    return errs


def check_validate_doc(doc: dict) -> list[str]:
    """`validate` at the README point passes at the 15 % threshold."""
    errs = []
    if not doc.get("passed") or doc["relative_error"] > VALIDATE_THRESHOLD:
        errs.append(f"validate did not pass: relative error "
                    f"{doc.get('relative_error')!r}")
    oracle = doc["oracle"]
    errs += check_health(oracle, "validate oracle")
    if not oracle["residual"] <= RESIDUAL_MAX:
        errs.append(f"validate residual {oracle['residual']!r}")
    return errs


def check_rerun(pairs) -> list[str]:
    """(name, first bytes, rerun bytes) triples must match byte for byte."""
    return [f"{name}: rerun from the config echo is not byte-identical"
            for name, first, again in pairs if first != again]


def clean_failure(code: int, stderr: str) -> bool:
    """A command that rejects its input ends with a documented exit code
    and an `error:` line, with no traceback."""
    return (code in (1, 2, 3) and "Traceback" not in stderr
            and any(line.startswith(("error:", "oracle error:"))
                    for line in stderr.splitlines()))
