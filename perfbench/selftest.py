"""Self-test of the benchmark's own checks: each must pass a real result
and reject a deliberately perturbed one.

    python3 perfbench/selftest.py      # from the repository root; a few seconds

Exits 0 when every check behaves, 1 otherwise.  This is not part of the
package's test suite.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from dressedcool import (  # noqa: E402
    DressedInit,
    cli,
    converged_steady_state,
    cooling_rate,
    is_heating,
    preset_sweeps,
    rate_set,
    run_sweep,
    steady_atom,
    steady_phonon,
    trajectory,
    validity_report,
)
from dressedcool.sweep import HEATING_SENTINEL  # noqa: E402

FAILURES = []


def expect(name: str, errs, should_pass: bool) -> None:
    ok = (not errs) if should_pass else bool(errs)
    verdict = "ok  " if ok else "FAIL"
    what = ("accepts the real result" if should_pass
            else "rejects the perturbation")
    print(f"{verdict} {name}: {what}" + ("" if ok else f" ({errs})"))
    if not ok:
        FAILURES.append(name)


def closed_form() -> None:
    table = run_sweep(preset_sweeps("fig3")[0])
    csv_text, json_text = table.to_csv(), table.to_json()
    args = (is_heating, HEATING_SENTINEL)
    expect("closed_form table", checks.check_table(
        table, csv_text, json_text, *args), True)
    # one changed digit in one CSV cell (the grid value of row 4)
    lines = csv_text.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[0] = cells[0][:-1] + ("7" if cells[0][-1] != "7" else "3")
    lines[5] = ",".join(cells)
    expect("closed_form table", checks.check_table(
        table, "".join(lines), json_text, *args), False)
    expect("closed_form fig3 window", checks.check_fig3(table, is_heating),
           True)

    p, n0 = inputs.closed_form_batch(1)[0]
    rates, direct = rate_set(p), cooling_rate(p)
    traj = trajectory(p, DressedInit(rz=-1.0, n=n0), inputs.TRAJECTORY_TIMES)
    real = (p, rates, direct, steady_phonon(p), validity_report(p), traj, n0,
            is_heating)
    expect("closed_form point", checks.check_point(*real), True)
    expect("closed_form point", checks.check_point(
        p, rates, direct * (1.0 + 1e-9), *real[3:]), False)
    expect("closed_form sign law", checks.check_sign_law(
        p, -rates.cooling_rate), False)


def cli_session() -> None:
    out_dir = workloads.OUT / f"selftest-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "steady.json"
    argv = ["steady", *workloads.cli_flags(inputs.README_POINT),
            "--output", str(path)]
    with redirect_stdout(io.StringIO()):
        cli.main(argv)
        first = path.read_bytes()
        cfg = out_dir / "echo.cfg"
        echo = json.loads(first)["config"]
        cfg.write_text(workloads.echo_to_config(echo), encoding="utf-8")
        cli.main(["steady", "--config", str(cfg)])
    again = path.read_bytes()
    expect("cli_session rerun", checks.check_rerun(
        [("steady.json", first, again)]), True)
    changed = bytearray(again)
    changed[len(changed) // 2] ^= 0x01
    expect("cli_session rerun", checks.check_rerun(
        [("steady.json", first, bytes(changed))]), False)
    for f in out_dir.iterdir():
        f.unlink()
    out_dir.rmdir()

    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["validate", *workloads.cli_flags(inputs.README_POINT)])
    doc = json.loads(buf.getvalue())
    expect("cli_session validate", checks.check_validate_doc(doc), True)
    doc["passed"], doc["relative_error"] = False, 0.2
    expect("cli_session validate", checks.check_validate_doc(doc), False)
    expect("cli_session clean failure",
           [] if checks.clean_failure(1, "error: bad input\n") else ["no"],
           True)
    expect("cli_session clean failure",
           [] if checks.clean_failure(
               1, "Traceback (most recent call last):\nZeroDivisionError\n")
           else ["traceback"], False)


def oracle_steady_state() -> None:
    p = inputs.RESONANCE_POINT
    run = converged_steady_state(p, n_max_start=inputs.RESONANCE_N_MAX_START,
                                 dim_cap=inputs.ORACLE_DIM_CAP)
    atom, r = steady_atom(p), run.result
    args = (p, steady_phonon(p), atom.r11, atom.r22)
    cert = workloads.certificate(r)
    expect("oracle steady point", checks.check_oracle_point(
        *args, r.n, r.rz, cert, run.rel_change), True)
    expect("oracle steady point", checks.check_oracle_point(
        *args, 1.2 * r.n, r.rz, cert, run.rel_change), False)
    expect("oracle steady point", checks.check_oracle_point(
        *args, r.n, r.rz, {**cert, "residual": 1e-8}, run.rel_change), False)


def oracle_decay() -> None:
    # decay numbers shaped like a real run: closed-form rates with fits
    # a few per cent off, as the full model gives them
    healthy = {"trace_dev": 1e-12, "herm_defect": 1e-14, "min_eig": 1e-15}
    entries = {}
    for label, eta, fit in (("eta", 0.05, 0.95), ("2eta", 0.1, 0.93)):
        c = rate_set(inputs.RESONANCE_POINT.replace(
            delta=10.0, eta=eta)).cooling_rate
        entries[label] = {"analytic_rate": c, "fitted_rate": fit * c,
                          "floor_n": 0.25, "floor_next_n": 0.25 + 1e-6,
                          "samples": dict(healthy),
                          "floors": [dict(healthy), dict(healthy)]}
    expect("oracle decay", checks.check_decay(entries), True)
    halved = json.loads(json.dumps(entries))
    halved["2eta"]["fitted_rate"] *= 0.5
    expect("oracle decay", checks.check_decay(halved), False)
    sick = json.loads(json.dumps(entries))
    sick["eta"]["samples"]["min_eig"] = -1e-8
    expect("oracle decay", checks.check_decay(sick), False)


def main() -> int:
    for part in (closed_form, cli_session, oracle_steady_state, oracle_decay):
        part()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
