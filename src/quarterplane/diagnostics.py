"""Boundary traces, rescaled layer profiles and convergence studies.

The trace of an approximate solution at x = 0 is estimated from inside the
domain, past the boundary layer: the layer occupies O(eps) (viscous) or a few
cells (schemes), so the probe sits at 20*eps/h cells (viscous) or 10 cells
(discrete) by default and the reported value is a time average over the
chosen window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from quarterplane.admissible import entropy_check
from quarterplane.layers import interp_states
from quarterplane.schemes import GridSolution
from quarterplane.systems import SystemModel

__all__ = [
    "TraceReport",
    "StudyRow",
    "extract_boundary_trace",
    "boundary_entropy_residual",
    "convergence_study",
]


@dataclass(frozen=True)
class TraceReport:
    window: tuple
    probe_depth: int
    trace: np.ndarray  # time-averaged state at the probe
    flux_trace: np.ndarray
    u_B: np.ndarray  # boundary datum averaged over the window
    profile_y: np.ndarray  # rescaled coordinate (x/eps or cell index)
    profile_states: np.ndarray
    bv_proxy: float  # total variation in time of the probed samples
    spread: float  # windowed max-min spread at the probe
    oscillation_suspected: bool

    def profile_interp(self, y):
        return interp_states(y, self.profile_y, self.profile_states)


def _default_probe(sol: GridSolution) -> int:
    if sol.scheme == "viscous":
        # 20 eps past the boundary, but never beyond half the grid
        return min(int(np.ceil(20.0 * sol.eps / sol.h)), sol.xs.size // 2)
    return 10


def extract_boundary_trace(model: SystemModel, sol: GridSolution,
                           window: Optional[tuple] = None,
                           probe_depth: Optional[int] = None) -> TraceReport:
    """Time-averaged near-boundary state past the layer, plus the rescaled
    profile v(y) = u(y*eps) (viscous) or v(y) = cell y (discrete)."""
    t_end = float(sol.times[-1])
    if window is None:
        window = (0.5 * t_end, t_end)
    t1, t2 = window
    if not (0.0 <= t1 < t2 <= t_end + 1e-12):
        raise ValueError("window outside the run")
    if probe_depth is None:
        probe_depth = _default_probe(sol)
    if not 0 < probe_depth < sol.xs.size:
        raise ValueError("probe depth outside the grid")

    sel = (sol.times >= t1 - 1e-12) & (sol.times <= t2 + 1e-12)
    if not np.any(sel):
        raise ValueError("no snapshots inside the window")
    samples = sol.snapshots[sel, probe_depth]
    trace = samples.mean(axis=0)
    u_B = np.asarray(sol.boundary_samples[sel], dtype=float).mean(axis=0)

    scalar = samples.ndim == 1
    if scalar:
        bv = float(np.sum(np.abs(np.diff(samples))))
        spread = float(samples.max() - samples.min())
    else:
        bv = float(np.sum(np.linalg.norm(np.diff(samples, axis=0), axis=1)))
        spread = float(np.linalg.norm(samples.max(axis=0) - samples.min(axis=0)))

    # rescaled profile from the last snapshot in the window, prefixed with
    # the boundary datum at y = 0
    last = sol.snapshots[sel][-1]
    depth = probe_depth + 1
    if sol.scheme == "viscous":
        ys = np.concatenate([[0.0], sol.xs[:depth] / sol.eps])
    else:
        ys = np.concatenate([[0.0], np.arange(depth, dtype=float) + 0.5])
    if scalar:
        states = np.concatenate([[float(np.atleast_1d(u_B)[0])], last[:depth]])
    else:
        states = np.vstack([np.atleast_1d(u_B), last[:depth]])

    scale = sol.eps if sol.scheme == "viscous" else sol.h
    return TraceReport(
        window=(float(t1), float(t2)), probe_depth=int(probe_depth),
        trace=trace, flux_trace=np.asarray(model.flux(trace)),
        u_B=np.asarray(u_B), profile_y=ys, profile_states=states,
        bv_proxy=bv, spread=spread,
        oscillation_suspected=spread > 10.0 * scale,
    )


def boundary_entropy_residual(model: SystemModel, report: TraceReport,
                              pairs=None) -> float:
    """Worst boundary entropy expression F(u_0) - F(u_B) - grad U(u_B).(f(u_0) - f(u_B))
    over the supplied pairs, evaluated at the extracted trace."""
    return entropy_check(model, report.trace, report.u_B, pairs)[1]


@dataclass(frozen=True)
class StudyRow:
    parameter: float
    trace: np.ndarray
    trace_error: Optional[float]
    profile_error: Optional[float]
    entropy_residual: float
    bv_proxy: float


def convergence_study(model: SystemModel, make_solution, parameters,
                      expected_trace=None, profile_reference=None):
    """Run the solver family over a parameter sequence and tabulate trace and
    profile errors.

    ``make_solution(p)`` returns a GridSolution; ``profile_reference`` is a
    callable y -> state compared in sup norm on the window 0 <= y <= 5.
    Returns (rows, flags) where the flags record whether the error sequences
    are nonincreasing within a noise factor of 1.5: each error at most 1.5
    times the one before, and the last no larger than the first.
    """
    parameters = list(parameters)
    if sorted(parameters) not in (parameters, parameters[::-1]):
        raise ValueError("parameter sequence must be monotone")
    rows = []
    for p in parameters:
        sol = make_solution(p)
        rep = extract_boundary_trace(model, sol)
        te = None
        if expected_trace is not None:
            te = float(np.linalg.norm(np.atleast_1d(rep.trace)
                                      - np.atleast_1d(np.asarray(expected_trace, dtype=float))))
        pe = None
        if profile_reference is not None:
            ys = np.linspace(0.0, 5.0, 201)
            ys = ys[ys <= rep.profile_y[-1]]
            got = np.asarray(rep.profile_interp(ys))
            ref = np.asarray([profile_reference(float(y)) for y in ys], dtype=float)
            pe = float(np.max(np.abs(got - ref)))
        rows.append(StudyRow(
            parameter=float(p), trace=rep.trace, trace_error=te,
            profile_error=pe,
            entropy_residual=boundary_entropy_residual(model, rep),
            bv_proxy=rep.bv_proxy,
        ))

    def trend(vals):
        vals = [v for v in vals if v is not None]
        if len(vals) < 2:
            return None
        ok_steps = all(b <= 1.5 * a for a, b in zip(vals, vals[1:]))
        return ok_steps and vals[-1] <= vals[0]

    flags = {
        "trace_error_decreasing": trend([r.trace_error for r in rows]),
        "profile_error_decreasing": trend([r.profile_error for r in rows]),
    }
    return rows, flags
