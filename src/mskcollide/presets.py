"""Named experiment presets for the standard reproduction grids.

Sweep presets (fig5*, fig6*, fig8*, fig10*) feed the sweep command; zone
presets (fig11*) feed the zone command. The fig9 defaults are what the
ninterf command uses out of the box. Time offsets are in units of T
(half a bit duration), SIR in dB.
"""

from __future__ import annotations

from dataclasses import replace

from .montecarlo import ExperimentConfig, grid

_WIDE_TAU = grid(-3.0, 3.0, 0.1)
_WIDE_SIR = grid(-50.0, 10.0, 1.0)
_NEG_SIR = grid(-50.0, -10.0, 5.0)
_INTERF_TAU = grid(-1.5, 1.5, 0.1)

_INDEP = ExperimentConfig(payload_mode="independent", target="soi",
                          tau_grid=_WIDE_TAU, sir_db_grid=_WIDE_SIR)
_IDENT = replace(_INDEP, payload_mode="identical")
_INTERF = ExperimentConfig(payload_mode="independent", target="interferer",
                           tau_grid=_INTERF_TAU, sir_db_grid=grid(-50.0, 0.0, 2.0))

#: Sweep presets: capture-threshold maps for independent payload (fig5*),
#: identical payload (fig6*), identical-payload PRR vs SIR near full overlap
#: (fig8*), and reception of the interfering sender (fig10*).
PRESETS: dict[str, ExperimentConfig] = {
    "fig5a": replace(_INDEP, coding="uncoded"),
    "fig5b": replace(_INDEP, coding="hdd"),
    "fig5c": replace(_INDEP, coding="sdd"),
    "fig6a": replace(_IDENT, coding="uncoded"),
    "fig6b": replace(_IDENT, coding="hdd"),
    "fig6c": replace(_IDENT, coding="sdd"),
    "fig8a": replace(_IDENT, coding="uncoded", tau_grid=grid(-0.3, 0.3, 0.1),
                     sir_db_grid=_NEG_SIR),
    "fig8b": replace(_IDENT, coding="hdd", tau_grid=grid(-0.3, 0.3, 0.1),
                     sir_db_grid=_NEG_SIR),
    "fig8c": replace(_IDENT, coding="sdd", tau_grid=grid(-0.3, 0.3, 0.1),
                     sir_db_grid=_NEG_SIR),
    "fig10a": replace(_INTERF, coding="uncoded"),
    "fig10b": replace(_INTERF, coding="hdd"),
    "fig10c": replace(_INTERF, coding="sdd"),
}


_ZONE_BASE = replace(_INTERF, sir_db_grid=(-40.0,))

#: Zone presets: error-rate maps over (tau, phi_c) at SIR = -40 dB for the
#: three receiver back ends.
ZONE_PRESETS: dict[str, ExperimentConfig] = {
    "fig11a": replace(_ZONE_BASE, coding="uncoded"),
    "fig11b": replace(_ZONE_BASE, coding="hdd"),
    "fig11c": replace(_ZONE_BASE, coding="sdd"),
}

#: Defaults of the n-interferer experiment (SDD receiver, both payload
#: modes and power layouts, tau = 0).
NINTERF_DEFAULTS = ExperimentConfig(coding="sdd", payload_mode="identical",
                                    target="soi")
