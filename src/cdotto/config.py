"""Flat key=value run configuration and grid expansion.

Schema (one ``key = value`` per line, ``#`` comments allowed):

  grid axes      N, p, tau            integers / floats, comma lists expand
                                      into a Cartesian grid (N outer, then p,
                                      then tau); tau sets tau1 = tau3
  stroke times   tau1, tau3           scalars, alternative to tau
                 tau2, tau4           thermalization durations
  temperatures   Tc, Th               require 0 < Tc < Th
  cost           nu                   prefactor of the control cost integral,
                                      nu >= 0
  endpoints      h_i b_i J_i h_f b_f J_f
                                      scalar (uniform) or a space-separated
                                      per-site list (fields, length N) or
                                      per-pair list (couplings, length
                                      N(N-1)/2 in (j, k), j > k order); lists
                                      require a single N value

Every number must be finite.  ``N`` and ``p`` are mandatory; everything
else defaults to the reference operating point (Tc=0.2, Th=0.4, h_i=0.2,
b_i=0, J_i=0, h_f=0, b_f=0.5, J_f=0.1, tau=1, tau2=tau4=0.1, nu=0.01).
Unknown keys are rejected.  Values of p above N are accepted and clamped
by the engine.
"""

from __future__ import annotations

import hashlib
import json
import math

from .cycle import CycleConfig
from .errors import ConfigError, DomainError
from .model import EndpointParams

SCALAR_KEYS = ("tau1", "tau3", "tau2", "tau4", "Tc", "Th", "nu")
FIELD_KEYS = ("h_i", "b_i", "J_i", "h_f", "b_f", "J_f")

DEFAULTS = {
    "tau": [1.0],
    "tau2": 0.1,
    "tau4": 0.1,
    "Tc": 0.2,
    "Th": 0.4,
    "nu": 0.01,
    "h_i": [0.2],
    "b_i": [0.0],
    "J_i": [0.0],
    "h_f": [0.0],
    "b_f": [0.5],
    "J_f": [0.1],
}

# One config-text block per grid; a preset may union several grids.
PRESETS = {
    "fig2": ["N = 2,3,4,5,6\np = 0,1,2,3,4\ntau = 40\n"],
    "fig3": ["N = 2,3,4,5,6\np = 1,2,3,4\ntau = 1\n"],
    "fig4": ["N = 6\np = 0,1,2,4\ntau = 1,2,5,10,15,20,25,30,35,40,60,100\n"],
    "fig5": [
        "N = 6\np = 1,2,4\ntau = 1,2,3,4,5,6,7,8,9,10\n",
        "N = 2,3,4,5,6\np = 1,2,4\ntau = 40\n",
    ],
}


def _parse_int_list(text: str, key: str, line_no: int) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key!r} expects integers") from None


def _parse_float_list(text: str, key: str, line_no: int, sep: str | None = ",") -> list[float]:
    try:
        vals = [float(part) for part in text.split(sep) if part.strip()]
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key!r} expects numbers") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"line {line_no}: key {key!r} expects finite numbers")
    return vals


def parse_config_text(text: str) -> dict:
    """Parse one key=value block into typed raw values (no defaults applied)."""
    raw: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if key in ("N", "p"):
            vals = _parse_int_list(value, key, line_no)
            if not vals:
                raise ConfigError(f"line {line_no}: key {key!r} is empty")
            raw[key] = vals
        elif key == "tau":
            vals = _parse_float_list(value, key, line_no)
            if not vals:
                raise ConfigError(f"line {line_no}: key {key!r} is empty")
            raw[key] = vals
        elif key in SCALAR_KEYS:
            vals = _parse_float_list(value, key, line_no)
            if len(vals) != 1:
                raise ConfigError(f"line {line_no}: key {key!r} expects a single number")
            raw[key] = vals[0]
        elif key in FIELD_KEYS:
            vals = _parse_float_list(value, key, line_no, sep=None)
            if not vals:
                raise ConfigError(f"line {line_no}: key {key!r} is empty")
            raw[key] = vals
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return raw


def _field_values(raw: dict, key: str, n: int, n_vals: int) -> list[float]:
    vals = raw.get(key, DEFAULTS[key])
    if len(vals) == 1:
        return vals
    expected = n * (n - 1) // 2 if key.startswith("J") else n
    if n_vals > 1:
        raise ConfigError(f"per-site values for {key!r} require a single N")
    if len(vals) != expected:
        raise ConfigError(f"key {key!r} has {len(vals)} values, expected {expected}")
    return vals


def expand_grid(raw: dict) -> list[CycleConfig]:
    """Resolve defaults and expand the grid axes into cycle configurations."""
    missing = [key for key in ("N", "p") if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    n_list = raw["N"]
    p_list = raw["p"]
    for n in n_list:
        if n < 1:
            raise ConfigError(f"N must be >= 1, got {n}")

    if "tau" in raw and ("tau1" in raw or "tau3" in raw):
        raise ConfigError("give either 'tau' or 'tau1'/'tau3', not both")
    if ("tau1" in raw) != ("tau3" in raw):
        raise ConfigError("'tau1' and 'tau3' must be given together")
    if "tau1" in raw:
        tau_pairs = [(raw["tau1"], raw["tau3"])]
    else:
        tau_pairs = [(t, t) for t in raw.get("tau", DEFAULTS["tau"])]
    scalars = {key: raw.get(key, DEFAULTS[key]) for key in ("tau2", "tau4", "Tc", "Th", "nu")}

    configs = []
    for n in n_list:
        fields = {key: _field_values(raw, key, n, len(n_list)) for key in FIELD_KEYS}

        def spread(vals, size):
            return vals * size if len(vals) == 1 else vals

        n_pairs = n * (n - 1) // 2
        params = EndpointParams(
            h_i=spread(fields["h_i"], n), b_i=spread(fields["b_i"], n),
            j_i=spread(fields["J_i"], n_pairs) if n_pairs else [],
            h_f=spread(fields["h_f"], n), b_f=spread(fields["b_f"], n),
            j_f=spread(fields["J_f"], n_pairs) if n_pairs else [],
        )
        for p in p_list:
            for t1, t3 in tau_pairs:
                try:
                    configs.append(CycleConfig(
                        params=params, p=p, tau1=t1, tau3=t3, **scalars,
                        label=f"N={n},p={p},tau1={t1},tau3={t3}",
                    ))
                except DomainError as exc:
                    raise ConfigError(str(exc)) from None
    return configs


def resolve_blocks(blocks: list[dict]) -> list[CycleConfig]:
    """Expand several raw blocks and concatenate their grids in order."""
    configs = []
    for raw in blocks:
        configs.extend(expand_grid(raw))
    return configs


def config_digest(blocks: list[dict], options_echo: dict) -> str:
    """Content hash of the fully resolved configuration and run options."""
    canonical = []
    for raw in blocks:
        entry = dict(DEFAULTS)
        entry.update(raw)
        canonical.append({k: entry[k] for k in sorted(entry)})
    payload = json.dumps({"blocks": canonical, "options": options_echo},
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()
