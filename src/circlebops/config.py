"""Run configuration: a YAML file drives every pipeline entry point.

Complex scalars are written as [re, im] pairs whose parts may be integers,
decimal floats or exact fraction strings ('3/8'); fractions survive exactly
into the weight data.  A minimal example:

    mode: formal
    precision_bits: 128
    tolerance: 1.0e-20
    n_max: 8
    seed: 1
    checks: [identities, bilinear, summation, oracle, tau]
    weight:
      placement: canonical
      singularities: [[0, 0], ["2/5", 0], [1, 0]]
      residues: [["1/3", 0], ["-1/2", 0], ["1/4", 0]]
    seeds:
      start: -1
      values: [[0.31, 0.17], [1, 0]]

These keys and ``out`` are all there are: any other key is refused.
"""

from __future__ import annotations

import math

import yaml
from mpmath import mpf

from .bops import ToeplitzOracle
from .errors import ConfigInvalid
from .moments import MomentSequence, free_moments, moment_quadrature
from .mputil import parse_exact, to_mpc
from .record import Record
from .spectral import SpectralWorkspace
from .suites import SUITE_BUILDERS, SUITE_NAMES
from .weights import WeightData, build_poly_pair, build_weight, \
    is_negative_int

MODES = ("formal", "quadrature", "rational")
PLACEMENTS = ("canonical", "general")


class RunConfig(Record):
    _fields = ("mode", "precision_bits", "tolerance", "n_max", "seed",
               "checks", "weight_placement", "weight_singularities",
               "weight_residues", "seed_start", "seed_values", "out")

    def __init__(self, mode: str, precision_bits: int, tolerance: float,
                 n_max: int, seed: int, checks: list, weight_placement: str,
                 weight_singularities: list, weight_residues: list,
                 seed_start: int = -1, seed_values: list | None = None,
                 out: str = ""):
        self.mode = mode
        self.precision_bits = precision_bits
        self.tolerance = tolerance
        self.n_max = n_max
        self.seed = seed
        self.checks = checks
        self.weight_placement = weight_placement
        self.weight_singularities = weight_singularities
        self.weight_residues = weight_residues
        self.seed_start = seed_start
        self.seed_values = [] if seed_values is None else seed_values
        self.out = out

    def tolerance_mpf(self) -> mpf:
        return mpf(self.tolerance)


def load_config(path: str, overrides: dict) -> RunConfig:
    """Read the YAML mapping at path, apply overrides, then validate."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a mapping")
    return config_from_dict({**raw, **overrides})


def config_from_dict(raw: dict) -> RunConfig:
    _known_keys(raw, "mode precision_bits tolerance n_max seed checks weight "
                     "seeds out")
    mode = raw.get("mode", "formal")
    if mode not in MODES:
        raise ConfigInvalid(f"mode must be one of {MODES}, got {mode!r}")
    bits = raw.get("precision_bits", 128)
    if not _is_number(bits, int) or bits < 53:
        raise ConfigInvalid("precision_bits must be an integer >= 53")
    tol = raw.get("tolerance", 1e-20)
    if not _is_number(tol, (int, float)) or not math.isfinite(tol) or tol < 0:
        raise ConfigInvalid("tolerance must be a finite nonnegative number")
    n_max = raw.get("n_max", 8)
    if not _is_number(n_max, int) or n_max < 1:
        raise ConfigInvalid("n_max must be an integer >= 1")
    seed = raw.get("seed", 1)
    if not _is_number(seed, int):
        raise ConfigInvalid("seed must be an integer")
    checks = raw.get("checks", list(SUITE_BUILDERS))
    if not isinstance(checks, list) or \
            any(c not in SUITE_NAMES for c in checks):
        raise ConfigInvalid(f"checks must be a subset of {SUITE_NAMES}")
    if len(set(checks)) != len(checks):
        raise ConfigInvalid("checks must name each suite at most once")
    wblock = raw.get("weight")
    if not isinstance(wblock, dict):
        raise ConfigInvalid("missing weight block")
    _known_keys(wblock, "placement singularities residues", " in weight")
    placement = wblock.get("placement", "canonical")
    if placement not in PLACEMENTS:
        raise ConfigInvalid(f"placement must be one of {PLACEMENTS}, "
                            f"got {placement!r}")
    sing = wblock.get("singularities")
    res = wblock.get("residues")
    if not isinstance(sing, list) or not isinstance(res, list) or \
            len(sing) != len(res) or len(sing) < 2:
        raise ConfigInvalid("weight needs matching singularity/residue lists")
    zs = _exact_values("singularity", sing)
    rhos = _exact_values("residue", res)
    if mode == "rational" and placement != "canonical":
        raise ConfigInvalid("rational mode needs placement: canonical "
                            "(its seed window starts at the origin)")
    if mode == "rational" and not all(is_negative_int(r) for r in rhos):
        raise ConfigInvalid("rational mode needs negative integer residues")
    sblock = raw.get("seeds") or {}
    if not isinstance(sblock, dict):
        raise ConfigInvalid("seeds must be a mapping")
    _known_keys(sblock, "start values", " in seeds")
    seed_start = sblock.get("start", -1)
    seed_values = sblock.get("values", [])
    if not _is_number(seed_start, int) or not isinstance(seed_values, list):
        raise ConfigInvalid("seeds need an integer start and a values list")
    if mode == "formal":
        _exact_values("seed", seed_values)
        free = free_moments(zs)
        if len(seed_values) != free:
            raise ConfigInvalid(f"formal mode needs {free} seed moments, "
                                f"got {len(seed_values)}")
    return RunConfig(mode=mode, precision_bits=bits, tolerance=float(tol),
                     n_max=n_max, seed=seed, checks=list(checks),
                     weight_placement=placement,
                     weight_singularities=sing, weight_residues=res,
                     seed_start=seed_start, seed_values=seed_values,
                     out=str(raw.get("out", "")))


def _known_keys(block: dict, known: str, where: str = "") -> None:
    """Refuse the first key of block that ``known`` does not name."""
    for key in block:
        if key not in known.split():
            raise ConfigInvalid(f"unknown config key {key!r}{where}")


def _is_number(x, kinds) -> bool:
    """x is of the given kinds and not a bool: Python counts a bool as an
    int, and YAML reads true, false, yes, no, on and off as bools."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _exact_values(name: str, values: list) -> list:
    """Each scalar as an exact rational, or ConfigInvalid naming it; a
    non-finite float or a bool has no exact value."""
    out = []
    for raw_value in values:
        parts = raw_value if isinstance(raw_value, (list, tuple)) \
            else [raw_value]
        if any(isinstance(x, bool) for x in parts):
            raise ConfigInvalid(f"bad {name} {raw_value!r}: not a number")
        try:
            out.append(parse_exact(raw_value))
        except (TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            raise ConfigInvalid(f"bad {name} {raw_value!r}: {exc}") from exc
    return out


def as_dict(cfg: RunConfig) -> dict:
    """The mapping ``config_from_dict`` reads back into ``cfg``."""
    return {"mode": cfg.mode, "precision_bits": cfg.precision_bits,
            "tolerance": cfg.tolerance, "n_max": cfg.n_max, "seed": cfg.seed,
            "checks": list(cfg.checks),
            "weight": {"placement": cfg.weight_placement,
                       "singularities": list(cfg.weight_singularities),
                       "residues": list(cfg.weight_residues)},
            "seeds": {"start": cfg.seed_start, "values": cfg.seed_values},
            "out": cfg.out}


def build_weight_from_config(cfg: RunConfig) -> WeightData:
    return build_weight(cfg.weight_singularities, cfg.weight_residues,
                        cfg.weight_placement)


def build_workspace(cfg: RunConfig) -> SpectralWorkspace:
    """Weight + moments + oracle assembled per the configured mode."""
    weight = build_weight_from_config(cfg)
    if cfg.mode == "rational":
        from .deform import rational_workspace
        return rational_workspace(weight)
    pair = build_poly_pair(weight)
    if cfg.mode == "formal":
        seeds = [to_mpc(v) for v in cfg.seed_values]
        ms = MomentSequence.from_seeds(pair, cfg.seed_start, seeds)
    else:
        kmin = cfg.seed_start
        ks = range(kmin, kmin + free_moments(weight.singularities))
        ms = MomentSequence.from_seeds(
            pair, kmin, [moment_quadrature(weight, k) for k in ks])
        ms.provenance = "quadrature"
    return SpectralWorkspace(ToeplitzOracle(ms))
