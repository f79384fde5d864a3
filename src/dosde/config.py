"""Line-oriented run configuration: ``section.key = value`` per line.

Blank lines and ``#`` comments are ignored.  Values are integers, reals,
bare strings, or bracketed real lists like ``[0.5, -2.0]``.  Unknown
sections or keys are errors.  ``_KEYS`` names each key once: its type
is that of its ``RunConfig`` default, and every number but ``run.seed``
must be positive.  Model parameters are validated against the named
builtin's accepted parameter list.  ``serialize`` emits a
canonical form (every key, sorted, 17 significant digits) whose parse
round-trips to an equal config, and ``config_hash`` fingerprints it.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field

from . import integrators
from .errors import ParseError, ShapeMismatch, ValidationError
from .models import PARAM_NAMES

_SCHEMES = integrators._SCHEMES

_LINE_RE = re.compile(r"^([A-Za-z_]+)\.([A-Za-z_]+)\s*=\s*(.+?)\s*$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_STRING_RE = re.compile(r"^[A-Za-z_./][A-Za-z0-9_./-]*$")  # words and path-like values


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    model_name: str = ""
    model_params: dict = field(default_factory=dict)
    scheme: str = "do"
    t_end: float = 1.0
    dt: float = 1e-3
    n_atoms: int = 128
    rank: int = 2
    dim: int = 4
    seed: int = 0
    record_stride: int = 1
    out_dir: str = "out"
    n_max: int = 64
    gamma_cap_factor: float = 1e8
    sv_tolerance: float = 1e-8
    compare_scheme_b: str = "ambient"
    compare_levels: int = 3
    picard_iters: int = 7
    picard_grid: int = 64
    harness_trials: int = 1000
    harness_atoms: int = 32
    harness_dim: int = 8
    harness_rank: int = 3


# "section.key" -> RunConfig attribute.  A key's type is the type of
# the attribute's default; every number but run.seed must be positive.
_KEYS = {
    "run.scheme": "scheme",
    "run.t_end": "t_end",
    "run.dt": "dt",
    "run.n_atoms": "n_atoms",
    "run.rank": "rank",
    "run.dim": "dim",
    "run.seed": "seed",
    "run.record_stride": "record_stride",
    "run.out_dir": "out_dir",
    "monitor.n_max": "n_max",
    "monitor.gamma_cap_factor": "gamma_cap_factor",
    "monitor.sv_tolerance": "sv_tolerance",
    "compare.scheme_b": "compare_scheme_b",
    "compare.levels": "compare_levels",
    "picard.n_iters": "picard_iters",
    "picard.grid": "picard_grid",
    "harness.n_trials": "harness_trials",
    "harness.n_atoms": "harness_atoms",
    "harness.dim": "harness_dim",
    "harness.rank": "harness_rank",
}

_TYPE_NAMES = {int: "an integer", float: "a real", str: "a string"}


def _kind(attr):
    return type(getattr(RunConfig, attr))


def _parse_value(raw, line_no):
    """Typed literal from raw text: int, real, list of reals, or string."""
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ParseError("unterminated list %r" % raw, line=line_no)
        body = raw[1:-1].strip()
        if not body:
            return ()
        out = []
        for part in body.split(","):
            part = part.strip()
            try:
                out.append(float(part))
            except ValueError:
                raise ParseError("bad list element %r" % part, line=line_no) from None
        return tuple(out)
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        pass
    if _STRING_RE.match(raw):
        return raw
    raise ParseError("cannot parse value %r" % raw, line=line_no)


def parse_config(text):
    """Parse config text into a validated RunConfig."""
    cfg = RunConfig()
    seen_model_name = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _LINE_RE.match(stripped)
        if m is None:
            raise ParseError("expected 'section.key = value', got %r" % stripped, line=line_no)
        section, key, raw = m.groups()
        value = _parse_value(raw, line_no)
        if section == "model":
            if key == "name":
                if not isinstance(value, str):
                    raise ParseError("model.name must be a string", line=line_no)
                cfg.model_name = value
                seen_model_name = True
            else:
                cfg.model_params[key] = value
            continue
        name = "%s.%s" % (section, key)
        attr = _KEYS.get(name)
        if attr is None:
            raise ParseError("unknown key %s" % name, line=line_no)
        kind = _kind(attr)
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            raise ParseError("%s must be %s" % (name, _TYPE_NAMES[kind]), line=line_no)
        setattr(cfg, attr, value)
    if not seen_model_name:
        raise ValidationError("required key is missing", field="model.name")
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """Domain checks; raises ValidationError naming the offending field."""
    if cfg.model_name not in PARAM_NAMES:
        raise ValidationError(
            "unknown model %r; builtins: %s" % (cfg.model_name, ", ".join(sorted(PARAM_NAMES))),
            field="model.name",
        )
    allowed = set(PARAM_NAMES[cfg.model_name]) - {"d"}  # dim comes from run.dim
    extra = set(cfg.model_params) - allowed
    if extra:
        raise ValidationError(
            "unknown parameters for %s: %s" % (cfg.model_name, ", ".join(sorted(extra))),
            field="model." + sorted(extra)[0],
        )
    if cfg.scheme not in _SCHEMES:
        raise ValidationError(
            "scheme must be one of %s" % (", ".join(_SCHEMES)), field="run.scheme"
        )
    if cfg.compare_scheme_b not in _SCHEMES:
        raise ValidationError(
            "scheme must be one of %s" % (", ".join(_SCHEMES)), field="compare.scheme_b"
        )
    for name, attr in _KEYS.items():
        v, kind = getattr(cfg, attr), _kind(attr)
        if kind is int and attr != "seed" and v < 1:
            raise ValidationError("must be a positive integer", field=name)
        if kind is float and not (isinstance(v, float) and math.isfinite(v) and v > 0):
            raise ValidationError("must be a positive finite real", field=name)
    if cfg.dt > cfg.t_end:
        raise ValidationError("dt exceeds t_end", field="run.dt")
    try:
        integrators.grid_steps(cfg.t_end, cfg.dt)
    except ShapeMismatch as err:
        raise ValidationError(str(err), field="run.t_end") from None
    if cfg.rank > cfg.dim:
        raise ValidationError("rank exceeds dim", field="run.rank")
    if cfg.harness_rank > min(cfg.harness_dim, cfg.harness_atoms):
        raise ValidationError("rank exceeds dim or n_atoms", field="harness.rank")
    return cfg


def _format_value(v):
    if isinstance(v, bool):
        raise ValidationError("booleans are not part of the grammar")
    if isinstance(v, int):
        return "%d" % v
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, tuple):
        return "[%s]" % ", ".join("%.17g" % x for x in v)
    return str(v)


def serialize(cfg):
    """Canonical text form: every key, sections sorted, 17 digits."""
    lines = ["model.name = %s" % cfg.model_name]
    for key in sorted(cfg.model_params):
        lines.append("model.%s = %s" % (key, _format_value(cfg.model_params[key])))
    for name, attr in sorted(_KEYS.items()):
        lines.append("%s = %s" % (name, _format_value(getattr(cfg, attr))))
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    """Stable fingerprint of the canonical serialization."""
    return hashlib.sha256(serialize(cfg).encode("utf-8")).hexdigest()[:16]
