"""Line-oriented run configuration: ``section.key = value`` per line.

Blank lines and ``#`` comments are ignored.  Values are integers, reals,
bare strings, or bracketed real lists like ``[0.5, -2.0]``.  Unknown
sections or keys are errors; model parameters are validated against the
named builtin's accepted parameter list.  ``serialize`` emits a
canonical form (every key, sorted, 17 significant digits) whose parse
round-trips to an equal config, and ``config_hash`` fingerprints it.
"""

import hashlib
import math
import re
from dataclasses import dataclass, field

from . import integrators
from .errors import ParseError, ValidationError
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


# (section, key) -> (attribute, type) where type in {"int", "real", "string"}.
_KEYS = {
    ("run", "scheme"): ("scheme", "string"),
    ("run", "t_end"): ("t_end", "real"),
    ("run", "dt"): ("dt", "real"),
    ("run", "n_atoms"): ("n_atoms", "int"),
    ("run", "rank"): ("rank", "int"),
    ("run", "dim"): ("dim", "int"),
    ("run", "seed"): ("seed", "int"),
    ("run", "record_stride"): ("record_stride", "int"),
    ("run", "out_dir"): ("out_dir", "string"),
    ("monitor", "n_max"): ("n_max", "int"),
    ("monitor", "gamma_cap_factor"): ("gamma_cap_factor", "real"),
    ("monitor", "sv_tolerance"): ("sv_tolerance", "real"),
    ("compare", "scheme_b"): ("compare_scheme_b", "string"),
    ("compare", "levels"): ("compare_levels", "int"),
    ("picard", "n_iters"): ("picard_iters", "int"),
    ("picard", "grid"): ("picard_grid", "int"),
    ("harness", "n_trials"): ("harness_trials", "int"),
    ("harness", "n_atoms"): ("harness_atoms", "int"),
    ("harness", "dim"): ("harness_dim", "int"),
    ("harness", "rank"): ("harness_rank", "int"),
}

_POSITIVE_INTS = (
    "n_atoms", "rank", "dim", "record_stride", "n_max", "compare_levels",
    "picard_iters", "picard_grid", "harness_trials", "harness_atoms",
    "harness_dim", "harness_rank",
)
_POSITIVE_REALS = ("t_end", "dt", "gamma_cap_factor", "sv_tolerance")


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
        try:
            attr, kind = _KEYS[(section, key)]
        except KeyError:
            raise ParseError("unknown key %s.%s" % (section, key), line=line_no) from None
        if kind == "int":
            if not isinstance(value, int):
                raise ParseError("%s.%s must be an integer" % (section, key), line=line_no)
        elif kind == "real":
            if isinstance(value, int):
                value = float(value)
            if not isinstance(value, float):
                raise ParseError("%s.%s must be a real" % (section, key), line=line_no)
        else:
            if not isinstance(value, str):
                raise ParseError("%s.%s must be a string" % (section, key), line=line_no)
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
    for name in _POSITIVE_INTS:
        if getattr(cfg, name) < 1:
            raise ValidationError("must be a positive integer", field=_field_name(name))
    for name in _POSITIVE_REALS:
        v = getattr(cfg, name)
        if not (isinstance(v, float) and math.isfinite(v) and v > 0):
            raise ValidationError("must be a positive finite real", field=_field_name(name))
    if cfg.dt > cfg.t_end:
        raise ValidationError("dt exceeds t_end", field="run.dt")
    if cfg.rank > cfg.dim:
        raise ValidationError("rank exceeds dim", field="run.rank")
    if cfg.harness_rank > min(cfg.harness_dim, cfg.harness_atoms):
        raise ValidationError("rank exceeds dim or n_atoms", field="harness.rank")
    return cfg


def _field_name(attr):
    for (section, key), (a, _) in _KEYS.items():
        if a == attr:
            return "%s.%s" % (section, key)
    return attr


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
    for (section, key), (attr, _) in sorted(_KEYS.items()):
        lines.append("%s.%s = %s" % (section, key, _format_value(getattr(cfg, attr))))
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    """Stable fingerprint of the canonical serialization."""
    return hashlib.sha256(serialize(cfg).encode("utf-8")).hexdigest()[:16]
