"""The benchmark's workloads: which `dosde` commands run, on which configs.

Sizes are fixed per workload.  The seed only sets ``run.seed``, that is
the Brownian path family and the initial datum, so every seed does the
same amount of work and only the sampled values differ.  Why each
workload exists, and which layers it is meant to stress, is written
down in NOTES.md and BENCHMARK.json.
"""

DEFAULT_SEED = 0

# workload name -> list of (cli command, {"section.key": value}).
WORKLOADS = {
    # The factored side: the paper's R << d case, the ambient scheme,
    # a rank event with restart, and Picard sweeps.
    "factored": [
        ("simulate", {
            "model.name": "ou",
            "run.scheme": "do",
            "run.n_atoms": 4096,
            "run.dim": 64,
            "run.rank": 8,
            "run.dt": 0.001,
            "run.t_end": 0.05,
            "run.record_stride": 50,
        }),
        ("compare", {
            "model.name": "additive_floor",
            "run.scheme": "do",
            "compare.scheme_b": "ambient",
            "compare.levels": 3,
            "run.n_atoms": 1024,
            "run.dim": 32,
            "run.rank": 4,
            "run.dt": 0.01,
            "run.t_end": 0.15,
        }),
        ("explosion-study", {
            "model.name": "mode_crossing",
            "model.t_star": 1.0,
            "run.scheme": "do",
            "run.n_atoms": 4096,
            "run.dim": 64,
            "run.rank": 2,
            "run.dt": 0.01,
            "run.t_end": 1.2,
            "run.record_stride": 120,
        }),
        ("picard-demo", {
            "model.name": "ou",
            "run.n_atoms": 2048,
            "run.dim": 32,
            "run.rank": 4,
            "picard.grid": 32,
            "picard.n_iters": 7,
        }),
    ],
    # The dense side: full EM with per-atom diffusion; kernels are only
    # used for the initial datum.
    "reference-dense": [
        ("simulate", {
            "model.name": "gbm_clipped",
            "run.scheme": "reference",
            "run.n_atoms": 2048,
            "run.dim": 32,
            "run.rank": 4,
            "run.dt": 0.001,
            "run.t_end": 0.2,
            "run.record_stride": 200,
        }),
    ],
}


def config_text(params, seed):
    """Config file text for one command: its fixed keys plus ``run.seed``."""
    lines = ["%s = %s" % (key, repr(value) if isinstance(value, float) else value)
             for key, value in params.items()]
    lines.append("run.seed = %d" % seed)
    return "\n".join(lines) + "\n"
