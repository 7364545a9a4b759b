"""The package's layers as the benchmark traces them.

The layers are the package modules: ``cli``, ``optimizer``, ``security``,
``bounds`` and ``simulator``.  `TARGETS` wraps each public function at every
module attribute through which the workloads reach it, and names its spans
after the module that defines it, so ``optimizer.binary_entropy`` and
``security.binary_entropy`` both count as ``bounds.binary_entropy``.
`layer_metrics` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

from finitekey import bounds, cli, optimizer, security, simulator
from tracing import Stat

LAYERS = ("cli", "optimizer", "security", "bounds", "simulator")

# Block sizes of the layer-size table: the oracle's cost per call and the
# simulator's cost per trial as the block grows.
ORACLE_SIZES = (1_000, 10_000, 100_000, 1_000_000)
SIMULATOR_SIZES = (60, 3100, 4820, 6422)

_PE_BOUNDS = ("bounds.serfling_epe", "bounds.lemma2_ppe_bound")


def _oracle_size(shape, delta, nu, w):
    return f"m{shape.m}", 1


def _run_size(config):
    return f"m{config.shape.m}", config.trials


_MAX_ELL = {"outcome": lambda ell: ell >= 1}
_FEASIBLE = {"outcome": lambda result: result[1]}
_ORACLE = {"size": _oracle_size}
_RUN = {"size": _run_size}

TARGETS = [
    (cli, "main", "cli.main", {}),
    (cli, "optimize", "optimizer.optimize", {}),
    (cli, "min_block_length", "optimizer.min_block_length", {}),
    (cli, "default_validation_grid", "simulator.default_validation_grid", {}),
    (cli, "validate_bounds", "simulator.validate_bounds", {}),
    (optimizer, "optimize", "optimizer.optimize", {}),
    (optimizer, "max_ell_at", "security.max_ell_at", _MAX_ELL),
    (optimizer, "feasible", "security.feasible", _FEASIBLE),
    (optimizer, "ec_leakage", "security.ec_leakage", {}),
    (optimizer, "binary_entropy", "bounds.binary_entropy", {}),
    (security, "feasible", "security.feasible", _FEASIBLE),
    (security, "ec_leakage", "security.ec_leakage", {}),
    (security, "eps_pa", "security.eps_pa", {}),
    (security, "binary_entropy", "bounds.binary_entropy", {}),
    (security, "serfling_epe", "bounds.serfling_epe", {}),
    (security, "new_epe", "bounds.new_epe", {}),
    (bounds, "serfling_epe", "bounds.serfling_epe", {}),
    (bounds, "lemma2_ppe_bound", "bounds.lemma2_ppe_bound", {}),
    (bounds, "exact_joint_ppe", "bounds.exact_joint_ppe", _ORACLE),
    (simulator, "run", "simulator.run", _RUN),
    (simulator, "exact_joint_ppe", "bounds.exact_joint_ppe", _ORACLE),
    (simulator, "serfling_epe", "bounds.serfling_epe", {}),
    (simulator, "lemma2_ppe_bound", "bounds.lemma2_ppe_bound", {}),
]


def _ratio(num, den) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass as ``{name: (value, unit)}``.

    Ratios and per-call costs read 0 when the pass made no such call.
    ``wall_s`` is the pass's root span; ``layer.bench.self_s`` is the part
    of it spent in the benchmark's own code, outside every layer.
    """
    stats = tracer.stats
    edges = tracer.edges

    def stat(name):
        return stats.get(name, Stat())

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def counts(name, self_time=False):
        put(f"{name}.calls", stat(name).calls, "count")
        if self_time:
            put(f"{name}.self_s", stat(name).self_s, "s")

    counts("cli.main", self_time=True)

    optimize = stat("optimizer.optimize")
    counts("optimizer.optimize", self_time=True)
    verify_s = sum(
        edge.total_s
        for (parent, child), edge in edges.items()
        if parent == "optimizer.optimize" and child.startswith("security.")
    )
    put("optimizer.optimize.verify_share", _ratio(verify_s, optimize.total_s), "ratio")
    probes = edges.get(("optimizer.min_block_length", "optimizer.optimize"))
    put("optimizer.min_block_length.probes", probes.calls if probes else 0, "count")

    max_ell = stat("security.max_ell_at")
    counts("security.max_ell_at", self_time=True)
    put("security.max_ell_at.positive_ratio", _ratio(max_ell.hits, max_ell.calls), "ratio")
    feasible = stat("security.feasible")
    counts("security.feasible", self_time=True)
    put("security.feasible.ok_ratio", _ratio(feasible.hits, feasible.calls), "ratio")
    nudges = edges.get(("security.max_ell_at", "security.feasible"))
    put(
        "security.feasible.per_max_ell",
        _ratio(nudges.calls if nudges else 0, max_ell.calls),
        "ratio",
    )
    counts("security.ec_leakage")
    counts("security.eps_pa")

    entropy = stat("bounds.binary_entropy")
    counts("bounds.binary_entropy", self_time=True)
    put("bounds.binary_entropy.us_per_call", 1e6 * _ratio(entropy.self_s, entropy.calls), "us")
    for name in _PE_BOUNDS:
        counts(name)
    pe_calls = sum(stat(name).calls for name in _PE_BOUNDS)
    unavailable = sum(stat(name).errors.get("BoundUnavailableError", 0) for name in _PE_BOUNDS)
    put("bounds.unavailable_ratio", _ratio(unavailable, pe_calls), "ratio")
    counts("bounds.exact_joint_ppe", self_time=True)
    for m in ORACLE_SIZES:
        sized = tracer.sized.get(("bounds.exact_joint_ppe", f"m{m}"))
        value = 1e6 * _ratio(sized.self_s, sized.calls) if sized else 0.0
        put(f"bounds.exact_joint_ppe.us_per_call.m{m}", value, "us")

    counts("simulator.run", self_time=True)
    put("simulator.run.trials", sum(
        s.work for (name, _), s in tracer.sized.items() if name == "simulator.run"
    ), "count")
    for m in SIMULATOR_SIZES:
        sized = tracer.sized.get(("simulator.run", f"m{m}"))
        value = 1e6 * _ratio(sized.self_s, sized.work) if sized else 0.0
        put(f"simulator.run.us_per_trial.m{m}", value, "us")

    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        layer = name.split(".", 1)[0]
        if layer in layer_s:
            layer_s[layer] += s.self_s
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", layer_s[layer], "s")
    put("layer.bench.self_s", wall_s - sum(layer_s.values()), "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.layer_share", _ratio(sum(layer_s.values()), wall_s), "ratio")
    return out
