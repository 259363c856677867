"""Which rotnorm functions the traced run wraps, and the per-layer metrics.

Every entry names a public function (or method) of one module.  Functions
imported by name into other modules (``coset`` imports ``quotient_info``,
``_kernels`` re-exports the ``_pure`` kernels) are patched under every
binding, so a call is traced whichever name it goes through.  Metric names
are ``<layer>.<function>.<stat>``; the ``_kernels`` module is reported as the
``kernels`` layer because metric names must start with a letter.
"""

from __future__ import annotations

import importlib
import random
import sys

from rotnorm import _kernels

from perfbench.workloads import Op, expect


def _cvp_points(args, kwargs, result):
    return {"points": len(result[1])}


def _closure_elements(args, kwargs, result):
    return {"elements": len(result) if result is not None else 0}


def _bfs_products(args, kwargs, result):
    return {"products": sum(1 for d in result if d >= 0) * len(args[1])}


def _commutator_pairs(args, kwargs, result):
    return {"pairs": args[0].order ** 2, "distinct": len(result)}


def _defect_trials(args, kwargs, result):
    return {"trials": result["trials"]}


# (module, function or Class.method, per-call counter)
WRAPPED = (
    ("circle", "PLCircleDiffeo.__init__", None),
    ("circle", "PLCircleDiffeo.eval", None),
    ("circle", "PLCircleDiffeo.eval_inv", None),
    ("circle", "PLCircleDiffeo.compose", None),
    ("circle", "PLCircleDiffeo.interpolate", None),
    ("circle", "PLIsotopy.__init__", None),
    ("circle", "PLIsotopy.frame_at", None),
    ("circle", "random_isotopy", None),
    ("circle", "random_diffeo", None),
    ("circle", "random_based_loop", None),
    ("circle", "defect_experiment", _defect_trials),
    ("circle", "refine", None),
    ("circle", "compose", None),
    ("circle", "mu", None),
    ("coset", "AffineCoset.build", None),
    ("coset", "canonical_rep", None),
    ("coset", "theta", None),
    ("coset", "theta_sup", None),
    ("_kernels", "cvp_enumerate", _cvp_points),
    ("_kernels", "closure_bytes", _closure_elements),
    ("_kernels", "word_lengths_bytes", _bfs_products),
    ("lattice", "normalize", None),
    ("lattice", "quotient_info", None),
    ("lattice", "kernel_functional", None),
    ("bounds", "diameter_ledger", None),
    ("bounds", "relation_close", None),
    ("bounds", "verdict", None),
    ("catalog", "check_fixture", None),
    ("groups", "generate_group", None),
    ("groups", "commutator_set", _commutator_pairs),
    ("groups", "commutator_length", None),
    ("groups", "word_norm", None),
    ("groups", "conjugacy_class", None),
    ("groups", "normal_closure", None),
    ("groups", "weakly_simple_set", None),
    ("groups", "zeta_norm", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module.lstrip('_')}.{qualname}"


def install(tracer) -> None:
    """Wrap every entry of WRAPPED under every binding in the package."""
    for module_name, qualname, count in WRAPPED:
        module = importlib.import_module(f"rotnorm.{module_name}")
        name = span_name(module_name, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            tracer.wrap_attr(getattr(module, cls_name), attr, name, count)
            continue
        original = getattr(module, qualname)
        wrapped = tracer.wrap(name, original, count)
        bindings = [
            (mod, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "rotnorm" or mod_name.startswith("rotnorm.")
            for attr, value in vars(mod).items()
            if value is original
        ]
        for mod, attr in bindings:
            tracer.patch(mod, attr, wrapped)


# Extra per-function counts, as (function, stat, unit, better).
_EXTRA = {
    "coset.theta_sup": (("theta_calls", "count", "lower"),),
    "kernels.cvp_enumerate": (("points", "count", "lower"),),
    "kernels.closure_bytes": (("elements", "count", "lower"),),
    "kernels.word_lengths_bytes": (("products", "count", "lower"),),
    "groups.commutator_set": (
        ("pairs", "count", "lower"),
        ("distinct_ratio", "ratio", "higher"),
    ),
}

#: Fixed-size kernel cases carried over from benchmarks/bench_kernels.py.
KERNEL_CASES = ("closure_s8_s", "bfs_s8_transpositions_s", "cvp_batch300_s")
_S8_GENS = [bytes((1, 0, 2, 3, 4, 5, 6, 7)), bytes((1, 2, 3, 4, 5, 6, 7, 0))]
# Elements of S8 at transposition distance d = 8 - #cycles: the unsigned
# Stirling numbers of the first kind.
_S8_DISTANCE_COUNTS = (1, 28, 322, 1960, 6769, 13132, 13068, 5040)


def _check_closure(elems):
    expect(elems is not None and len(set(elems)) == 40320, "S8 closure is not 8!")
    return len(elems)


def _check_bfs(dists):
    counts = [dists.count(d) for d in range(8)]
    expect(tuple(counts) == _S8_DISTANCE_COUNTS and len(dists) == 40320,
           f"S8 transposition distances {counts}")
    return counts


def _cvp_instances():
    # The 300 instances of benchmarks/bench_kernels.py, same generator.
    rng = random.Random(0)
    instances = []
    for _ in range(300):
        m = rng.randint(2, 4)
        basis = []
        for p in range(m):
            row = [0] * m
            row[p] = rng.randint(1, 6)
            for i in range(p + 1, m):
                row[i] = rng.randint(0, row[p] * 3)
            basis.append(row)
        target = [rng.randint(-50, 50) for _ in range(m)]
        instances.append((basis, list(range(m)), target, 120))
    return instances


def _check_cvp(instances, results):
    for (basis, _, target, _), (best, points) in zip(instances, results):
        expect(points, "CVP returned no point")
        for pt in points:
            expect(max(abs(v) for v in pt) == best, f"CVP point {pt} misses {best}")
            # pt - target must be an integer combination of the (triangular) rows
            w = [a - b for a, b in zip(pt, target)]
            for p, row in enumerate(basis):
                c, r = divmod(w[p], row[p])
                expect(r == 0, f"CVP point {pt} left the coset")
                w = [a - c * b for a, b in zip(w, row)]
            expect(not any(w), f"CVP point {pt} left the coset")
    return [[best, len(points)] for best, points in results]


def kernel_cases() -> list[Op]:
    """The fixed kernel cases as ops labelled by their metric suffix."""
    transpositions = []
    for i in range(8):
        for j in range(i + 1, 8):
            p = list(range(8))
            p[i], p[j] = p[j], p[i]
            transpositions.append(bytes(p))
    elements = _kernels.closure_bytes(_S8_GENS, 10**6)
    instances = _cvp_instances()
    closure, bfs, cvp = KERNEL_CASES
    return [
        Op(closure, lambda: _kernels.closure_bytes(_S8_GENS, 10**6), _check_closure),
        Op(bfs, lambda: _kernels.word_lengths_bytes(elements, transpositions),
           _check_bfs),
        Op(cvp, lambda: [_kernels.cvp_enumerate(*inst) for inst in instances],
           lambda results: _check_cvp(instances, results)),
    ]


def metric_specs() -> list[dict]:
    """Every per-layer metric, in BENCHMARK.json order."""
    specs = []
    for module_name, qualname, _ in WRAPPED:
        name = span_name(module_name, qualname)
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{name}.errors", "unit": "count", "better": "lower"})
        for stat, unit, better in _EXTRA.get(name, ()):
            specs.append({"name": f"{name}.{stat}", "unit": unit, "better": better})
    specs.append({"name": "circle.defect.frames_used_ratio", "unit": "ratio",
                  "better": "higher"})
    specs.extend(
        {"name": f"kernels.case.{case}", "unit": "s", "better": "lower"}
        for case in KERNEL_CASES
    )
    specs.append({"name": "cli.import_s", "unit": "s", "better": "lower"})
    specs.append({"name": "trace.overhead_ops_per_s", "unit": "1/s",
                  "better": "lower"})
    return specs


def layer_values(tracer) -> dict:
    """Per-layer values computed from the spans of a traced run, keyed by
    metric name (kernel cases, import time and overhead are added by the
    runner)."""
    totals = tracer.totals()
    values = {}
    for module_name, qualname, _ in WRAPPED:
        name = span_name(module_name, qualname)
        t = totals.get(name, {"calls": 0, "errors": 0, "self_s": 0.0})
        values[f"{name}.calls"] = t["calls"]
        values[f"{name}.self_s"] = t["self_s"]
        values[f"{name}.errors"] = t["errors"]
    sup = "coset.theta_sup"
    values[f"{sup}.theta_calls"] = tracer.children(sup, "coset.theta")
    for name, stat in (("kernels.cvp_enumerate", "points"),
                       ("kernels.closure_bytes", "elements"),
                       ("kernels.word_lengths_bytes", "products"),
                       ("groups.commutator_set", "pairs")):
        values[f"{name}.{stat}"] = totals.get(name, {}).get(stat, 0)
    comm = totals.get("groups.commutator_set", {})
    values["groups.commutator_set.distinct_ratio"] = (
        comm["distinct"] / comm["pairs"] if comm.get("pairs") else 0.0)
    # Frames read per trial: the endpoint frames of F and G, and h.
    trials = totals.get("circle.defect_experiment", {}).get("trials", 0)
    built = tracer.descendants("circle.defect_experiment",
                               "circle.PLCircleDiffeo.__init__")
    values["circle.defect.frames_used_ratio"] = 3 * trials / built if built else 0.0
    return values
