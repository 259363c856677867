"""Command-line interface: one `rotnorm` entry point per engine.

All output is deterministic JSON on stdout (keys sorted, compact separators,
rationals as "p/q" strings); diagnostics go to stderr as structured JSON.
Exit codes: 0 success, 1 input validation error, 2 internal inconsistency.
"""

from __future__ import annotations

import json
import os
import sys

import click

from rotnorm import bounds as bounds_mod
from rotnorm import catalog as catalog_mod
from rotnorm import circle as circle_mod
from rotnorm import coset as coset_mod
from rotnorm import groups as groups_mod
from rotnorm import lattice as lattice_mod
from rotnorm._rat import INF, Q, rat, rat_str
from rotnorm.errors import InconsistentLedger, ValidationError


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from None


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in _text_lines(obj, ""):
            click.echo(line)


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _text_lines(value, prefix + "  ")
            else:
                yield f"{prefix}{key}: {value}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, prefix + "  ")
            else:
                yield f"{prefix}- {value}"
    else:
        yield f"{prefix}{obj}"


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    help="Output format.",
)


@click.group()
def cli() -> None:
    """Exact norms, lattice invariants, and rotation quasimorphisms."""


@cli.command("group")
@click.option("--in", "path", required=True, help="JSON list of generator image arrays.")
@click.option("--norm", "norm_kind", type=click.Choice(["cl", "zeta"]), default=None)
@click.option("--element", default=None, help="JSON image array (zeta generator).")
@_format_option
def group_cmd(path, norm_kind, element, fmt):
    """Generate a permutation group; optionally emit a norm table."""
    if element is not None and norm_kind != "zeta":
        raise ValidationError("--element is read only with --norm zeta")
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise ValidationError("expected a non-empty JSON list of image arrays")
    G = groups_mod.generate_group(data)
    if norm_kind is None:
        s_g, classification = groups_mod.weakly_simple_set(G)
        _emit({
            "degree": G.degree,
            "order": G.order,
            "classification": classification,
            "weakly_simple_set_size": len(s_g),
        }, fmt)
        return
    if norm_kind == "cl":
        table = groups_mod.commutator_length(G)
    else:
        if element is None:
            raise ValidationError("--norm zeta requires --element")
        try:
            images = json.loads(element)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad --element {element!r}: {exc}") from None
        g = groups_mod.validate_perm(images)
        table = groups_mod.zeta_norm(G, g)
    _emit(table.to_json(), fmt)


@cli.command("lattice")
@click.option("--in", "path", required=True, help='JSON {"m": int, "generators": [...]}.')
@_format_option
def lattice_cmd(path, fmt):
    """Quotient invariants of an integer lattice."""
    A = lattice_mod.lattice_from_json(_read_json(path))
    _emit(lattice_mod.quotient_info(A).to_json(), fmt)


@cli.command("coset")
@click.option("--lattice", "lattice_path", required=True)
@click.option("--offset", required=True, help='Comma-separated rationals, e.g. "6/5,-5/2".')
@_format_option
def coset_cmd(lattice_path, offset, fmt):
    """Minimal l-infinity norm over the coset offset + lattice."""
    A = lattice_mod.lattice_from_json(_read_json(lattice_path))
    try:
        x = [rat(part) for part in offset.split(",")]
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad offset {offset!r}: {exc}") from None
    z = coset_mod.AffineCoset.build(A, x)
    data = coset_mod.theta(z)
    if A.m == 1:
        points = [rat_str(p[0]) for p in data.theta_points]
    else:
        points = [[rat_str(v) for v in p] for p in data.theta_points]
    _emit({"theta": rat_str(data.theta), "points": points}, fmt)


def _isotopy_from_json(data) -> circle_mod.PLIsotopy:
    try:
        times = [rat(t) for t in data["times"]]
        frames = [
            circle_mod.PLCircleDiffeo(
                [rat(x) for x in fr["x"]], [rat(y) for y in fr["y"]]
            )
            for fr in data["frames"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad isotopy JSON: {exc}") from None
    return circle_mod.PLIsotopy(times, frames)


@cli.command("mu")
@click.option("--in", "path", required=True, help="Isotopy JSON (times + frames).")
@click.option("--basepoint", default="0", help='Rational basepoint, e.g. "1/4".')
@_format_option
def mu_cmd(path, basepoint, fmt):
    """Rotation angle of the basepoint trace of an isotopy."""
    F = _isotopy_from_json(_read_json(path))
    _emit({"mu": rat_str(circle_mod.mu(F, rat(basepoint)))}, fmt)


@cli.command("nu")
@click.option("--in", "path", required=True, help="Multi-isotopy JSON.")
@click.option("--lattice", "lattice_path", default=None,
              help="Optional lattice JSON: also report theta of nu + A.")
@_format_option
def nu_cmd(path, lattice_path, fmt):
    """Vector of per-component rotation angles (and optionally its coset)."""
    data = _read_json(path)
    try:
        comps = [_isotopy_from_json(c) for c in data["components"]]
        pts = [rat(p) for p in data["basepoints"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad multi-isotopy JSON: {exc}") from None
    F = circle_mod.MultiIsotopy(tuple(comps), tuple(pts))
    vec = circle_mod.nu(F)
    out = {"nu": [rat_str(v) for v in vec]}
    if lattice_path is not None:
        A = lattice_mod.lattice_from_json(_read_json(lattice_path))
        z = circle_mod.nu_hat(F, A)
        out["theta"] = rat_str(coset_mod.theta(z).theta)
    _emit(out, fmt)


@cli.command("defect")
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Overridden by ROTNORM_SEED when set.")
@_format_option
def defect_cmd(trials, seed, fmt):
    """Randomized strict-inequality suite for the rotation quasimorphism."""
    env_seed = os.environ.get("ROTNORM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"ROTNORM_SEED must be an integer, got {env_seed!r}")
    report = circle_mod.defect_experiment(seed, trials)
    report["max_observed"] = {
        k: rat_str(v) for k, v in report["max_observed"].items()
    }
    _emit(report, fmt)


@cli.command("bounds")
@click.option("--theta", "theta_str", required=True, help='Rational, e.g. "5/2".')
@click.option("--context", "context_path", default=None)
@click.option("--lattice", "lattice_path", default=None)
@_format_option
def bounds_cmd(theta_str, context_path, lattice_path, fmt):
    """Certified bounds from a theta value (plus optional context/lattice)."""
    if (context_path is None) != (lattice_path is None):
        missing = "--lattice" if lattice_path is None else "--context"
        raise ValidationError(
            f"bounds needs {missing} too: --context and --lattice go together")
    th = rat(theta_str)
    lower = bounds_mod.lower_cl(
        th, bounds_mod.NU_DEFECT, bounds_mod.NU_COMMUTATOR_BOUND)
    upper = bounds_mod.upper_clb_modG(th)
    out = {"theta": rat_str(th), "lower_cl": rat_str(lower),
           "upper_clb_modG": upper}
    if context_path is not None:
        ctx = bounds_mod.ManifoldContext.from_json(_read_json(context_path))
        A = lattice_mod.lattice_from_json(_read_json(lattice_path))
        led = bounds_mod.diameter_ledger(ctx, lattice_mod.quotient_info(A))
        led = led.with_lower("cl_f", lower, "quasimorphism_theta_lower")
        led = led.with_upper("clb_modG_f", Q(upper), "quotient_norm_theta_upper")
        led = bounds_mod.relation_close(led)
        out["ledger"] = led.to_json()
    _emit(out, fmt)


@cli.command("verdict")
@click.option("--context", "context_path", required=True)
@click.option("--lattice", "lattice_path", required=True)
@_format_option
def verdict_cmd(context_path, lattice_path, fmt):
    """Boundedness verdict for a (context, lattice) pair."""
    ctx = bounds_mod.ManifoldContext.from_json(_read_json(context_path))
    A = lattice_mod.lattice_from_json(_read_json(lattice_path))
    _emit(bounds_mod.verdict(ctx, A).to_json(), fmt)


@cli.command("catalog")
@click.argument("action", type=click.Choice(["list", "check"]))
@click.argument("name", required=False)
@_format_option
def catalog_cmd(action, name, fmt):
    """List fixtures or re-verify one against its stored expectations."""
    if action == "list":
        if name is not None:
            raise ValidationError(
                f"catalog list takes no fixture name, got {name!r}")
        _emit({"fixtures": catalog_mod.list_fixtures()}, fmt)
        return
    if name is None:
        raise ValidationError("catalog check needs a fixture name")
    report = catalog_mod.check_fixture(name)
    _emit(report, fmt)
    if not report["ok"]:
        raise InconsistentLedger(f"fixture {name} failed its self-check")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except InconsistentLedger as exc:
        _report_error(exc, kind="inconsistency")
        return 2
    except ValidationError as exc:
        _report_error(exc, kind="validation")
        return 1
    except click.UsageError as exc:
        _report_error(exc, kind="usage")
        return 1
    except click.ClickException as exc:
        _report_error(exc, kind="cli")
        return 1
    except click.exceptions.Abort:
        return 1


def _report_error(exc, kind: str) -> None:
    payload = {"error": {"kind": kind, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
