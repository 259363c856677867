"""Command-line interface: one `rotnorm` entry point per engine.

All output is deterministic JSON on stdout (keys sorted, compact separators,
rationals as "p/q" strings); diagnostics go to stderr as structured JSON.
Exit codes: 0 success, 1 input validation or usage error, 2 internal
inconsistency.

Each command handler parses its inputs, makes one engine call and returns
the JSON document that ``main`` prints.  A handler imports only the engine
modules it runs, because on the small inputs these commands take, loading
every engine was most of a call's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from rotnorm._rat import rat, rat_str
from rotnorm.errors import InconsistentLedger, ValidationError, cut, quoted


class UsageError(Exception):
    """The command line does not parse; maps to exit code 1."""


#: Most bytes of a usage error message in the JSON error line, after each
#: word is cut to errors.QUOTE_BYTES; a bad command name, cut and followed
#: by the nine choices, gives 192.
_USAGE_BYTES = 250


class _Parser(argparse.ArgumentParser):
    """Exact option names only, ``--help`` as the one help flag, and a
    parse error raised as ``UsageError`` instead of exiting 2.  Records
    the options that take a value, for ``_join_values``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.valued = set()
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs is None:
            self.valued.update(action.option_strings)
        return action

    def error(self, message):
        # argparse echoes command-line tokens whole, and lists every
        # unrecognized one: cut each word, then the message
        raise UsageError(cut(" ".join(map(cut, message.split(" "))),
                             _USAGE_BYTES))


def _join_values(args, valued) -> list:
    """Rewrite each ``--name VALUE`` pair, ``--name`` in ``valued``, as
    ``--name=VALUE``: every option takes the next token verbatim, even
    one that starts with '-' (argparse would read it as an option)."""
    out, i = [], 0
    while i < len(args):
        if args[i] in valued and i + 1 < len(args):
            out.append(f"{args[i]}={args[i + 1]}")
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


#: Most digits in one input integer: a JSON integer, ``--trials``,
#: ``--seed``, ROTNORM_SEED, or the numerator or denominator of a "p/q"
#: rational.
MAX_INT_DIGITS = 1000

#: Python's cap on int <-> str conversion while a command runs; every
#: integer a command writes has fewer digits for inputs within
#: MAX_INT_DIGITS = C.  Lattice invariants divide or bound a minor of an at
#: most 8 x 8 integer matrix: under 8C + 4 digits.  mu, and each nu value,
#: is the difference of two lift values y_a + (p - x_a)(y_b - y_a)/(x_b -
#: x_a) of input rationals: a denominator under 14C digits and a size under
#: 10^(C + 1).  theta of nu + A is one coordinate of a point of that coset,
#: over the same denominator and no larger than nu.
_OUTPUT_DIGITS = 16 * MAX_INT_DIGITS


def _capped(text: str) -> str:
    """``text``, an integer or a "p/q" rational, once each of its integers
    is found to have at most MAX_INT_DIGITS digits."""
    for part in text.split("/"):
        if sum(map(str.isdigit, part)) > MAX_INT_DIGITS:
            raise ValidationError("an input integer has more digits than the "
                                  f"cap MAX_INT_DIGITS = {MAX_INT_DIGITS}")
    return text


def _int(text: str, name: str = "", error=ValidationError) -> int:
    """``int(text)`` of one input integer: a JSON integer, ``--trials``,
    ``--seed`` or ROTNORM_SEED.  Its digits are checked against
    MAX_INT_DIGITS before ``int`` runs, so an oversized one fails fast with
    the cap named; a ``text`` that is not an integer (never a JSON
    integer) raises ``error``, naming the input ``name``."""
    _capped(text)
    try:
        return int(text)
    except ValueError:
        raise error(f"{name}: invalid int value: {quoted(text)}") from None


def _rat(value):
    """``rat`` of an input value, a string checked against MAX_INT_DIGITS."""
    return rat(_capped(value) if isinstance(value, str) else value)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, parse_int=_int)
        with open(path) as fh:
            return json.load(fh, parse_int=_int)
    except (OSError, ValueError) as exc:  # bad JSON, or an int past the digit cap
        # an OSError's text repeats the whole path, so give only its reason
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(
            f"cannot read JSON from {quoted(path)}: {reason}") from None


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in _text_lines(obj, ""):
            print(line)


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


def group_cmd(path, norm_kind, element):
    """Generate a permutation group; optionally emit a norm table."""
    from rotnorm import groups

    if element is not None and norm_kind != "zeta":
        raise ValidationError("--element is read only with --norm zeta")
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise ValidationError("expected a non-empty JSON list of image arrays")
    G = groups.generate_group(data)
    if norm_kind is None:
        s_g, classification = groups.weakly_simple_set(G)
        return {
            "degree": G.degree,
            "order": G.order,
            "classification": classification,
            "weakly_simple_set_size": len(s_g),
        }
    if norm_kind == "cl":
        return groups.commutator_length(G).to_json()
    if element is None:
        raise ValidationError("--norm zeta requires --element")
    try:
        images = json.loads(element, parse_int=_int)
    except ValueError as exc:  # not echoed: it may hold thousands of digits
        raise ValidationError(f"bad --element: {exc}") from None
    return groups.zeta_norm(G, groups.validate_perm(images)).to_json()


def lattice_cmd(path):
    """Quotient invariants of an integer lattice."""
    from rotnorm import lattice

    A = lattice.lattice_from_json(_read_json(path))
    return lattice.quotient_info(A).to_json()


def coset_cmd(lattice_path, offset):
    """Minimal l-infinity norm over the coset offset + lattice."""
    from rotnorm import coset, lattice

    A = lattice.lattice_from_json(_read_json(lattice_path))
    try:
        x = [_rat(part) for part in offset.split(",")]
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad offset {quoted(offset)}: {exc}") from None
    data = coset.theta(coset.AffineCoset.build(A, x))
    if A.m == 1:
        points = [rat_str(p[0]) for p in data.theta_points]
    else:
        points = [[rat_str(v) for v in p] for p in data.theta_points]
    return {"theta": rat_str(data.theta), "points": points}


def _isotopy_from_json(data):
    from rotnorm import circle

    try:
        times = [_rat(t) for t in data["times"]]
        frames = [
            circle.PLCircleDiffeo(
                [_rat(x) for x in fr["x"]], [_rat(y) for y in fr["y"]]
            )
            for fr in data["frames"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad isotopy JSON: {exc}") from None
    return circle.PLIsotopy(times, frames)


def mu_cmd(path, basepoint):
    """Rotation angle of the basepoint trace of an isotopy."""
    from rotnorm import circle

    F = _isotopy_from_json(_read_json(path))
    return {"mu": rat_str(circle.mu(F, _rat(basepoint)))}


def nu_cmd(path, lattice_path):
    """Vector of per-component rotation angles (and optionally its coset)."""
    from rotnorm import circle

    data = _read_json(path)
    try:
        comps = [_isotopy_from_json(c) for c in data["components"]]
        pts = [_rat(p) for p in data["basepoints"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad multi-isotopy JSON: {exc}") from None
    F = circle.MultiIsotopy(tuple(comps), tuple(pts))
    out = {"nu": [rat_str(v) for v in circle.nu(F)]}
    if lattice_path is not None:
        from rotnorm import coset, lattice

        A = lattice.lattice_from_json(_read_json(lattice_path))
        out["theta"] = rat_str(coset.theta(circle.nu_hat(F, A)).theta)
    return out


def defect_cmd(trials, seed):
    """Randomized strict-inequality suite for the rotation quasimorphism."""
    from rotnorm import circle

    trials = _int(trials, "argument --trials", UsageError)
    seed = _int(seed, "argument --seed", UsageError)
    env_seed = os.environ.get("ROTNORM_SEED")
    if env_seed is not None:
        seed = _int(env_seed, "ROTNORM_SEED")
    report = circle.defect_experiment(seed, trials)
    report["max_observed"] = {
        k: rat_str(v) for k, v in report["max_observed"].items()
    }
    return report


def bounds_cmd(theta_str, context_path, lattice_path):
    """Certified bounds from a theta value (plus optional context/lattice)."""
    from rotnorm import bounds

    if (context_path is None) != (lattice_path is None):
        missing = "--lattice" if lattice_path is None else "--context"
        raise ValidationError(
            f"bounds needs {missing} too: --context and --lattice go together")
    th = _rat(theta_str)
    out = {"theta": rat_str(th),
           "lower_cl": rat_str(bounds.lower_cl(
               th, bounds.NU_DEFECT, bounds.NU_COMMUTATOR_BOUND)),
           "upper_clb_modG": bounds.upper_clb_modG(th)}
    if context_path is not None:
        from rotnorm import lattice

        ctx = bounds.ManifoldContext.from_json(_read_json(context_path))
        A = lattice.lattice_from_json(_read_json(lattice_path))
        q = lattice.quotient_info(A)
        out["ledger"] = bounds.element_ledger(ctx, q, th).to_json()
    return out


def verdict_cmd(context_path, lattice_path):
    """Boundedness verdict for a (context, lattice) pair."""
    from rotnorm import bounds, lattice

    ctx = bounds.ManifoldContext.from_json(_read_json(context_path))
    A = lattice.lattice_from_json(_read_json(lattice_path))
    return bounds.verdict(ctx, A).to_json()


def catalog_cmd(action, name):
    """List fixtures or re-verify one against its stored expectations."""
    from rotnorm import catalog

    if action == "list":
        if name is not None:
            raise ValidationError(
                f"catalog list takes no fixture name, got {quoted(name)}")
        return {"fixtures": catalog.list_fixtures()}
    if name is None:
        raise ValidationError("catalog check needs a fixture name")
    return catalog.check_fixture(name)


def _commands() -> tuple[_Parser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="rotnorm", description=(
        "Exact norms, lattice invariants, and rotation quasimorphisms."))
    sub = parser.add_subparsers(metavar="COMMAND", required=True)
    commands = {}

    def command(handler, name):
        p = sub.add_parser(name, help=handler.__doc__,
                           description=handler.__doc__)
        p.set_defaults(handler=handler)
        commands[name] = p
        return p

    p = command(group_cmd, "group")
    p.add_argument("--in", dest="path", required=True,
                   help="JSON list of generator image arrays.")
    p.add_argument("--norm", dest="norm_kind", choices=["cl", "zeta"])
    p.add_argument("--element", help="JSON image array (zeta generator).")

    p = command(lattice_cmd, "lattice")
    p.add_argument("--in", dest="path", required=True,
                   help='JSON {"m": int, "generators": [...]}.')

    p = command(coset_cmd, "coset")
    p.add_argument("--lattice", dest="lattice_path", required=True)
    p.add_argument("--offset", required=True,
                   help='Comma-separated rationals, e.g. "6/5,-5/2".')

    p = command(mu_cmd, "mu")
    p.add_argument("--in", dest="path", required=True,
                   help="Isotopy JSON (times + frames).")
    p.add_argument("--basepoint", default="0",
                   help='Rational basepoint, e.g. "1/4".')

    p = command(nu_cmd, "nu")
    p.add_argument("--in", dest="path", required=True,
                   help="Multi-isotopy JSON.")
    p.add_argument("--lattice", dest="lattice_path",
                   help="Optional lattice JSON: also report theta of nu + A.")

    p = command(defect_cmd, "defect")
    p.add_argument("--trials", default="10000",
                   help="Number of trials (default 10000).")
    p.add_argument("--seed", default="0",
                   help="Default 0; overridden by ROTNORM_SEED when set.")

    p = command(bounds_cmd, "bounds")
    p.add_argument("--theta", dest="theta_str", required=True,
                   help='Rational, e.g. "5/2".')
    p.add_argument("--context", dest="context_path")
    p.add_argument("--lattice", dest="lattice_path")

    p = command(verdict_cmd, "verdict")
    p.add_argument("--context", dest="context_path", required=True)
    p.add_argument("--lattice", dest="lattice_path", required=True)

    p = command(catalog_cmd, "catalog")
    p.add_argument("action", choices=["list", "check"])
    p.add_argument("name", nargs="?", metavar="NAME")
    for p in commands.values():
        p.add_argument("--format", dest="fmt", choices=["json", "text"],
                       default="json", help="Output format.")
    return parser, commands


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
    try:
        parser, commands = _commands()
        if args and args[0] in commands:
            args[1:] = _join_values(args[1:], commands[args[0]].valued)
        opts = vars(parser.parse_args(args))
        if limit:
            sys.set_int_max_str_digits(max(limit, _OUTPUT_DIGITS))
        handler, fmt = opts.pop("handler"), opts.pop("fmt")
        doc = handler(**opts)
        _emit(doc, fmt)
        if doc.get("ok") is False:  # a catalog check that found a mismatch
            raise InconsistentLedger(
                f"fixture {doc['name']} failed its self-check")
        return 0
    except InconsistentLedger as exc:
        _report_error(exc, kind="inconsistency")
        return 2
    except ValidationError as exc:
        _report_error(exc, kind="validation")
        return 1
    except UsageError as exc:
        _report_error(exc, kind="usage")
        return 1
    except KeyboardInterrupt:
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _report_error(exc, kind: str) -> None:
    payload = {"error": {"kind": kind, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
