"""Command-line front end: command dispatch over the expression language
of quadops (quadops.parse_expression, quadops.format_expression), and
deterministic text/JSON reporting.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 coinvariant run did not stabilize.
"""

from __future__ import annotations

import argparse
import json
import sys

# coinv is called through this module's names, which perfbench/tracer.py
# swaps to time it.
from .coinv import FPoint, coinvariants_A, coinvariants_X
from .fock import parse_label, term_labels
# Not called here, but perfbench/tracer.py swaps these names on this module
# to time them.
from .fock import apply_quadratic, format_vector
from .laurent import parse_int, signed_sum_chunks
# bracket and the expression language are called through this module's
# names, which perfbench/tracer.py swaps to time them.
from .quadops import bracket, format_expression, opens_term, parse_expression
from .verify import CocycleHandle, central_scalars, verify_all


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------

def _as_text(x):
    """x with every leaf as its text, through dicts and lists: an exact
    value goes into JSON as the string the text output prints, not as a
    number, whether it is an int or a Fraction."""
    if isinstance(x, dict):
        return {k: _as_text(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_as_text(v) for v in x]
    return str(x)

def _dump(data) -> str:
    return json.dumps(data)

def _parse_gaps(text: str):
    if not text.strip():
        return ()
    return tuple(parse_int(g, "--gaps") for g in text.split(","))


# ---------------------------------------------------------------------------
# subcommand bodies: return (exit code, output text or its pieces)
# ---------------------------------------------------------------------------

def _cmd_bracket(args):
    result = bracket(parse_expression(args.x), parse_expression(args.y))
    text = format_expression(result)
    if args.format == "json":
        return 0, _dump({"command": "bracket", "inputs": [args.x, args.y],
                         "result": text})
    return 0, text

def _cmd_cocycle(args):
    handle = CocycleHandle(args.name)
    value = handle(parse_expression(args.x), parse_expression(args.y))
    if args.format == "json":
        return 0, _dump({"command": "cocycle", "name": args.name,
                         "inputs": [args.x, args.y], "value": str(value)})
    return 0, str(value)

def _cmd_fock_apply(args):
    groups = term_labels(parse_expression(args.expr), parse_label(args.state))
    if args.format == "json":
        return 0, _fock_json_chunks(args, groups)
    return 0, signed_sum_chunks(groups, "0")

def _fock_json_chunks(args, groups):
    """The bytes of _dump of the fock-apply report, one piece per block of
    result entries.  A label, or a coefficient as the str of an int or a
    Fraction, holds no character that JSON escapes."""
    yield (f'{{"command": "fock-apply", "expr": {_dump(args.expr)}, '
           f'"state": {_dump(args.state)}, "result": [')
    sep = ""
    for c, labels in groups:
        # the entries {"label": "<label>", "coeff": "<c>"} of one block
        close = f'", "coeff": "{c}"}}'
        entries = f'{close}, {{"label": "'.join(labels)
        yield f'{sep}{{"label": "{entries}{close}'
        sep = ", "
    yield "]}"

def _cmd_coinv(args):
    compute = coinvariants_X if args.side == "X" else coinvariants_A
    report = compute(args.rank, FPoint(_parse_gaps(args.gaps)), args.N,
                     args.M, args.W)
    if args.format == "text":
        lines = [f"gaps: {report.gaps}", f"rank: {report.rank}",
                 f"N/M/W: {report.N}/{report.M}/{report.W}",
                 f"dims: {report.dims}",
                 f"stabilized: {str(report.stabilized).lower()}",
                 f"generators: {report.generators}"]
        text = "\n".join(lines)
    else:
        text = report.to_json()
    return (0 if report.stabilized else 3), text

def _cmd_verify_all(args):
    verdicts = verify_all(args.probe_bound)
    ok = all(v["pass"] for v in verdicts)
    if args.format == "json":
        return (0 if ok else 1), _dump(verdicts)
    lines = []
    for v in verdicts:
        params = " ".join(f"{k}={v['parameters'][k]}" for k in v["parameters"])
        status = "PASS" if v["pass"] else "FAIL"
        lines.append(f"{status} {v['check']}" + (f" ({params})" if params else ""))
        for w in v["witnesses"]:
            lines.append(f"    witness: {w}")
    return (0 if ok else 1), "\n".join(lines)

def _cmd_central_scalars(args):
    table = central_scalars()
    if args.format == "json":
        return 0, _dump(_as_text(table))
    lines = [f"mp cocycle: {table['mp_cocycle']} "
             f"(on tau-hat pair at p=2: {table['mp_cocycle_on_tau2']})",
             f"U2 cocycle: {table['u2_cocycle']}",
             f"Lambda fiber scalar: {table['lambda_fiber']}",
             f"Theta fiber scalar: {table['theta_fiber']}"]
    for row in table["atiyah"]:
        lines.append(f"c={row['c']}: A-side {row['A_multiple']}, "
                     f"X-side {row['X_multiple']}")
    return 0, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _with_config(argv) -> list:
    """argv with `--config PATH`, before or after the subcommand, replaced
    by the config file's flags.  They go right after argv[0], the
    subcommand name in any argv that runs, so argv's own flags win.  After
    `--` every argument is positional, `--config` too."""
    rest, paths = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            rest += [arg, *args]
        elif arg == "--config":
            paths.append(next(args, ""))
        elif arg.startswith("--config="):
            paths.append(arg.split("=", 1)[1])
        else:
            rest.append(arg)
    if "" in paths:
        raise ValueError("--config needs a path")
    if len(paths) > 1:
        raise ValueError("--config may be given only once")
    if not paths:
        return rest
    sub = _SUBPARSERS.get(rest[0]) if rest else None
    return rest[:1] + _config_flags(paths[0], sub) + rest[1:]

def _config_flags(path: str, sub) -> list:
    """`--key=value` for each `key = value` line of the config file whose
    flag the subparser sub declares, in file order.  Every line is checked
    by the action of its flag, used or not: an unknown key, a malformed
    integer or a value outside the choices is an error naming path, line and key."""
    flags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_ACTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            action, where = _CONFIG_ACTIONS[key], f"{path}:{lineno}: key {key!r}"
            if action.type is int:
                parse_int(value, where)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{where}: invalid choice {value!r}")
            flag = action.option_strings[0]
            if sub is not None and flag in sub._option_string_actions:
                flags.append(f"{flag}={value}")
    return flags

def _add_format(sub, default: str):
    sub.add_argument("--format", choices=("text", "json"), default=default)

def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscalg",
        description="Exact computations in the quadratic Weyl algebra, its "
                    "Fock representations, and coinvariants at semigroup points")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bracket", help="commutator of two expressions")
    sub.add_argument("x")
    sub.add_argument("y")
    _add_format(sub, "text")
    sub.set_defaults(func=_cmd_bracket)

    sub = subs.add_parser("cocycle", help="evaluate a named two-cocycle")
    sub.add_argument("name", choices=("psi", "alpha", "beta", "gamma"))
    sub.add_argument("x")
    sub.add_argument("y")
    _add_format(sub, "text")
    sub.set_defaults(func=_cmd_cocycle)

    sub = subs.add_parser("fock-apply", help="apply an expression to a basis state")
    sub.add_argument("expr")
    sub.add_argument("state")
    _add_format(sub, "text")
    sub.set_defaults(func=_cmd_fock_apply)

    sub = subs.add_parser("coinv", help="stabilized coinvariant dimensions")
    sub.add_argument("--gaps", default="")
    sub.add_argument("--rank", type=int, default=1)
    sub.add_argument("--N", type=int, default=4)
    sub.add_argument("--M", type=int, default=8)
    sub.add_argument("--W", type=int, default=8)
    sub.add_argument("--side", choices=("A", "X"), default="A")
    _add_format(sub, "json")
    sub.set_defaults(func=_cmd_coinv)

    sub = subs.add_parser("verify-all", help="run the identity battery")
    sub.add_argument("--probe-bound", dest="probe_bound", type=int, default=4)
    _add_format(sub, "text")
    sub.set_defaults(func=_cmd_verify_all)

    sub = subs.add_parser("central-scalars", help="central-scalar table")
    _add_format(sub, "text")
    sub.set_defaults(func=_cmd_central_scalars)

    return parser

# Built once per process; nothing changes it afterwards.
_PARSER = build_parser()
_SUBPARSERS = next(a.choices for a in _PARSER._actions if a.dest == "command")
# config key -> the action of its flag, which declares the key's type and choices
_CONFIG_ACTIONS = {action.dest: action for sub in _SUBPARSERS.values()
                   for action in sub._actions
                   if action.option_strings and action.nargs != 0}

def _dashed_expressions_last(argv):
    """argv with the options of an expression subcommand moved before a
    `--` when one of its positionals starts with '-', which argparse would
    read as an option, or when argv holds a `--`, which argparse leaves
    unread after options that follow the positionals: `bracket T(1) -T(-1)
    --format json` runs as `bracket --format json -- T(1) -T(-1)`.  A bare
    '-' is the label of an empty channel, so it too is a positional.  Other
    argv come back as is."""
    if not argv or argv[0] not in ("bracket", "cocycle", "fock-apply"):
        return argv
    actions = _SUBPARSERS[argv[0]]._option_string_actions
    options, positionals = [], []
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--":
            positionals += rest
        elif (arg.startswith("-") and arg != "-"
              and not opens_term(arg[1:].lstrip()[:1])):
            options.append(arg)
            if arg not in actions and arg.startswith("--"):
                # argparse reads a unique prefix of a long option as it
                named = [s for s in actions if s.startswith(arg)]
                arg = named[0] if len(named) == 1 else arg
            if arg in actions and actions[arg].nargs != 0:
                value = next(rest, None)
                if value is not None:
                    options.append(value)
        else:
            positionals.append(arg)
    if "--" not in argv and not any(arg.startswith("-") for arg in positionals):
        return argv
    return [argv[0], *options, "--", *positionals]

def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _with_config(argv)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        args = _PARSER.parse_args(_dashed_expressions_last(argv))
    except SystemExit as e:    # usage errors and --help
        return e.code
    try:
        code, text = args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = sys.stdout
    out.writelines((text,) if isinstance(text, str) else text)
    out.write("\n")
    return code

if __name__ == "__main__":
    sys.exit(main())
