"""Command-line entry point.

Pipeline: parse -> elaborate -> evaluate -> render.  Exit codes:
0 success, 1 diagnostics or a failed internal invariant, 2 resource
limit, 3 inconsistent instance.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .elaborate import Environment, elaborate
from .errors import InvariantViolation, NoPathForSymbol, ResourceLimit
from .matcher import SimilarityConfig, match_mapping, match_span
from .migrate import InversionBounds, invert_mapping
from .model import DEFAULT_LIMITS, SaturationLimits, check_consistency
from .parser import Diagnostic, parse
from .render import render_mapping, render_model

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_RESOURCE = 2
EXIT_INCONSISTENT = 3


def _limits() -> SaturationLimits:
    raw = os.environ.get("CATQ_MAX_CLASSES")
    if raw is None:
        return DEFAULT_LIMITS
    try:
        return SaturationLimits(max_classes_per_sort=int(raw))
    except ValueError:
        print(f"error: CATQ_MAX_CLASSES must be a positive integer, got {raw!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_DIAGNOSTICS)


def _option(config, value):
    """`config(value)`, or `config()` when the option is not given; exit 1 when it is out of range."""
    if value is None:
        return config()
    try:
        return config(value)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_DIAGNOSTICS)


def _load(path: str) -> tuple[Environment, list[Diagnostic]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_DIAGNOSTICS)
    prog, diags = parse(text, path)
    env, more = elaborate(prog, _limits())
    return env, diags + more


def _report(diags: list[Diagnostic]) -> int:
    """Print diagnostics and return the exit code they imply (0 if clean)."""
    for d in diags:
        print(str(d), file=sys.stderr)
    if any(d.code == "ResourceLimit" for d in diags):
        return EXIT_RESOURCE
    if any(d.severity == "error" for d in diags):
        return EXIT_DIAGNOSTICS
    return EXIT_OK


def _inconsistency(env: Environment, names=None) -> int:
    code = EXIT_OK
    for name, model in env.models.items():
        if names is not None and name not in names:
            continue
        collision = check_consistency(model)
        if collision is not None:
            print(f"{name}: inconsistent: {collision}", file=sys.stderr)
            code = EXIT_INCONSISTENT
    return code


def _run_directives(env: Environment) -> int:
    code = EXIT_OK
    for d in env.directives:
        if d.op == "check":
            name = d.args[0]
            collision = check_consistency(env.models[name])
            if collision is None:
                print(f"check {name}: consistent")
            else:
                print(f"check {name}: inconsistent: {collision}", file=sys.stderr)
                code = max(code, EXIT_INCONSISTENT)
        elif d.op == "invert":
            code = max(code, _do_invert(env, d.args[0], _option(InversionBounds, d.depth)))
        elif d.op == "match":
            code = max(code, _do_match(env, d.args[0], d.args[1], d.span_match,
                                       _option(SimilarityConfig, d.cutoff)))
    return code


def _do_invert(env: Environment, name: str, bounds: InversionBounds) -> int:
    try:
        inv = invert_mapping(env.mappings[name], bounds, _limits())
    except ResourceLimit as e:
        print(f"invert {name}: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    if inv is None:
        print(f"invert {name}: no inverse exists within the search bounds")
    else:
        print(f"invert {name}:")
        print(render_mapping(inv), end="")
    return EXIT_OK


def _do_match(env: Environment, src: str, tgt: str, span: bool, cfg: SimilarityConfig) -> int:
    s, t = env.schemas[src], env.schemas[tgt]
    if span:
        res = match_span(s, t, cfg)
        print(f"match span {src} {tgt}: apex with "
              f"{len(res.apex.entities)} entities, {len(res.apex.symbols)} symbols")
        for e in res.apex.entities:
            print(f"  entity {e.name} (score {res.scores[e.name]:.3f})")
        for h in res.apex.symbols:
            print(f"  symbol {h.name} (score {res.scores[h.name]:.3f})")
        if res.empty:
            print("  (empty apex)")
        return EXIT_OK
    try:
        res = match_mapping(s, t)
    except NoPathForSymbol as e:
        print(f"match {src} {tgt}: failed: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    print(f"match {src} {tgt} (validated: {res.validated}):")
    print(render_mapping(res.mapping), end="")
    for k, v in res.scores.items():
        print(f"  score {k}: {v:.3f}")
    return EXIT_OK if res.validated else EXIT_DIAGNOSTICS


def cmd_check(args) -> int:
    env, diags = _load(args.file)
    code = _report(diags)
    if code:
        return code
    return _inconsistency(env)


def cmd_eval(args) -> int:
    env, diags = _load(args.file)
    code = _report(diags)
    if code:
        return code
    names = [args.show] if args.show else [n for k, n in env.order if k == "instance"]
    if args.show and args.show not in env.models:
        print(f"error: no instance named {args.show}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    for n in names:
        print(f"# instance {n}")
        print(render_model(env.models[n], args.format), end="")
        print()
    dcode = _run_directives(env)
    return max(dcode, _inconsistency(env, set(names)))


def cmd_match(args) -> int:
    cfg = _option(SimilarityConfig, args.cutoff)
    env, diags = _load(args.file)
    code = _report(diags)
    if code:
        return code
    for name in (args.source, args.target):
        if name not in env.schemas:
            print(f"error: no schema named {name}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    return _do_match(env, args.source, args.target, args.span, cfg)


def cmd_invert(args) -> int:
    bounds = _option(InversionBounds, args.depth)
    env, diags = _load(args.file)
    code = _report(diags)
    if code:
        return code
    if args.mapping not in env.mappings:
        print(f"error: no mapping named {args.mapping}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    return _do_invert(env, args.mapping, bounds)


def cmd_export(args) -> int:
    env, diags = _load(args.file)
    code = _report(diags)
    if code:
        return code
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind, name in env.order:
        if kind != "instance":
            continue
        path = out / f"{name}.{args.format}"
        path.write_text(render_model(env.models[name], args.format), encoding="utf-8")
        print(f"wrote {path}")
    return _inconsistency(env)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every `main` call.

    argparse's objects hold reference cycles, so a parser per call would
    leave garbage for the cyclic collector on every run.
    """
    p = argparse.ArgumentParser(prog="catq",
                                description="algebraic model management: schemas, "
                                            "instances and data migration")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse, elaborate and validate a program")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check)

    e = sub.add_parser("eval", help="evaluate instances and render their tables")
    e.add_argument("file")
    e.add_argument("--show", help="render only the named instance")
    e.add_argument("--format", default="markdown", choices=["markdown", "csv", "json"])
    e.set_defaults(fn=cmd_eval)

    m = sub.add_parser("match", help="suggest a mapping or span between two schemas")
    m.add_argument("file")
    m.add_argument("--source", required=True)
    m.add_argument("--target", required=True)
    m.add_argument("--span", action="store_true", help="build a span instead of a mapping")
    m.add_argument("--cutoff", type=float, default=None)
    m.set_defaults(fn=cmd_match)

    i = sub.add_parser("invert", help="search for an inverse of a mapping")
    i.add_argument("file")
    i.add_argument("--mapping", required=True)
    i.add_argument("--depth", type=int, default=None)
    i.set_defaults(fn=cmd_invert)

    x = sub.add_parser("export", help="write rendered instance tables to a directory")
    x.add_argument("file")
    x.add_argument("--format", default="json", choices=["markdown", "csv", "json"])
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    raise SystemExit(main())
