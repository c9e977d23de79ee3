"""Command-line front end.

Exit codes form a contract shell pipelines can branch on:
  0  success (a tangle exists where that was the question)
  1  certificate: the requested level has no tangle and an all-forbidden
     tree proves it
  2  invalid input: the message names the violated axiom, the bad family
     spec field, the unreadable input file or the unwritable --out path
  3  a budget exceeded: the oracle's enumeration, the separations of a
     ground or a sepsys/v1 file, or the nodes of a built tree

All outputs are byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import families, grounds, oracle, system as system_mod, tree as tree_mod
from .build import (certificate_entry, certificates_of, dump_report, pipeline,
                    tangle_entry)
from .build import build as build_tree
from .build import reduce as reduce_tree
from .errors import BudgetExceeded, TangleForgeError, ValidationError

ENV_BUDGET = "TANGLE_FORGE_BUDGET"
# --family spellings of family/v1 kinds
FAMILY_ALIASES = {"strong-profile": "strong_profile", "tangle": "graph_tangle",
                  "graph-tangle": "graph_tangle"}


def _number(text: str, kind, name: str):
    """``text`` read with ``kind`` (int or float); anything else, NaN
    included, is bad input named by ``name``."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {noun}, got {text!r}")
    return value


def _budget(args) -> oracle.OracleBudget:
    n, name = args.budget, "--budget"
    if n is None and os.environ.get(ENV_BUDGET):
        n, name = _number(os.environ[ENV_BUDGET], int, ENV_BUDGET), ENV_BUDGET
    if n is None:
        return oracle.OracleBudget()
    if n < 0:
        raise ValidationError(f"{name} must not be negative, got {n}")
    return oracle.OracleBudget(max_separations=n)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from None


def _read_json(path: str):
    return system_mod.parse_json(_read_text(path), path)


def _load_ground_system(args, spec):
    chosen = [name for name in ("graph", "similarity", "answers", "system")
              if getattr(args, name, None)]
    if len(chosen) != 1:
        raise TangleForgeError(
            "exactly one of --graph/--similarity/--answers/--system is required")
    kind = chosen[0]
    if kind == "system":
        return system_mod.from_json_dict(_read_json(args.system))
    text = _read_text(getattr(args, kind))
    if kind == "graph":
        g = grounds.Graph.from_edge_list(text)
        return grounds.graph_system(g, _system_bound(args, spec))
    if kind == "similarity":
        sim = grounds.load_similarity_csv(text)
        ground = grounds.full_bipartition_ground(len(sim), similarity=sim)
        return grounds.bipartition_system(ground)
    g = grounds.load_answers_csv(text)
    return grounds.questionnaire_system(g)


def _system_bound(args, spec) -> float:
    """Order bound for graph systems: the blocks parameter when the family
    is a blocks family, else the largest requested level, else everything."""
    if spec and spec.get("kind") == "blocks":
        return float(families.family_parameter(spec))
    return max(args.levels, default=float("inf"))


def _family_spec(args) -> dict | None:
    """``--family`` as a family/v1 dict: a JSON path or ``KIND[:PARAM]``."""
    spec = getattr(args, "family", None)
    if spec is None:
        return None
    if spec.endswith(".json") or "/" in spec:
        return system_mod.expect_object(_read_json(spec), spec)
    kind, _, param = spec.partition(":")
    kind = FAMILY_ALIASES.get(kind, kind)
    d = {"format": "family/v1", "kind": kind}
    if param and kind in families.PARAMETERS:
        try:
            param = int(param)
        except ValueError:
            pass  # family_parameter names the value as given
        d[families.PARAMETERS[kind]] = param
    return d


def _make_family(spec: dict | None, sys_obj):
    if spec is None:
        return families.make_empty()
    return families.family_from_json(spec, sys_obj)


def _load_inputs(args):
    """The ground system and the family a command is asked about."""
    spec = _family_spec(args)
    sys_obj = _load_ground_system(args, spec)
    return sys_obj, _make_family(spec, sys_obj)


def _write(args, text: str):
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _dump(payload) -> str:
    return system_mod.dump_json(payload) + "\n"


def cmd_validate(args) -> int:
    chosen = getattr(args, "system", None)
    if chosen:
        try:
            sys_obj = system_mod.from_json_dict(_read_json(chosen), check=False)
        except TangleForgeError as exc:
            _write(args, _dump({"ok": False, "issues": [str(exc)]}))
            return 2
    else:
        sys_obj = _load_ground_system(args, _family_spec(args))
    report = system_mod.validate(sys_obj)
    payload = {
        "ok": report.ok,
        "issues": [{"axiom": i.code, "detail": i.detail} for i in report.issues],
        "checked": report.checked,
    }
    _write(args, _dump(payload))
    return 0 if report.ok else 2


def cmd_build(args) -> int:
    sys_obj, fam = _load_inputs(args)
    report = pipeline(sys_obj, fam, thresholds=args.levels or None)
    if args.format == "dot":
        _write(args, tree_mod.to_dot(report.tree_reduced, fam))
    else:
        _write(args, dump_report(report) + "\n")
    return 0


def cmd_tangles(args) -> int:
    sys_obj, fam = _load_inputs(args)
    t = build_tree(sys_obj, fam)
    ts = tree_mod.tangles(t, fam)
    _write(args, _dump([tangle_entry(sys_obj, tau) for tau in ts]))
    return 0


def cmd_certify(args) -> int:
    sys_obj, fam = _load_inputs(args)
    level = sys_obj.restrict_below(args.levels[0] if args.levels else math.inf)
    t = build_tree(level, fam)
    ts = tree_mod.tangles(t, fam)
    payload = {"level": args.k[0] if args.k else "inf", "tangle_exists": bool(ts)}
    if ts:
        payload["tangles"] = [tangle_entry(level, tau) for tau in ts]
        _write(args, _dump(payload))
        return 0
    reduced, _ = reduce_tree(t, fam)
    if args.format == "dot":
        _write(args, tree_mod.to_dot(reduced, fam))
    else:
        payload["certificate_tree"] = tree_mod.tree_to_json_dict(reduced)
        payload["certificates"] = [certificate_entry(level, *c)
                                   for c in certificates_of(reduced, fam)]
        _write(args, _dump(payload))
    return 1


def cmd_oracle(args) -> int:
    sys_obj, fam = _load_inputs(args)
    result = oracle.all_tangles(sys_obj, fam, _budget(args))
    _write(args, _dump([sorted(t) for t in result]))
    return 0


def cmd_restrict(args) -> int:
    if not args.k:
        raise TangleForgeError("restrict needs an order threshold (--k)")
    t = tree_mod.tree_from_json_dict(_read_json(args.tree))
    restricted = tree_mod.restrict(t, args.levels[0])
    _write(args, tree_mod.dump_tree(restricted) + "\n")
    return 0


def cmd_reduce(args) -> int:
    t = tree_mod.tree_from_json_dict(_read_json(args.tree))
    fam = _make_family(_family_spec(args), t.system)
    reduced, trace = reduce_tree(t, fam)
    payload = {
        "tree": tree_mod.tree_to_json_dict(reduced),
        "steps": [list(s) for s in trace.steps],
    }
    _write(args, _dump(payload))
    return 0


def cmd_export_dot(args) -> int:
    t = tree_mod.tree_from_json_dict(_read_json(args.tree))
    fam = _make_family(_family_spec(args), t.system) if args.family else None
    _write(args, tree_mod.to_dot(t, fam))
    return 0


def _add_io_flags(p, tree_input=False):
    if tree_input:
        p.add_argument("--tree", required=True, help="tree/v1 JSON file")
    else:
        p.add_argument("--graph", help="edge-list file, one 'u v' per line")
        p.add_argument("--similarity", help="CSV similarity matrix")
        p.add_argument("--answers", help="CSV binary answer matrix")
        p.add_argument("--system", help="sepsys/v1 JSON file")
    p.add_argument("--family", help="KIND[:PARAM] or a family/v1 JSON path")
    p.add_argument("--k", action="append", default=None,
                   help="order threshold (repeatable)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--budget", type=int, default=None,
                   help=f"oracle separation budget (or ${ENV_BUDGET})")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tangleforge",
        description="Build, reduce, restrict and verify tangle structure trees")
    sub = p.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", cmd_validate, False, "check the axioms of a system"),
        ("build", cmd_build, False, "run the full pipeline and emit a report"),
        ("tangles", cmd_tangles, False, "list the tangles the tree displays"),
        ("certify", cmd_certify, False,
         "exit 0 with tangles, or 1 with an all-forbidden certificate tree"),
        ("oracle", cmd_oracle, False, "brute-force orientation/tangle lists"),
        ("restrict", cmd_restrict, True, "restrict a tree to orders below k"),
        ("reduce", cmd_reduce, True, "contract a tree until irreducible"),
        ("export-dot", cmd_export_dot, True, "emit Graphviz for a tree"),
    ]
    for name, fn, tree_input, help_text in specs:
        q = sub.add_parser(name, help=help_text)
        _add_io_flags(q, tree_input=tree_input)
        q.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        args.levels = [_number(k, float, "--k") for k in args.k or ()]
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TangleForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
