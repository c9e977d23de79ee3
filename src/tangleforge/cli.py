"""Command-line front end.

Exit codes form a contract shell pipelines can branch on:
  0  success (a tangle exists where that was the question)
  1  certificate: the requested level has no tangle and an all-forbidden
     tree proves it
  2  invalid input: the message names the violated axiom, the bad family
     spec field, the unreadable input file, the unwritable --out path, or
     a flag the command does not read (each reads its row of ``COMMANDS``,
     and ``--k`` only where it takes effect)
  3  a budget exceeded: the oracle's enumeration, the separations of a
     ground or a system file, or the nodes of a built tree

All outputs are byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import families, grounds, oracle, system as system_mod, tree as tree_mod
from .build import (_reduce, certificate_entry, certificates_of, dump_report,
                    pipeline, tangle_entry)
from .build import build as build_tree
from .build import reduce as reduce_tree
from .errors import (BudgetExceeded, NotAStructureTree, TangleForgeError,
                     ValidationError)

# --family spellings of family/v1 kinds
FAMILY_ALIASES = {"strong-profile": "strong_profile", "tangle": "graph_tangle",
                  "graph-tangle": "graph_tangle"}


def _threshold(text: str) -> float:
    """A ``--k`` value as a number; anything else, NaN included, is bad
    input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"--k must be a number, got {text!r}")
    return value


def _budget(args) -> oracle.OracleBudget:
    if args.budget is None:
        return oracle.OracleBudget()
    if args.budget < 0:
        raise ValidationError(f"--budget must not be negative, got {args.budget}")
    return oracle.OracleBudget(max_separations=args.budget)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from None


def _read_json(path: str):
    return system_mod.parse_json(_read_text(path), path)


def _ground_kind(args) -> str:
    """The one ground flag given."""
    chosen = [name for name in ("graph", "similarity", "answers", "system")
              if getattr(args, name)]
    if len(chosen) != 1:
        raise TangleForgeError(
            "exactly one of --graph/--similarity/--answers/--system is required")
    return chosen[0]


def _load_ground_system(args, spec):
    kind = _ground_kind(args)
    blocks = spec and spec.get("kind") == "blocks"
    if args.levels and args.command in ("validate", "tangles", "oracle") and \
            (kind != "graph" or blocks):
        raise ValidationError(f"{args.command} reads --k only as the order "
                              "bound of a --graph ground without a blocks family")
    if kind == "system":
        return system_mod.from_json_dict(_read_json(args.system))
    text = _read_text(getattr(args, kind))
    if kind == "graph":
        g = grounds.Graph.from_edge_list(text)
        # orders below k of a blocks:k family, else below the largest --k
        bound = (float(families.family_parameter(spec)) if blocks
                 else max(args.levels, default=math.inf))
        return grounds.graph_system(g, bound)
    if kind == "similarity":
        sim = grounds.load_similarity_csv(text)
        ground = grounds.full_bipartition_ground(len(sim), similarity=sim)
        return grounds.bipartition_system(ground)
    g = grounds.load_answers_csv(text)
    return grounds.questionnaire_system(g)


def _family_spec(args) -> dict | None:
    """``--family`` as a family/v1 dict: a JSON path or ``KIND[:PARAM]``."""
    spec = args.family
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
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValidationError(
                f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _dump(payload) -> str:
    return system_mod.dump_json(payload) + "\n"


def cmd_validate(args) -> int:
    # a --k with --system is refused on loading, by _load_ground_system
    if _ground_kind(args) == "system" and not args.levels:
        try:
            sys_obj = system_mod.from_json_dict(_read_json(args.system),
                                                check=False)
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
    """Build over a view of the level: the writers give its local ids, and
    only the certificate tree's ``system_ref`` carves the level."""
    sys_obj, fam = _load_inputs(args)
    level = sys_obj.view_below(args.levels[0] if args.levels else math.inf)
    t = build_tree(level, fam)
    tree_mod.is_structure_tree(t, fam).require(NotAStructureTree)
    ts = tree_mod._tangles(t, fam)
    payload = {"level": args.k[0] if args.k else "inf", "tangle_exists": bool(ts)}
    if ts:
        payload["tangles"] = [tangle_entry(level, tau) for tau in ts]
        _write(args, _dump(payload))
        return 0
    reduced, _ = _reduce(t, fam, {})
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


FLAGS = {  # each flag's argparse keywords
    "--graph": {"help": "edge-list file, one 'u v' per line"},
    "--similarity": {"help": "CSV similarity matrix"},
    "--answers": {"help": "CSV binary answer matrix"},
    "--system": {"help": "sepsys/v2 JSON file (a sepsys/v1 one without "
                          "'universe' or 'ground' is read too)"},
    "--tree": {"required": True, "help": "tree/v1 JSON file"},
    "--family": {"help": "KIND[:PARAM] or a family/v1 JSON path"},
    "--k": {"action": "append", "help": "order threshold (repeatable)"},
    "--out": {"help": "output path (default: stdout)"},
    "--format": {"choices": ("json", "dot"), "default": "json"},
    "--budget": {"type": int, "help": "oracle separation budget"},
}
GROUND = ("--graph", "--similarity", "--answers", "--system", "--family",
          "--k", "--out")
COMMANDS = {  # each command's handler, exactly the flags it reads, its help
    "validate": (cmd_validate, GROUND, "check the axioms of a system"),
    "build": (cmd_build, GROUND + ("--format",),
              "run the full pipeline and emit a report"),
    "tangles": (cmd_tangles, GROUND, "list the tangles the tree displays"),
    "certify": (cmd_certify, GROUND + ("--format",),
                "exit 0 with tangles, or 1 with an all-forbidden certificate tree"),
    "oracle": (cmd_oracle, GROUND + ("--budget",),
               "brute-force orientation/tangle lists"),
    "restrict": (cmd_restrict, ("--tree", "--k", "--out"),
                 "restrict a tree to orders below k"),
    "reduce": (cmd_reduce, ("--tree", "--family", "--out"),
               "contract a tree until irreducible"),
    "export-dot": (cmd_export_dot, ("--tree", "--family", "--out"),
                   "emit Graphviz for a tree"),
}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tangleforge",
        description="Build, reduce, restrict and verify tangle structure trees")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags, help_text) in COMMANDS.items():
        q = sub.add_parser(name, help=help_text)
        for flag in flags:
            q.add_argument(flag, **FLAGS[flag])
        q.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        args.levels = [_threshold(k) for k in getattr(args, "k", None) or ()]
        if len(args.levels) > 1 and args.command in ("certify", "restrict"):
            raise ValidationError(
                f"{args.command} reads one --k, got {len(args.levels)}")
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TangleForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
