"""The library calls behind the `build`, `tangles` and `certify` commands.

Each query takes a freshly constructed system and family and returns what the
command would print, so outputs can be compared byte for byte.  The traced
`build` query rebuilds `pipeline()` stage by stage so that each stage gets
its own span; the run checks that its report bytes equal those of
`pipeline()`.  The other two queries take a tracer whose calls pass straight
on in untraced rounds.
"""

from __future__ import annotations

import json

import tangleforge as tf
from tangleforge.build import LevelReport, PipelineReport, dump_report
from tangleforge.oracle import minimal_elements


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _tangle_entries(system, found):
    return [{"members": sorted(t), "minimal": sorted(minimal_elements(system, t))}
            for t in found]


def build_query(tr, system, family):
    """`tangleforge build`: the pipeline and its report/v1 dump; ``tr`` is
    unused, as the untraced query makes no spans."""
    report = tf.pipeline(system, family)
    return report, dump_report(report) + "\n"


def traced_build_query(tr, system, family):
    """`build_query` with a span per stage of `pipeline()`."""
    family = tr.wrap_family(family)
    tree_full = tr.call("build.build", tf.build, system, family)
    tr.add("build.tree_nodes", len(tree_full))
    if tr.call("tree.tangles", tf.is_structure_tree, tree_full, family):
        tree_reduced, trace = tr.call("build.reduce", tf.reduce, tree_full, family)
        tr.add("build.contractions", len(trace.steps))
        found = tr.call("tree.tangles", tf.tangles, tree_reduced, family)
    else:
        tree_reduced, trace, found = tree_full, tf.ReductionTrace(), []
    levels = []
    for k in sorted({float(system.order(s)) for s in system.seps()}):
        tk = tr.call("tree.restrict", tf.restrict, tree_full, k)
        ok = bool(tr.call("tree.tangles", tf.is_structure_tree, tk, family))
        if ok:
            tkred, ktrace = tr.call("build.level_reduce", tf.reduce, tk, family)
            tr.add("build.contractions", len(ktrace.steps))
            tl = tr.call("tree.tangles", tf.tangles, tkred, family)
            ftree = bool(tr.call("tree.certificates", tf.is_f_tree, tkred, family))
            certs = tr.call("tree.certificates", tf.certificates_of, tkred, family)
        else:
            tkred, tl, ftree, certs = None, [], False, []
        levels.append(LevelReport(k, tk, tkred, tl, ftree, certs, ok))
    tr.add("tree.levels", len(levels))
    certs = tr.call("tree.certificates", tf.certificates_of, tree_reduced, family)
    report = PipelineReport(system, family, tree_full, tree_reduced, trace,
                            found, certs, levels)
    text = tr.call("build.dump", dump_report, report) + "\n"
    tr.add("build.report_bytes", len(text.encode()))
    return report, text


def tangles_query(tr, system, family):
    """`tangleforge tangles`: build, then list the displayed tangles."""
    family = tr.wrap_family(family)
    tree = tr.call("build.build", tf.build, system, family)
    tr.add("build.tree_nodes", len(tree))
    found = tr.call("tree.tangles", tf.tangles, tree, family)
    return _dump(_tangle_entries(system, found))


def certify_query(tr, system, family, k: float):
    """`tangleforge certify --k k`: (exit code, output).

    Exit 0 lists the tangles of the level below k; exit 1 prints the reduced
    all-forbidden tree and its certificates.
    """
    family = tr.wrap_family(family)
    level = system.restrict_below(k)
    tree = tr.call("build.build", tf.build, level, family)
    tr.add("build.tree_nodes", len(tree))
    found = tr.call("tree.tangles", tf.tangles, tree, family)
    if found:
        return 0, _dump({"level": k, "tangle_exists": True,
                         "tangles": _tangle_entries(level, found)})
    reduced, trace = tr.call("build.reduce", tf.reduce, tree, family)
    tr.add("build.contractions", len(trace.steps))
    certs = tr.call("tree.certificates", tf.certificates_of, reduced, family)
    return 1, _dump({"level": k, "tangle_exists": False,
                     "certificate_tree": tf.tree_to_json_dict(reduced),
                     "certificates": [{"leaf": leaf, "witness": w.to_json_dict()}
                                      for leaf, w in certs]})
