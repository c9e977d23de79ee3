"""The smallest interesting system: two nested separations.

Walks through the raw ingredients once: the oriented elements and their
partial order, consistency, closure, and then the structure tree that
displays all three consistent orientations at once.
"""

import numpy as np

import tangleforge as tf
from tangleforge.system import fmt_oriented, ids_of, mask_of

# Separation 0 has order 1, separation 1 has order 2.  Orientation 2 (the
# forward side of separation 1) sits below orientation 0; the involution
# forces 1 < 3.  Everything else is incomparable.
leq = np.eye(4, dtype=bool)
leq[2, 0] = True
leq[1, 3] = True
system = tf.SeparationSystem(leq, orders=[1.0, 2.0])

print("oriented elements:", [fmt_oriented(o) for o in system.all_oriented()])
print("validation:", tf.validate(system).summary())

print("\nconsistency of each full orientation:")
for tau in [{0, 2}, {0, 3}, {1, 2}, {1, 3}]:
    mark = "consistent" if system.is_consistent(mask_of(tau)) else "inconsistent"
    print(f"  {{{', '.join(fmt_oriented(o) for o in sorted(tau))}}}: {mark}")

print("\nclosure pulls in everything a choice forces:")
for start in [{2}, {1}]:
    cl = ids_of(system.closure(mask_of(start)))
    print(f"  closure of {{{fmt_oriented(min(start))}}} =",
          "{" + ", ".join(fmt_oriented(o) for o in cl) + "}")

# With nothing forbidden, every consistent orientation is a tangle.  The
# tree splits the cheap separation at the root; one branch already closes
# to a full orientation at depth one.
family = tf.make_empty()
tree = tf.build(system, family)
print(f"\nbuilt tree: {len(tree)} nodes, splits separation",
      tree.s_of(tree.root), "at the root")
for leaf in tree.leaves():
    beta = ", ".join(fmt_oriented(o) for o in ids_of(tree.beta(leaf)))
    tangle = tf.classify_leaf(tree, leaf, family).tangle
    full = ", ".join(fmt_oriented(o) for o in sorted(tangle))
    print(f"  leaf {leaf}: path labels {{{beta}}} -> tangle {{{full}}}")

print("\nall displayed tangles equal the brute-force list:",
      tf.tangles(tree, family) == tf.all_consistent_orientations(system))
print("\nGraphviz form:\n")
print(tf.to_dot(tree, family))
