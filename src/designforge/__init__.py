"""Designs from finite simple permutation groups.

Two constructions are provided: blocks as group translates of a point-
stabilizer orbit, and points as a conjugacy class with blocks cut out by
the conjugates of a maximal subgroup.  On top of these sit reductions,
duals, t-design verification, automorphism-group search, and lift tests
for normalizing maps of the acting group.

Each name is imported from its module, for example
``from designforge.group import PermGroup``; ``__version__`` is the only
name at the package root.
"""

__version__ = "0.1.0"
