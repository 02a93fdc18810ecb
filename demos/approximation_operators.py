"""
Part quantifiers: some large part, every large part
===================================================

"""

# <p> f asks for some part of at least fraction p of the team satisfying f;
# [p] f asks it of every such part; f ->{p} g relativizes [p] to parts
# satisfying f
from multiteam.model import Multiteam, Multistructure
from multiteam.parser import parse
from multiteam.semantics import SemanticsConfig, evaluate

structure = Multistructure(("0", "1", "2"), {})
cfg = SemanticsConfig()

# three rows; x=y only on the first, x=z only on the second
team = Multiteam(("x", "y", "z"), [("0", "0", "1"), ("0", "1", "0"),
                                   ("0", "1", "2")])

# the some-part quantifier does not distribute over the split: two thirds
# of the team satisfies the disjunction, but no two thirds satisfies
# either disjunct alone
print("<2/3>(x=y | x=z):",
      evaluate(structure, team, parse("<2/3>(x=y | x=z)"), cfg))
print("<2/3>x=y | <2/3>x=z:",
      evaluate(structure, team, parse("<2/3> x=y | <2/3> x=z"), cfg))

# nor is it downward closed: a subteam can lose the one good row
sub = Multiteam(("x", "y", "z"), [("0", "1", "0"), ("0", "1", "2")])
print("<1/3>x=y on the whole:",
      evaluate(structure, team, parse("<1/3> x=y"), cfg))
print("<1/3>x=y on a subteam:",
      evaluate(structure, sub, parse("<1/3> x=y"), cfg))

# the every-part quantifier survives neither disjoint unions
first = Multiteam(("x", "y"), [("0", "1"), ("1", "0")])
second = Multiteam(("x", "y"), [("0", "0")])
small = Multistructure(("0", "1"), {})
g = parse("[2/3] pinc(x ; y)")
print("[2/3]pinc on each half:",
      evaluate(small, first, g, cfg), evaluate(small, second, g, cfg))
print("[2/3]pinc on the union:",
      evaluate(small, first.disjoint_union(second), g, cfg))

# thresholds can also be absolute row counts: #k inside the brackets, in
# any mode and mixed with ratios in one formula
print("<#2> dep(x ; y):",
      evaluate(small, first, parse("<#2> dep(x ; y)"), cfg))
print("<1/2> <#1> x=y:",
      evaluate(small, first.disjoint_union(second), parse("<1/2> <#1> x=y"), cfg))

# approximate dependence: dep up to deleting a third of the rows
mostly = Multiteam(("x", "y"), {("0", "0"): 2, ("0", "1"): 1})
print("<2/3> dep(x ; y):",
      evaluate(small, mostly, parse("<2/3> dep(x ; y)"), cfg))
