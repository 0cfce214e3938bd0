"""No module of the package calls ``in_convex_hull`` (`layering.RULES`)."""
from layering import rule_test
test_in_convex_hull_not_called = rule_test("in_convex_hull")
