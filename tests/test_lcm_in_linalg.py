"""Only ``linalg.py`` names ``lcm`` (`layering.RULES`)."""
from layering import rule_test
test_lcm_only_in_linalg = rule_test("lcm")
