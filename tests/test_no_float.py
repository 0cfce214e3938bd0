"""No float literal and no name ``float`` in ``src/grascat`` (`layering.RULES`)."""
from layering import rule_test
test_no_float = rule_test("float")
