"""Only ``cli.py`` imports ``json`` (`layering.RULES`)."""
from layering import rule_test
test_json_only_in_cli = rule_test("json")
