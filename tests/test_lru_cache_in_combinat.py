"""Only ``combinat.py`` names ``lru_cache`` (`layering.RULES`)."""
from layering import rule_test
test_lru_cache_only_in_combinat = rule_test("lru_cache")
