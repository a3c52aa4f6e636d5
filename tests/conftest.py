import pytest

from seifert_orbifolds import classify


@pytest.fixture(autouse=True)
def _cold_invariant_memo():
    """Start each test with an empty classify._invariant memo, so a test
    that counts the work behind an answer sees it done, not recalled from
    an earlier test."""
    classify._invariant.cache_clear()
