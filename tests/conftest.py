import pytest

from g2lab import fields


@pytest.fixture(autouse=True)
def fresh_halton_tables():
    """Every test starts and ends with no cached Halton table, so none sees
    rows drawn by another test or by a stub of `halton_sequence`."""
    fields._halton_table.cache_clear()
    yield
    fields._halton_table.cache_clear()
