"""Suite-wide settings: hypothesis draws its examples from a fixed seed,
with no example database, so the property tests run the same examples on
every run."""

try:
    from hypothesis import settings
except ImportError:          # tests/test_properties.py skips itself
    pass
else:
    settings.register_profile("perifront", derandomize=True, database=None,
                              max_examples=200, deadline=None)
    settings.load_profile("perifront")
