"""Test-session setup shared by every test module."""

import warnings
from contextlib import suppress

# hypothesis imports its patch writer while it reports a failing @given
# test, and a module under that writer warns on import.  Under
# filterwarnings = ["error"] that warning, raised inside the report hook,
# ends the session with INTERNALERROR and hides every later result.
# Importing the writer here once, with that one warning ignored, leaves it
# cached for the report.  Without libcst the import fails, and hypothesis
# then writes no patch.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
