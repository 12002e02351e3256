"""Test-session setup.

When a hypothesis property fails, hypothesis's report hook imports
``hypothesis.extra._patching``, and where ``libcst`` is installed that
import issues ``mypy_extensions.TypedDict``'s ``DeprecationWarning``.  Under
``-W error`` the warning ends the session in INTERNALERROR: the falsifying
example is never printed and the later tests never run.  Importing the
module here, ignoring that one warning, keeps a failing property an
ordinary test failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the hook's import fails quietly, no warning
        pass
