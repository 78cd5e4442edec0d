"""replint rule modules.

Importing this package registers every checker with
:data:`repro.lint.core.CHECKERS`.  To add a new rule: create a module
here, subclass :class:`repro.lint.core.Checker`, decorate it with
``@register_checker``, and import the module below (registration order
determines display order).  Ids are never reused: R1–R3, R9 and R12
named rules whose property now holds by construction (DESIGN §6).
"""

from . import mutation  # noqa: F401  R4
from . import hygiene  # noqa: F401  R5
from . import api_docs  # noqa: F401  R6
from . import atomic_io  # noqa: F401  R7
from . import wallclock  # noqa: F401  R8
from . import concurrency  # noqa: F401  R10
from . import service  # noqa: F401  R11
from . import dc_routing  # noqa: F401  R13

__all__ = [
    "mutation",
    "hygiene",
    "api_docs",
    "atomic_io",
    "wallclock",
    "concurrency",
    "service",
    "dc_routing",
]
