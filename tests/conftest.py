"""Shared test settings.

The ``mutants`` hypothesis profile leaves out the shrink phase: a mutant
is killed by the first failing example, and shrinking it can take half a
minute.  ``tools/mutants.py`` selects it with ``--hypothesis-profile``;
a plain test run does not load it.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
