"""iterlog: exact renewal calculus, branching-generation Monte Carlo and random
recursive tree profiles, verified against closed forms and exact tables.  Each
name lives only in its module: ``from iterlog.renewal import renewal_table``."""

__version__ = "0.1.0"
