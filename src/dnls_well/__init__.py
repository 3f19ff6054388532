"""Soliton and potential-well toolkit for a derivative NLS with quintic term.

The package root imports nothing: each module loads only what it uses, so
that a process pays for numpy only when it runs code that needs it.
"""

__version__ = "0.1.0"
