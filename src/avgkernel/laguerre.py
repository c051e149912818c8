"""The Laguerre recurrence lives in avgkernel.rules, its only caller.  This
alias keeps the name perfbench/tracer.py wraps; it goes with the tracer
(ROADMAP item 12), and nothing in the package imports it."""
from .rules import _recurrence_scaled  # noqa: F401
