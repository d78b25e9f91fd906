"""Exact CM-value norms on Fricke curves, numeric cross-validation, and
Hilbert class polynomial construction."""

from .arith import factorize
from .hauptmodul import eta_quotient_qseries

__version__ = "0.1.0"
