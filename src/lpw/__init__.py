"""Weighted Littlewood-Paley analysis on periodic grids.  Each name is
imported from the module that defines it."""

# the one re-export: perfbench's tracer test reads vars(lpw)["band_decompose"]
from .lpaley import band_decompose
