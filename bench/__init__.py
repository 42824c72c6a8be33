"""The end-to-end MAD benchmark (see bench/README.md).

Everything here drives ``src/repro`` from the outside: generated inputs
in, replies out, public functions only. Nothing under ``src/`` knows
this package exists.
"""
