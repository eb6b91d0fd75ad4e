"""Good: sweep.py is the sanctioned module for environment reads."""

import os


def flag():
    return bool(os.environ.get("CASHMERE_SECRET"))
