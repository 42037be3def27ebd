"""Fixture: non-atomic artifact writes (BF404)."""

import json
from pathlib import Path


def tearable_write(path, payload):
    with open(path, "w") as fh:              # BF404: torn on crash
        json.dump(payload, fh)


def tearable_write_text(path, text):
    Path(path).write_text(text)              # BF404: in-place, non-atomic


def read_is_fine(path):
    with open(path) as fh:                   # clean: reads cannot tear
        return fh.read()
