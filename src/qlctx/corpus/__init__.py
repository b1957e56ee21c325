"""Bundled machine-readable diagrams and reference states; what each one is
is told in ``data/README.md``.

Importing this module loads neither ``logic`` nor numpy: the pure-Python
diagram parser is imported when a diagram entry is loaded, and the numpy
state reader when a state entry is loaded.  ``catalog_text`` only reads a
state's file.  The package ships as plain files, read by path with
``open``: ``importlib.resources`` would load ``typing`` and ``tempfile``
into every command that reads the corpus.
"""

from __future__ import annotations

import os

DIAGRAM_IDS = ("fig1", "fig2a", "fig2b", "fig3")  # data/<id>.gd
STATE_IDS = ("psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm")  # data/<id>.qs


def data_path(entry_id: str) -> str:
    """Filesystem path of a corpus file; ValueError for an unknown id."""
    if entry_id in DIAGRAM_IDS:
        filename = f"{entry_id}.gd"
    elif entry_id in STATE_IDS:
        filename = f"{entry_id}.qs"
    else:
        raise ValueError(f"unknown corpus id {entry_id!r}")
    return os.path.join(os.path.dirname(__file__), "data", filename)


def _read(entry_id: str) -> str:
    with open(data_path(entry_id), encoding="utf-8") as f:
        return f.read()


def catalog_text(name: str) -> str:
    """The .qs text of catalog state ``name``; ValueError naming the
    catalog for any other name."""
    if name not in STATE_IDS:
        raise ValueError(
            f"unknown catalog state {name!r}; choose from {STATE_IDS}"
        )
    return _read(name)


def load(entry_id: str):
    """Parse a corpus entry into a GreechieDiagram or MultipartiteState."""
    text = _read(entry_id)
    if entry_id in DIAGRAM_IDS:
        from ..logic import parse_diagram

        return parse_diagram(text)
    from ..states import read_qs

    return read_qs(text)
