"""Bundled machine-readable diagrams and reference states; what each one is
is told in ``data/README.md``.

Importing this module loads neither ``logic`` nor numpy: the pure-Python
diagram parser is imported when a diagram entry is loaded, and the numpy
state reader when a state entry is loaded.
"""

from __future__ import annotations

from importlib import resources

DIAGRAM_IDS = ("fig1", "fig2a", "fig2b", "fig3")  # data/<id>.gd
STATE_IDS = ("psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm")  # data/<id>.qs


def _data(entry_id: str):
    """The data file of an entry; ValueError for an unknown id."""
    if entry_id in DIAGRAM_IDS:
        filename = f"{entry_id}.gd"
    elif entry_id in STATE_IDS:
        filename = f"{entry_id}.qs"
    else:
        raise ValueError(f"unknown corpus id {entry_id!r}")
    return resources.files(__package__) / "data" / filename


def data_path(entry_id: str) -> str:
    """Filesystem path of a corpus file (the package ships as plain files)."""
    return str(_data(entry_id))


def load(entry_id: str):
    """Parse a corpus entry into a GreechieDiagram or MultipartiteState."""
    text = _data(entry_id).read_text(encoding="utf-8")
    if entry_id in DIAGRAM_IDS:
        from ..logic import parse_diagram

        return parse_diagram(text)
    from ..states import read_qs

    return read_qs(text)
