"""Bundled machine-readable diagrams and reference states.

Importing this module loads neither ``logic`` nor numpy: the pure-Python
diagram parser is imported when a diagram entry is loaded, and the numpy
state reader when a state entry is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # "diagram" | "state"
    source: str
    filename: str


ENTRIES = {
    e.id: e
    for e in (
        CorpusEntry(
            "fig1", "diagram",
            "two tripods interlinked in a single leg (five observables)",
            "fig1.gd",
        ),
        CorpusEntry(
            "fig2a", "diagram",
            "chain of three tripods, middle one linked to each neighbour",
            "fig2a.gd",
        ),
        CorpusEntry(
            "fig2b", "diagram",
            "triangle of three pairwise interlinked tripods "
            "(classically consistent, not realizable in dimension 3)",
            "fig2b.gd",
        ),
        CorpusEntry(
            "fig3", "diagram",
            "two Kochen-Specker ten-point wheel gadgets spliced at three "
            "atoms (the Gamma_3 configuration)",
            "fig3.gd",
        ),
        CorpusEntry(
            "psi2", "state", "three-term two-site spin-1 singlet", "psi2.qs"
        ),
        CorpusEntry(
            "psi3", "state", "six-term three-site spin-1 singlet", "psi3.qs"
        ),
        CorpusEntry(
            "psi4_1", "state", "four-site spin-1 singlet, first basis state",
            "psi4_1.qs",
        ),
        CorpusEntry(
            "psi4_2", "state", "four-site spin-1 singlet, second basis state",
            "psi4_2.qs",
        ),
        CorpusEntry(
            "psi4_3", "state", "four-site spin-1 singlet, third basis state",
            "psi4_3.qs",
        ),
        CorpusEntry(
            "ghzm", "state",
            "Greenberger-Horne-Zeilinger state of three spin-1/2 quanta, "
            "Mermin form",
            "ghzm.qs",
        ),
    )
}

DIAGRAM_IDS = tuple(e.id for e in ENTRIES.values() if e.kind == "diagram")
STATE_IDS = tuple(e.id for e in ENTRIES.values() if e.kind == "state")


def _data(entry_id: str):
    """An entry and its data file; ValueError for an unknown id."""
    entry = ENTRIES.get(entry_id)
    if entry is None:
        raise ValueError(f"unknown corpus id {entry_id!r}")
    return entry, resources.files(__package__) / "data" / entry.filename


def data_path(entry_id: str) -> str:
    """Filesystem path of a corpus file (the package ships as plain files)."""
    return str(_data(entry_id)[1])


def load(entry_id: str):
    """Parse a corpus entry into a GreechieDiagram or MultipartiteState."""
    entry, data = _data(entry_id)
    text = data.read_text(encoding="utf-8")
    if entry.kind == "diagram":
        from ..logic import parse_diagram

        return parse_diagram(text)
    from ..states import read_qs

    return read_qs(text)
