"""Structural checks on the package source.

Vertex relabelings and variable permutations both come from
``bits.relabel_maps``; a second module enumerating permutations would
be a second, hand-rolled map builder.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bfc"


def test_permutations_are_enumerated_only_in_bits():
    users = sorted(p.name for p in SRC.glob("*.py") if "permutations(" in p.read_text())
    assert users == ["bits.py"]
