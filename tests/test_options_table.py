"""DESIGN.md's "Options" table and the option fields in the code agree.

Every field of ``SplatonicConfig`` and ``AlgorithmConfig``, and every
keyword option of ``SceneFitter`` and ``HealthMonitor``, has a row; every
row names one of them.
A row cell lists names as ``Owner.field`` (``.field`` continues the last
owner) or ``Owner(field=)``.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core import SplatonicConfig
from repro.fit import SceneFitter
from repro.obs import HealthMonitor
from repro.slam import AlgorithmConfig

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
_NAME = re.compile(r"(\w*)\.(\w+)|(\w+)\((\w+)=\)")


def table_options():
    text = DESIGN.read_text()
    section = text.split("\n## Options\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        owner = None
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            match = _NAME.fullmatch(token)
            assert match, f"unreadable option name {token!r} in DESIGN.md"
            dotted_owner, dotted, called_owner, called = match.groups()
            owner = dotted_owner or called_owner or owner
            assert owner, f"{token!r} continues no owner in DESIGN.md"
            names.add((owner, dotted or called))
    return names


def code_options():
    names = {(record.__name__, f.name)
             for record in (SplatonicConfig, AlgorithmConfig)
             for f in dataclasses.fields(record)}
    names |= {(owner.__name__, p.name)
              for owner in (SceneFitter, HealthMonitor)
              for p in inspect.signature(owner).parameters.values()
              if p.default is not p.empty}
    return names


def test_every_option_has_a_row():
    missing = code_options() - table_options()
    assert not missing, f"options with no DESIGN.md row: {sorted(missing)}"


def test_every_row_names_an_option():
    stale = table_options() - code_options()
    assert not stale, f"DESIGN.md rows naming no option: {sorted(stale)}"
