"""Fixture: a name imported and never used (IMP001)."""

import json
from collections import OrderedDict, deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["OrderedDict", "last"]


def last(items: "Path") -> list:
    return list(deque(items, maxlen=1))
