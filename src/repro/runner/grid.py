"""Grid/spec model for experiment execution.

The paper's evaluation is a stack of parameter grids — Table IV is
13 vendors x 3 sizes, Fig 6 is 13 vendors x 25 sizes, Table V is 11
FCDN x BCDN cascades, Fig 7 is m = 1..15 flood intensities.  Every cell
is an independent, deterministic measurement, so the work is described
as data instead of inline loops.

:class:`ExperimentCell` is that description: a named experiment kind
plus a key (the grid coordinates) plus extra keyword parameters, all
hashable and picklable so the checkpoint can digest and journal them.
:class:`ExperimentGrid` is an ordered, duplicate-free sequence of cells;
**grid order defines result order**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple


#: Scalar cell coordinates — everything here must hash, pickle, and
#: compare by value so cells can key dictionaries across processes.
Key = Tuple[Any, ...]


@dataclass(frozen=True)
class ExperimentCell:
    """One grid point: an experiment kind and its coordinates.

    ``experiment`` names a cell function in the
    :mod:`repro.runner.experiments` registry; ``key`` is the coordinate
    tuple that identifies the cell within its grid (e.g. ``("akamai",
    10485760)``); ``params`` carries extra keyword arguments for the
    cell function as a sorted tuple of pairs, keeping the cell hashable.
    """

    experiment: str
    key: Key
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, experiment: str, key: Iterable[Any], **params: Any) -> "ExperimentCell":
        return cls(
            experiment=experiment,
            key=tuple(key),
            params=tuple(sorted(params.items())),
        )

    def kwargs(self) -> Dict[str, Any]:
        """The extra parameters as a keyword-argument dict."""
        return dict(self.params)

    @property
    def label(self) -> str:
        """Human-readable cell name, e.g. ``sbr[akamai, 10485760]``."""
        coords = ", ".join(str(part) for part in self.key)
        return f"{self.experiment}[{coords}]"


class ExperimentGrid:
    """An ordered, duplicate-free collection of cells.

    Duplicate cells are dropped on construction (first occurrence wins):
    ``run_all`` builds one SBR grid serving both Table IV and Fig 6, and
    their size axes overlap.  Order is preserved — it is the contract the
    executor merges results back into.
    """

    __slots__ = ("name", "_cells", "_index_by_cell")

    def __init__(self, name: str, cells: Iterable[ExperimentCell] = ()) -> None:
        self.name = name
        self._cells: List[ExperimentCell] = []
        self._index_by_cell: Dict[ExperimentCell, int] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: ExperimentCell) -> None:
        """Append ``cell`` unless an identical cell is already present."""
        if cell in self._index_by_cell:
            return
        self._index_by_cell[cell] = len(self._cells)
        self._cells.append(cell)

    def extend(self, cells: Iterable[ExperimentCell]) -> None:
        for cell in cells:
            self.add(cell)

    @property
    def cells(self) -> Tuple[ExperimentCell, ...]:
        return tuple(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[ExperimentCell]:
        return iter(self._cells)

    def __contains__(self, cell: object) -> bool:
        return cell in self._index_by_cell

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentGrid):
            return NotImplemented
        return self.name == other.name and self._cells == other._cells

    def __repr__(self) -> str:
        return f"ExperimentGrid({self.name!r}, {len(self._cells)} cells)"
