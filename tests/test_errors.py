from __future__ import annotations

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import bornlab
from bornlab.emergence import born_limit
from bornlab.errors import PreconditionError
from bornlab.exactlin import solve_exact
from bornlab.hilbert import MeasureTable, Projector, StateVector
from bornlab.nogo import FrameAssignment

BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def raised_name(node: ast.Raise) -> str | None:
    """The bare name a ``raise`` statement raises, called or not."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


class TestTypedRaises:
    def test_no_builtin_exception_is_raised_in_the_package(self):
        # every error the package raises is a BornLabError (or, in the CLI,
        # a ScenarioError), so ``cli.main`` maps it to an exit code
        found = []
        for path in sorted(Path(bornlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Raise) and raised_name(node) in BUILTIN_EXCEPTIONS:
                    found.append(f"{path.name}:{node.lineno} raises {raised_name(node)}")
        assert found == []

    def test_the_guard_sees_a_builtin_raise(self):
        tree = ast.parse("def f(x):\n    raise ValueError(x)\n")
        raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
        assert [raised_name(node) for node in raises] == ["ValueError"]

    def test_measure_value_outside_unit_interval(self):
        with pytest.raises(PreconditionError, match=r"outside \[0,1\]"):
            MeasureTable({Projector.from_cells([0], 2): 1.5})

    def test_frame_value_outside_unit_interval(self):
        with pytest.raises(PreconditionError, match=r"outside \[0,1\]"):
            FrameAssignment().set(0, -0.5)

    def test_born_limit_needs_a_positive_tolerance(self):
        psi = StateVector([np.sqrt(0.3), np.sqrt(0.7)])
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            born_limit(psi, Projector.from_cells([0], 2), 0.0)

    def test_exact_solve_needs_a_row(self):
        with pytest.raises(PreconditionError, match="no constraints given"):
            solve_exact([], [])
