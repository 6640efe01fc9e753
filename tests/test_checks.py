"""One set of validators: every argument fault goes through l2mech._checks."""

from pathlib import Path

import l2mech


def test_value_errors_are_raised_only_by_checks():
    # a module that raises its own ValueError re-states a check that
    # _checks.require makes, and reports one fault where require reports all
    package = Path(l2mech.__file__).parent
    raises = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_checks.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "raise ValueError(" in line
    ]
    assert raises == []
