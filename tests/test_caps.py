import ast
from pathlib import Path

import pytest

from permcm.caps import DEFAULT_CAPS, env_overrides, get_cap


def test_overrides_are_a_copy(monkeypatch):
    monkeypatch.setenv("PERMCM_CAPS", "hochster=3")
    overrides = env_overrides()
    overrides["hochster"] = 99
    overrides["vd"] = 99
    assert get_cap("hochster") == 3
    assert get_cap("vd") == DEFAULT_CAPS["vd"]
    assert env_overrides() == {"hochster": 3}


def test_malformed_value_raises_on_every_read(monkeypatch):
    monkeypatch.setenv("PERMCM_CAPS", "hochster=3,vdd=8")
    for _ in range(3):
        with pytest.raises(ValueError, match="'vdd=8'"):
            get_cap("hochster")
        with pytest.raises(ValueError, match="'vdd=8'"):
            env_overrides()



def test_every_cap_is_read():
    # a cap is read by a get_cap or check_cap call with its name as a
    # literal, or it is the size cap of a verify sweep, which
    # run_verify reads under the theorem id; any other cap is a dead knob
    from permcm.cli import _CHECKS

    src = Path(__file__).resolve().parents[1] / "src" / "permcm"
    read = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            first = node.args[0]
            if name in ("get_cap", "check_cap") and isinstance(first, ast.Constant):
                read.add(first.value)
    assert set(DEFAULT_CAPS) - read - set(_CHECKS) == set()
