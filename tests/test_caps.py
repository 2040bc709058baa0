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

