import pytest

from cayleydiff import cli, guards
from cayleydiff.errors import BadGuardOverride, SizeGuardExceeded
from cayleydiff.groups import cyclic_group


def test_unset_override_gives_the_default(monkeypatch):
    monkeypatch.delenv("CAYLEYDIFF_MAX_GROUP_ORDER", raising=False)
    assert guards.limit("group_order") == guards.DEFAULT_LIMITS["group_order"] == 1024


def test_valid_override_applies(monkeypatch):
    monkeypatch.setenv("CAYLEYDIFF_MAX_GROUP_ORDER", "8")
    assert guards.limit("group_order") == 8
    with pytest.raises(SizeGuardExceeded):
        cyclic_group(9)


@pytest.mark.parametrize("raw", ["abc", "-5", "", "1.5"])
def test_bad_override_is_a_user_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("CAYLEYDIFF_MAX_GROUP_ORDER", raw)
    with pytest.raises(BadGuardOverride) as exc_info:
        guards.limit("group_order")
    assert "CAYLEYDIFF_MAX_GROUP_ORDER" in str(exc_info.value)
    assert cli.run(["group", "--group", "cyclic:4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadGuardOverride: CAYLEYDIFF_MAX_GROUP_ORDER=")
