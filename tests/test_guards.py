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


@pytest.mark.parametrize(
    "var", ["CAYLEYDIFF_MAX_GROUP_ORDRE", "CAYLEYDIFF_MAX_HYPERCUBE_DIM"]
)
def test_unknown_override_name_is_a_user_error(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "12")
    guards.limit("group_order")  # hot-path reads do not scan the environment
    assert cli.run(["group", "--group", "cyclic:3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: BadGuardOverride: {var} ")
