import distyle


def test_every_exported_name_resolves():
    assert [name for name in distyle.__all__ if not hasattr(distyle, name)] == []
