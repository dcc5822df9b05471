import factlaw


def test_every_export_resolves_once():
    names = factlaw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(factlaw, name)]
    assert missing == []
