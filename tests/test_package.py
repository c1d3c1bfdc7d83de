import simon_coherence
from simon_coherence import closed_forms, measures, recovery, simon, states


def test_every_public_name_resolves_once():
    names = simon_coherence.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(simon_coherence, name) is not None, name


def test_package_exports_every_module_list():
    modules = (closed_forms, measures, recovery, simon, states)
    expected = {"TOL", "Tolerances"}.union(*(module.__all__ for module in modules))
    assert set(simon_coherence.__all__) == expected
