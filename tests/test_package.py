import types

import tubal
from tubal import algebra, analysis, bench, measurement, rng, solver

MODULES = (algebra, analysis, bench, measurement, solver)


def test_package_exports_each_modules_public_list_once():
    # each module's __all__ is the one list of its public names: the
    # package's list is their concatenation, with no name twice, and each
    # name is the object its own module defines
    assert tubal.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(tubal.__all__)) == len(tubal.__all__)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(tubal, name)
            assert obj is getattr(module, name)
            assert obj.__module__ == module.__name__, name


def test_package_keeps_rng_a_submodule_and_records_its_version():
    assert isinstance(tubal.rng, types.ModuleType) and tubal.rng is rng
    assert isinstance(tubal.__version__, str) and tubal.__version__
    assert bench.__version__ is tubal.__version__
