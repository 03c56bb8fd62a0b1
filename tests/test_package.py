import subprocess
import sys
import types

import mediant
from mediant import matrices, rational, shadows, topograph, trees

# mediant.stern is the function; the module is reached through sys.modules
_MODULES = (matrices, rational, shadows, sys.modules["mediant.stern"], topograph, trees)


def test_package_all_is_the_union_of_the_module_lists():
    union = {name for module in _MODULES for name in module.__all__}
    assert len(mediant.__all__) == len(set(mediant.__all__))
    assert set(mediant.__all__) == union | {"__version__"}
    assert {"MAX_LOCATE_STEPS", "validate_path"} <= set(mediant.__all__)


def test_every_listed_name_resolves_to_its_module_object():
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(mediant, name) is getattr(module, name), name
    assert mediant.__version__ == "0.1.0"


def test_names_shared_with_modules_are_the_functions():
    assert isinstance(mediant.stern, types.FunctionType)
    assert isinstance(mediant.mediant, types.FunctionType)
    assert mediant.stern(5) == 3
    half, one = mediant.ExtendedRational(1, 2), mediant.ExtendedRational(1)
    assert str(mediant.mediant(half, one)) == "2/3"


def test_imports_raise_no_warning():
    code = "import mediant, mediant.cli; from mediant import *"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
