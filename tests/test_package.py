"""What importing concirc builds."""

import importlib
import pkgutil

import concirc
from concirc import jets


def test_jet2_is_the_only_dataclass():
    # dataclasses generates and execs each class's methods at import time,
    # a cost every CLI process pays before its first point.
    modules = [importlib.import_module("concirc." + info.name)
               for info in pkgutil.iter_modules(concirc.__path__)]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    assert {cls for cls in classes
            if hasattr(cls, "__dataclass_fields__")} == {jets.Jet2}
