"""The library's settable surface: every defaulted public parameter, listed.

A parameter with a default is an option; one that no caller varies is a
constant in disguise. This pins the full list, so that adding an option (or
dropping one) is a reviewed change of this file.
"""
import importlib
import inspect
import pkgutil
from dataclasses import dataclass

import horowave

# every horowave module with an __all__, so that a new module is listed too
MODULES = [m.name for m in pkgutil.iter_modules(horowave.__path__)
           if hasattr(importlib.import_module(f"horowave.{m.name}"), "__all__")]

EXPECTED = {
    ("moire", "LambdaWindow", "lo"),
    ("moire", "LambdaWindow", "hi"),
    ("moire", "moire_weak", "taper"),
    ("euclid", "line_moire_array", "m"),
    ("checks", "run_suites", "names"),
    ("cli", "main", "argv"),
}


def _defaulted(name, obj):
    """(owner, parameter) for each defaulted parameter of a public callable.

    A class contributes its constructor (a dataclass's fields with defaults)
    and each public method, classmethods and staticmethods included.
    """
    targets = [(name, obj)]
    if inspect.isclass(obj):
        for attr, member in vars(obj).items():
            fn = getattr(member, "__func__", member)  # a classmethod's or staticmethod's
            if not attr.startswith("_") and inspect.isfunction(fn):
                targets.append((f"{name}.{attr}", fn))
    for owner, fn in targets:
        for p in inspect.signature(fn).parameters.values():
            if p.default is not inspect.Parameter.empty:
                yield owner, p.name


def test_defaulted_public_parameters_are_the_listed_ones():
    found = set()
    for mod in MODULES:
        module = importlib.import_module(f"horowave.{mod}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                found.update((mod, owner, p) for owner, p in _defaulted(name, obj))
    assert sorted(found - EXPECTED) == [], "new defaulted parameters"
    assert sorted(EXPECTED - found) == [], "listed parameters that are gone"


@dataclass
class _Toy:
    size: int = 3

    def scale(self, k=2):
        return k

    def _hidden(self, z=1):
        return z

    @classmethod
    def make(cls, n=1):
        return cls(n)

    @staticmethod
    def helper(x, y=0):
        return x + y

    @property
    def area(self):
        return self.size


def test_walker_sees_every_kind_of_member():
    assert set(_defaulted("_Toy", _Toy)) == {
        ("_Toy", "size"), ("_Toy.scale", "k"), ("_Toy.make", "n"), ("_Toy.helper", "y"),
    }
