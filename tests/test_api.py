"""The library's settable surface: every defaulted public parameter, listed.

A parameter with a default is an option; one that no caller varies is a
constant in disguise. This pins the full list, so that adding an option (or
dropping one) is a reviewed change of this file.
"""
import importlib
import inspect
import pkgutil

import horowave

# every horowave module with an __all__, so that a new module is listed too
MODULES = [m.name for m in pkgutil.iter_modules(horowave.__path__)
           if hasattr(importlib.import_module(f"horowave.{m.name}"), "__all__")]

EXPECTED = {
    ("geometry", "GroupElement", "_compositions"),
    ("waves", "spherical", "M"),
    ("transform", "GridSpec", "n_r"),
    ("transform", "GridSpec", "n_theta"),
    ("transform", "GridSpec", "R"),
    ("moire", "LambdaWindow", "lo"),
    ("moire", "LambdaWindow", "hi"),
    ("moire", "MoireReport", "oscillation_amplitude"),
    ("moire", "MoireReport", "divergent"),
    ("moire", "moire_weak", "taper"),
    ("moire", "convergence_study", "kind"),
    ("euclid", "line_moire_array", "m"),
    ("tapers", "TaperSpec", "kind"),
    ("tapers", "TaperSpec", "width"),
    ("checks", "run_suites", "names"),
    ("cli", "main", "argv"),
}


def _defaulted(name, obj):
    """(owner, parameter) for each defaulted parameter of a public callable.

    A class contributes its constructor (a dataclass's fields with defaults)
    and each public method.
    """
    targets = [(name, obj)]
    if inspect.isclass(obj):
        targets += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(fn)]
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
