"""Late binding of the simulator's names.

The simulator (``sram``, ``radiation``, ``protocols``) needs numpy; the
commands that only ingest, fit and predict do not, nor does loading the
variation model, which ``records`` holds.  A module that uses
simulator names binds them on first use: through ``module_getattr`` for
an attribute lookup from outside (PEP 562) and through ``bind`` at the
top of the functions that simulate.  A name that is already bound is
left as it is, so a wrapper put on a module attribute stays in the call
path.
"""

from __future__ import annotations

import importlib

# simulator name -> module of the package that defines it
SIMULATOR = {
    "MemoryArray": "sram", "sample_array": "sram",
    "AlphaSource": "radiation", "EventLog": "radiation",
    "generate_events": "radiation", "undetected_fraction": "radiation",
    "run_hold_sweep": "protocols", "run_read_sweep": "protocols",
    "run_ser_test": "protocols", "run_wlvm_sweep": "protocols",
}


def bind(namespace: dict) -> None:
    """Import each simulator name into ``namespace`` unless it is bound."""
    for name, module in SIMULATOR.items():
        if name not in namespace:
            namespace[name] = getattr(
                importlib.import_module(f"wlvmser.{module}"), name)


def module_getattr(namespace: dict):
    """A module ``__getattr__`` that binds the simulator names on first
    lookup."""
    def __getattr__(name: str):
        if name not in SIMULATOR:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(namespace)
        return namespace[name]
    return __getattr__
