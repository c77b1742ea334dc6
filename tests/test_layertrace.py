"""The benchmark's per-layer tracer must still install over the package.

``perfbench/layertrace.py`` wraps functions and methods by name; a rename in
``src/`` makes ``Tracer.install`` raise ``KeyError``, which otherwise shows
only in the benchmark's traced run.  The file is loaded read-only.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import random_herm_jet

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    layertrace = _load_layertrace(monkeypatch)
    for mod_name, *_ in layertrace.TARGETS:
        importlib.import_module(f"jetcontact.{mod_name}")
    from jetcontact import contact, geometry, jetcore

    mul, l_tensor = jetcore.HermJet.__mul__, geometry.L_tensor
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert contact.L_tensor is geometry.L_tensor is not l_tensor
        tracer.job = 0
        jet = random_herm_jet(2, 2, 2, 2, np.random.default_rng(0))
        geometry.K1j_recursion(jet, 2, 2)
        (jet * jet).inv()
        names = {span[0] for span in tracer.spans}
        assert {"geometry.recursions", "jetcore.mul", "jetcore.inv"} <= names
    finally:
        tracer.uninstall()
    assert jetcore.HermJet.__mul__ is mul
    assert contact.L_tensor is geometry.L_tensor is l_tensor


def test_holomorphic_jets_are_timed_under_their_own_names(monkeypatch):
    """The holomorphic members the tracer names by class (product, inverse,
    the two promotions and ``HermJet.holo_part``) each open one
    ``jetcore.holo`` span and no span of the HermJet kernel they run."""
    layertrace = _load_layertrace(monkeypatch)
    for mod_name, *_ in layertrace.TARGETS:
        importlib.import_module(f"jetcontact.{mod_name}")
    jet = random_herm_jet(2, 2, 2, 2, np.random.default_rng(0))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        holo = jet.holo_part()
        (holo * holo).inv()
        holo.as_herm(2)
        holo.adjoint_as_herm(2)
    finally:
        tracer.uninstall()
    assert [(span[0], span[3]) for span in tracer.spans] == [("jetcore.holo", -1)] * 5
