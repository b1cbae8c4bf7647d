"""Every registered backend must reproduce the engine's predictions.

The contract under test is exact: for each (backend, scheme) pair the
exported program's predictions equal the ``PipelineRunner``
predictions on the bundle's network element for element — no
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (PipelineRunner, available_schemes, create_scheme,
                          result_predictions)
from repro.targets import available_targets, export_artifact, load_target

SCHEMES = ("ttfs-closed-form", "ttfs-early", "rate", "fixed-point")
#: An alias exports as the scheme it names; it must conform too.
ALIASES = ("ttfs-timestep",)


def test_all_builtin_schemes_covered():
    # if a new scheme lands, it must be added to the conformance matrix
    assert set(SCHEMES) == set(available_schemes())


def _reference(snn, scheme, images):
    runner = PipelineRunner(create_scheme(scheme, snn), max_batch=8)
    return np.asarray(result_predictions(runner.run(images)))


@pytest.mark.parametrize("scheme", SCHEMES + ALIASES)
@pytest.mark.parametrize("target", sorted(available_targets()))
def test_backend_matches_reference_engine(tmp_path, micro_bundle,
                                          conformance_images, target,
                                          scheme):
    out = export_artifact(micro_bundle, target, tmp_path / "export",
                          scheme=scheme)
    program = load_target(out)
    got = program.predict(conformance_images)
    ref = _reference(micro_bundle.snn, scheme, conformance_images)
    np.testing.assert_array_equal(np.asarray(got), ref)


@pytest.mark.parametrize("target", sorted(available_targets()))
def test_default_scheme_comes_from_artifact(tmp_path, micro_bundle, target):
    out = export_artifact(micro_bundle, target, tmp_path / "export")
    assert load_target(out).scheme == micro_bundle.scheme


def test_netlist_interpreter_potentials_match_engine(tmp_path, micro_bundle,
                                                     conformance_images):
    """Stronger than argmax equality: raw readout potentials agree."""
    from repro.targets.pynn import execute_netlist

    import json

    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e",
                          scheme="ttfs-closed-form")
    netlist = json.loads((out / "netlist.json").read_text())
    x = conformance_images[:8]
    got = execute_netlist(netlist, x)
    scheme = create_scheme("ttfs-closed-form", micro_bundle.snn)
    ref = scheme.run(x)
    np.testing.assert_array_equal(got, np.asarray(ref.output))


def test_old_timestep_netlist_runs_closed_form(tmp_path, micro_bundle,
                                              conformance_images):
    """A netlist exported when ``ttfs-timestep`` was its own scheme (its
    cells carry ``mode: "timestep"``) runs the closed form, bitwise."""
    from repro.targets.pynn import execute_netlist

    import json

    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e",
                          scheme="ttfs-timestep")
    netlist = json.loads((out / "netlist.json").read_text())
    assert netlist["scheme"] == "ttfs-closed-form"
    netlist["scheme"] = "ttfs-timestep"
    netlist["cell_defaults"]["mode"] = "timestep"
    for pop in netlist["populations"]:
        if pop["cell_type"] == "ttfs_if":
            pop["params"]["mode"] = "timestep"
    x = conformance_images[:8]
    ref = create_scheme("ttfs-closed-form", micro_bundle.snn).run(x)
    np.testing.assert_array_equal(execute_netlist(netlist, x),
                                  np.asarray(ref.output))


def test_tile_program_cycle_report(tmp_path, micro_bundle,
                                   conformance_images):
    out = export_artifact(micro_bundle, "tile-config", tmp_path / "e",
                          scheme="fixed-point")
    report = load_target(out).cycle_report(conformance_images[0])
    assert report.total_cycles > 0
    assert report.tiles
