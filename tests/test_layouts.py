"""Layouts that are neither co-located nor spread, read as config data.

Two of them: unequal halves (the magic comb of 3 moving, the comb of 2 fixed)
and a partly spread moving group (offsets 0, 0 and pi; the comb of 2 fixed).
No closed form covers either, so the routes check each other: the path sum
against the permanent, and the speckle Monte Carlo against the path sum.
"""

import json
import math

import numpy as np
import pytest

from thermalnoon.analytic import closed_form
from thermalnoon.cli import _fringe_sign, main
from thermalnoon.curves import default_grid
from thermalnoon.geometry import DetectorLayout, SourceArray, magic_positions
from thermalnoon.pathsum import correlation_pathsum, correlation_permanent
from thermalnoon.speckle import SpeckleConfig, simulate_curve

CUSTOM_LAYOUTS = {
    "unequal-halves": {
        "fixed_phases": list(magic_positions(2)),
        "moving_offsets": list(magic_positions(3)),
    },
    "partly-spread": {
        "fixed_phases": list(magic_positions(2)),
        "moving_offsets": [0.0, 0.0, math.pi],
    },
}


@pytest.fixture(params=list(CUSTOM_LAYOUTS.values()), ids=list(CUSTOM_LAYOUTS))
def layout(request):
    return DetectorLayout.from_dict(request.param)


def custom_config(layout, **kwargs):
    return SpeckleConfig(sources=SourceArray(), layout=layout, **kwargs)


def test_layout_is_custom(layout):
    assert (layout.m1, layout.m2) == (3, 2)
    assert layout.moving_kind == "custom"


@pytest.mark.parametrize(
    "sources",
    [SourceArray(), SourceArray(nbar=(0.5, 2.0)), SourceArray.equidistant(3)],
    ids=["two", "unequal", "three"],
)
def test_pathsum_matches_permanent(layout, sources):
    for delta1 in (0.0, 0.9, 2.5, 4.4, 6.1, 9.0):
        phases = layout.detector_phases(delta1)
        direct = correlation_pathsum(sources, phases)
        assert correlation_permanent(sources, phases) == pytest.approx(
            direct, rel=1e-9
        )


def test_speckle_matches_pathsum(layout):
    curve = simulate_curve(custom_config(layout, frames=20_000, seed=11))
    exact = np.array(
        [correlation_pathsum(SourceArray(), layout.detector_phases(d)) for d in curve.grid]
    )
    z = np.abs(curve.values - exact) / curve.stderr
    assert z.max() <= 4.0


def test_roundtrip_through_json(layout):
    config = custom_config(layout, frames=1000, seed=3)
    restored = SpeckleConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored.layout == layout
    assert DetectorLayout.from_dict(layout.to_dict()) == layout


def test_no_closed_form_fringe_sign(layout):
    assert closed_form(layout) is None
    config = custom_config(layout, frames=1000, seed=3)
    assert _fringe_sign(config, layout.m2) is None


def test_speckle_command_runs_a_custom_config(tmp_path, layout):
    config = custom_config(layout, frames=2000, seed=3, grid=default_grid(61))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "run.csv"
    assert main(["speckle", "--config", str(path), "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["parity_ok"] is None
    assert sidecar["frequency"] == layout.m2
