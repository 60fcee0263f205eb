"""The traced benchmark run can wrap every function it names and puts each
one back afterwards, so a rename or deletion in the package that the traced
run depends on fails here rather than in the benchmark."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracer  # noqa: E402

from kppfront import ansatz, cli, frontfit, heatkernel, io, sim, special, waves  # noqa: E402

OWNERS = (ansatz, cli, frontfit, heatkernel, io, sim, special, waves, sim.Stepper, waves.WaveProfile)


def attributes() -> dict:
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_instrument_wraps_and_restores_every_attribute():
    before = attributes()
    with tracer.Patches() as patches:
        layers.instrument(tracer.Tracer(), patches)
        wrapped = {key for key, value in attributes().items() if value is not before[key]}
    assert {("kppfront.heatkernel", "v_dirichlet"), ("kppfront.heatkernel", "sweep_to_csv"),
            ("Stepper", "step_weighted")} <= wrapped
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
