"""The fixed-point report's float reference, computed only when read.

``FixedPointReport.reference_predictions`` and ``max_membrane_drift``
need a float forward pass over the run's images.  Serving never reads
them, so a prediction must not pay for that pass; every reader that
does (the simulate stage, the tests, pickling, the result cache) must
get the values an eager per-chunk computation gives.
"""

import pickle

import numpy as np
import pytest

from repro.api import PipelineContext, get_stage
from repro.api.config import ExperimentConfig, SimulateConfig
from repro.cat.convert import ConvertedSNN
from repro.engine import PipelineRunner, create_scheme, executor
from repro.engine.cache import decode_result, encode_result
from repro.serve import InferenceSession, ModelArtifact


def eager_reference(snn, x, max_batch):
    """Per-chunk (reference predictions, drift) as a run computes them."""
    preds, drifts = [], []
    for start in range(0, len(x), max_batch):
        chunk = x[start:start + max_batch]
        output = executor.run_pipeline(create_scheme("fixed-point", snn),
                                       chunk)
        reference = snn.forward_value(chunk)
        preds.append(reference.argmax(axis=1))
        drifts.append(float(np.max(np.abs(output - reference))))
    return np.concatenate(preds), max(drifts)


@pytest.fixture()
def no_float_pass(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("float reference computed")

    monkeypatch.setattr(ConvertedSNN, "forward_value", refuse)


def test_session_predict_skips_the_float_pass(tmp_path, converted_micro,
                                              tiny_dataset, no_float_pass):
    bundle = ModelArtifact.save(tmp_path / "bundle", converted_micro,
                                name="micro", scheme="ttfs-closed-form",
                                backend="dense", max_batch=3,
                                input_shape=(3, 8, 8))
    session = InferenceSession(bundle, scheme="fixed-point")
    prediction = session.predict(tiny_dataset.test_x[:8])
    assert prediction.scheme == "fixed-point"
    assert len(prediction.predictions) == 8


def test_deferred_fields_equal_the_eager_per_chunk_values(converted_micro,
                                                         tiny_dataset):
    x = tiny_dataset.test_x[:8]
    result = PipelineRunner(create_scheme("fixed-point", converted_micro),
                            max_batch=3).run(x)
    preds, drift = eager_reference(converted_micro, x, 3)
    np.testing.assert_array_equal(result.reference_predictions, preds)
    assert result.max_membrane_drift == drift
    assert result.agreement == float((result.predictions == preds).mean())


def test_pickle_and_cache_carry_computed_values(converted_micro,
                                                tiny_dataset, monkeypatch):
    x = tiny_dataset.test_x[:4]
    fresh = create_scheme("fixed-point", converted_micro).run
    want = fresh(x)
    expected = (want.reference_predictions, want.max_membrane_drift)
    pickled = pickle.dumps(fresh(x))
    encoded = encode_result(fresh(x))
    monkeypatch.setattr(ConvertedSNN, "forward_value", None)
    for carried in (pickle.loads(pickled), decode_result(*encoded)):
        np.testing.assert_array_equal(carried.predictions, want.predictions)
        np.testing.assert_array_equal(carried.reference_predictions,
                                      expected[0])
        assert carried.max_membrane_drift == expected[1]


def test_simulate_stage_reports_the_reference(converted_micro,
                                              tiny_dataset):
    config = ExperimentConfig(simulate=SimulateConfig(
        scheme="fixed-point", max_batch=3, limit=8))
    ctx = PipelineContext(config=config, dataset=tiny_dataset,
                          snn=converted_micro)
    get_stage("simulate", config).run(ctx)
    metrics = ctx.metrics["simulate"]
    preds, drift = eager_reference(converted_micro,
                                   tiny_dataset.test_x[:8], 3)
    assert metrics["max_membrane_drift"] == drift
    assert metrics["agreement"] == float(
        (ctx.sim_result.predictions == preds).mean())
