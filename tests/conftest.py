import base64

import numpy as np
import pytest

from dbtune import predict
from dbtune.ingest import Schema, WorkloadTable
from dbtune.predict import StandardScaler


@pytest.fixture
def tiny_schema():
    return Schema(
        knob_names=("k0", "k1"),
        metric_names=("m0", "m1"),
        latency_name="latency",
        workload_id_name="workload_id",
    )


def make_table(wid, knobs, metrics, latency, schema):
    return WorkloadTable(
        workload_id=wid,
        knobs=np.asarray(knobs, dtype=float),
        metrics=np.asarray(metrics, dtype=float),
        latency=np.asarray(latency, dtype=float),
        schema=schema,
    )


def identity_scaler(schema, metric_names=None):
    metrics = schema.metric_names if metric_names is None else metric_names
    n = schema.n_knobs + len(metrics)
    return StandardScaler(schema.knob_names, metrics, np.zeros(n), np.ones(n))


def width_scaler(width):
    """An identity scaler of `width` features, all of them metrics: what
    save_model stores beside a model fitted on bare feature arrays."""
    return StandardScaler((), tuple(f"m{i}" for i in range(width)),
                          np.zeros(width), np.ones(width))


def decode_arrays(doc: dict) -> dict:
    """A model.json document with each packed array decoded, read by this
    decoder of the format rather than the loader's: a writable numpy array
    of the stored dtype and shape."""
    return {key: np.frombuffer(base64.b64decode(value["data"]), value["dtype"])
            .reshape(value["shape"]).copy()
            if isinstance(value, dict) and set(value) == {"dtype", "shape", "data"} else value
            for key, value in doc.items()}


def arrays(edit):
    """A model.json edit that takes the document with its arrays decoded
    (decode_arrays); every array left in it is packed again, as its dtype."""
    def on_doc(doc):
        decoded = decode_arrays(doc)
        edit(decoded)
        doc.clear()
        doc.update({key: predict._pack(value, value.dtype.str)
                    if isinstance(value, np.ndarray) else value
                    for key, value in decoded.items()})
    return on_doc
