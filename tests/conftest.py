import numpy as np
import pytest

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
