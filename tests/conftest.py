import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

STUB = str(Path(__file__).parent / "extractor_stub.py")


def stub_command(mode: str = "fixed") -> str:
    return f"{sys.executable} {STUB} {mode}"


@pytest.fixture
def popen_starts(monkeypatch):
    """Every extractor process started while the test runs, in order."""
    import featkit.extractors

    started = []
    real = featkit.extractors.subprocess.Popen

    def counting(*args, **kwargs):
        proc = real(*args, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(featkit.extractors.subprocess, "Popen", counting)
    return started


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_matrix(rng):
    from featkit.features import FeatureMatrix

    def _make(n=5, d=8, float32=True, prefix="v"):
        values = rng.normal(size=(n, d))
        if float32:
            values = values.astype(np.float32).astype(np.float64)
        ids = tuple(f"{prefix}{i}" for i in range(n))
        return FeatureMatrix(ids, values)

    return _make


def sixteen_view_rows(seed, n_classes, images_per_class, dim,
                      image_noise=1.0, view_noise=4.0):
    """Unit-norm 16-view rows of images over orthonormal class means.

    Returns ``(ids, x, labels)``: row ids ``img#v`` in image-major order,
    the (n_images*16, dim) rows, and the class of each image id.
    """
    rng = np.random.default_rng(seed)
    means = np.linalg.qr(rng.standard_normal((dim, n_classes)))[0].T
    ids, rows, labels = [], [], {}
    for i in range(n_classes * images_per_class):
        img, cls = f"img{i:03d}", i % n_classes
        base = means[cls] + image_noise * rng.standard_normal(dim) / dim**0.5
        views = base + view_noise * rng.standard_normal((16, dim)) / dim**0.5
        rows.append(views / np.linalg.norm(views, axis=1, keepdims=True))
        ids.extend(f"{img}#{v}" for v in range(16))
        labels[img] = f"c{cls}"
    return ids, np.vstack(rows), labels
