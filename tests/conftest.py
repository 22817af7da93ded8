import numpy as np
import pytest

from csi_tcn import csi_data, dsp
from csi_tcn.cli import _STAGING_MARK


@pytest.fixture(autouse=True)
def no_staging_left(request):
    """Fail any test that leaves a CLI staging directory under its tmp_path:
    `synth`, `preprocess` and `augment` must rename their outputs into
    `--out` or remove the staging directory, whether they succeed or fail."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is not None:
        left = sorted(str(p.relative_to(tmp)) for p in tmp.rglob(f"*{_STAGING_MARK}*"))
        if left:
            pytest.fail(f"staging directories left behind: {left}")


def build_dataset(
    classes: int = 3,
    samples_per_class: int = 6,
    n_p: int = 128,
    n_s: int = 12,
    seed: int = 0,
    levels: int = 2,
    **spec_kwargs,
):
    """Synthesize and preprocess a small labelled dataset in memory."""
    spec = csi_data.SyntheticSpec(
        classes=classes,
        samples_per_class=samples_per_class,
        n_p=n_p,
        n_s=n_s,
        seed=seed,
        **spec_kwargs,
    )
    filt = dsp.FilterSpec()
    wav = dsp.WaveletSpec(levels=levels)
    samples = []
    for c in range(classes):
        for t in range(samples_per_class):
            rec = csi_data.synthesize_recording(spec, c, t)
            samples.append(dsp.preprocess(rec, filt, wav, label=c))
    return samples


@pytest.fixture(scope="session")
def small_dataset():
    return build_dataset()


def random_recording(rng: np.random.Generator, n_t=2, n_r=3, n_p=32, n_s=8) -> csi_data.CsiRecording:
    data = rng.integers(-127, 128, size=(n_t * n_r, n_p, n_s, 2), dtype=np.int64).astype(np.int8)
    return csi_data.CsiRecording(n_t=n_t, n_r=n_r, n_p=n_p, n_s=n_s, data=data)
