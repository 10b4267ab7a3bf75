import numpy as np
import pytest

from evomtl.assembly import SoftOrderingNet
from evomtl.dataset import split_fixed, synth_generate
from evomtl.errors import NumericError
from evomtl.genome import GlobalHyper, LayerGene
from evomtl.training import evaluate_accuracy


def test_evaluate_accuracy_raises_on_nan_logits():
    spec = split_fixed(synth_generate(3, 2, 3, 8, 0.1), 3)
    gene = LayerGene(2, "conv2d", "relu", 3, 8, 0.0, 0.0)
    net = SoftOrderingNet([gene], [t.task_id for t in spec.tasks], [3, 3], 8,
                          GlobalHyper(final_layer_filters=8),
                          np.random.default_rng(5))
    _, mean = evaluate_accuracy(net, spec, "val")
    assert 0.0 <= mean <= 1.0
    for p in net.params():
        p.value[...] = np.nan
    with pytest.raises(NumericError):
        evaluate_accuracy(net, spec, "val")
