"""The flat in-place optimizers against the per-tensor updates they replace:
the same bits after every step, from the same gradient vector, which a step
only reads."""

import numpy as np
import pytest

from rhetseg.train import TrainConfig, _views, build_model, make_optimizer

SPEC = {"kind": "hash", "dim": 12, "ngram_orders": [1, 2], "seed": 0}


class ReferenceAdam:
    """One Adam update per named tensor, each with its own moment arrays."""

    def __init__(self, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceSgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, p in params.items():
            p -= self.lr * grads[name]


LAYOUTS = {
    "bilstm_crf_mtl": dict(context_kind="bilstm", head="crf", mtl=True, lstm_hidden=5),
    "attention_softmax": dict(context_kind="attention", head="softmax", mtl=False, attention_layers=2),
}


def reference_for(cfg):
    if cfg.optimizer == "sgd":
        return ReferenceSgd(cfg.learning_rate)
    return ReferenceAdam(cfg.learning_rate, 0.9, 0.999, 1e-8)  # Kingma & Ba's suggested constants


def random_grads(rng, grads):
    """Overwrite the gradient views with entries that range over 1e-6 .. 1e2
    in magnitude, some of them zero, drawn in an order unlike the layout."""
    for name in rng.permutation(list(grads)):
        shape = grads[name].shape
        g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 2.0, size=shape)
        g[rng.random(shape) < 0.05] = 0.0
        grads[name][...] = g


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_flat_step_equals_per_tensor_reference(layout, optimizer):
    cfg = TrainConfig(optimizer=optimizer, learning_rate=3e-3, **LAYOUTS[layout])
    bundle = build_model(cfg, SPEC, np.random.default_rng(1))
    blocks = bundle.parameter_blocks()
    reference = {name: tensor.copy() for name, tensor in blocks.items()}
    flat_opt = make_optimizer(cfg, bundle.layout)
    ref_opt = reference_for(cfg)
    rng = np.random.default_rng(7)
    grads = _views(bundle.grad, bundle.layout)
    for _ in range(60):
        random_grads(rng, grads)
        flat_opt.step(bundle.flat, bundle.grad)
        ref_opt.step(reference, grads)
        for name, tensor in blocks.items():
            assert np.array_equal(tensor, reference[name]), name
    assert set(blocks) == set(reference)


def test_step_updates_the_bundle_tensors_in_place():
    cfg = TrainConfig(**LAYOUTS["bilstm_crf_mtl"])
    bundle = build_model(cfg, SPEC, np.random.default_rng(1))
    Wx = bundle.params["bilstm"]["fwd.Wx"]
    before = Wx.copy()
    bundle.grad[:] = 1.0
    make_optimizer(cfg, bundle.layout).step(bundle.flat, bundle.grad)
    assert bundle.params["bilstm"]["fwd.Wx"] is Wx
    assert np.all(Wx < before)
    assert np.shares_memory(Wx, bundle.flat)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_step_leaves_the_gradient_vector_unchanged(optimizer):
    cfg = TrainConfig(optimizer=optimizer, **LAYOUTS["bilstm_crf_mtl"])
    bundle = build_model(cfg, SPEC, np.random.default_rng(1))
    bundle.grad[:] = np.random.default_rng(3).standard_normal(bundle.grad.shape)
    before = bundle.grad.copy()
    opt = make_optimizer(cfg, bundle.layout)
    for _ in range(3):
        opt.step(bundle.flat, bundle.grad)
        assert np.array_equal(bundle.grad, before)
