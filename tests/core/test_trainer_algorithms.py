"""The trainers against a line-by-line transcription of the paper's algorithms.

Algorithm 1 (ATNN) and Algorithm 2 (multi-task ATNN) are written out
below as plain loops over the public model API: per batch, one optimizer
step on the encoder-path task loss, then one on the generator-path task
loss plus ``lambda * L_s`` against the detached encoder vectors.  Each
trainer's fit must equal its transcription exactly: every history value
and every entry of the final ``state_dict``.
"""

import numpy as np
import pytest

from repro.core import ATNN, ATNNTrainer, MultiTaskATNN, MultiTaskTrainer
from repro.data import train_test_split
from repro.metrics import roc_auc
from repro.nn.losses import binary_cross_entropy, mean_squared_error, similarity_loss
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor, no_grad

EPOCHS = 2
BATCH_SIZE = 256
LR = 3e-3
GRAD_CLIP = 5.0
SEED = 4


def _step(optimizer, loss):
    optimizer.zero_grad()
    loss.backward()
    Optimizer.clip_gradients(optimizer.parameters, GRAD_CLIP)
    optimizer.step()


def algorithm_1(model, train, valid, lam):
    """Alternate ``L_i``, then ``L_g + lam * L_s``, on every batch."""
    rng = np.random.default_rng(SEED)
    optimizer = Adam(model.parameters(), lr=LR)
    model.train()
    records = []
    for _ in range(EPOCHS):
        loss_i, loss_g, loss_s = [], [], []
        for batch in train.iter_batches(BATCH_SIZE, rng=rng):
            features, clicks = batch.features, batch.label("ctr")

            l_i = binary_cross_entropy(model(features), clicks)
            _step(optimizer, l_i)

            with no_grad():
                encoded = model.encoded_item_vectors(features)
            generated = model.generated_item_vectors(features)
            l_g = binary_cross_entropy(
                model.scoring_head(generated, model.user_vectors(features)), clicks
            )
            l_s = similarity_loss(generated, Tensor(encoded.data))
            _step(optimizer, l_g + lam * l_s)

            loss_i.append(l_i.item())
            loss_g.append(l_g.item())
            loss_s.append(l_s.item())
        labels = valid.label("ctr")
        records.append(
            {
                "loss_i": float(np.mean(loss_i)),
                "loss_g": float(np.mean(loss_g)),
                "loss_s": float(np.mean(loss_s)),
                "valid_auc_encoder": roc_auc(labels, model.predict_proba(valid.features)),
                "valid_auc_generator": roc_auc(
                    labels, model.predict_proba_cold_start(valid.features)
                ),
            }
        )
        model.train()
    model.eval()
    return records


def algorithm_2(model, train, valid, lambda_1, lambda_2, adversarial):
    """Alternate ``L^GMV + lambda_1 L^VpPV`` on the encoder path, then the
    same loss on the generator path plus ``lambda_2 * L_s``."""
    model.gmv_head.set_output_bias(float(train.label("gmv").mean()))
    model.vppv_head.set_output_bias(float(train.label("vppv").mean()))
    rng = np.random.default_rng(SEED)
    optimizer = Adam(model.parameters(), lr=LR)
    model.train()
    records = []
    for _ in range(EPOCHS):
        loss_r, loss_g, loss_s = [], [], []
        for batch in train.iter_batches(BATCH_SIZE, rng=rng):
            features = batch.features
            gmv, vppv = batch.label("gmv"), batch.label("vppv")

            def task_loss(item_vectors):
                groups = model.group_vectors(features)
                return mean_squared_error(
                    model.gmv_head(item_vectors, groups), gmv
                ) + lambda_1 * mean_squared_error(
                    model.vppv_head(item_vectors, groups), vppv
                )

            l_r = task_loss(model.encoded_item_vectors(features))
            _step(optimizer, l_r)
            loss_r.append(l_r.item())
            if not adversarial:
                continue

            with no_grad():
                encoded = model.encoded_item_vectors(features)
            generated = model.generated_item_vectors(features)
            l_g = task_loss(generated)
            l_s = similarity_loss(generated, Tensor(encoded.data))
            _step(optimizer, l_g + lambda_2 * l_s)
            loss_g.append(l_g.item())
            loss_s.append(l_s.item())
        record = {"loss_r": float(np.mean(loss_r))}
        if adversarial:
            record["loss_g"] = float(np.mean(loss_g))
            record["loss_s"] = float(np.mean(loss_s))
        for task in MultiTaskATNN.TASKS:
            predictions = model.predict(valid.features, task, cold_start=adversarial)
            record[f"valid_mae_{task}"] = float(
                np.abs(predictions - valid.label(task)).mean()
            )
        records.append(record)
        model.train()
    model.eval()
    return records


def _assert_same_fit(history, records, fitted, transcribed):
    assert history.records == records
    fitted_state, transcribed_state = fitted.state_dict(), transcribed.state_dict()
    assert fitted_state.keys() == transcribed_state.keys()
    for key, value in fitted_state.items():
        np.testing.assert_array_equal(value, transcribed_state[key], err_msg=key)


@pytest.fixture
def tmall_split(tiny_tmall_world):
    train, valid = train_test_split(
        tiny_tmall_world.interactions, 0.2, np.random.default_rng(0)
    )
    return train.subset(np.arange(1500)), valid.subset(np.arange(400))


@pytest.fixture
def eleme_split(tiny_eleme_world):
    return train_test_split(tiny_eleme_world.samples, 0.2, np.random.default_rng(0))


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_atnn_trainer_is_algorithm_1(tiny_tmall_world, tiny_tower_config, tmall_split, lam):
    train, valid = tmall_split

    def model():
        return ATNN(tiny_tmall_world.schema, tiny_tower_config, rng=np.random.default_rng(9))

    fitted, transcribed = model(), model()
    history = ATNNTrainer(
        lambda_similarity=lam,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        lr=LR,
        grad_clip=GRAD_CLIP,
        seed=SEED,
    ).fit(fitted, train, valid=valid)
    _assert_same_fit(
        history, algorithm_1(transcribed, train, valid, lam), fitted, transcribed
    )


@pytest.mark.parametrize("adversarial", [True, False])
def test_multitask_trainer_is_algorithm_2(
    tiny_eleme_world, tiny_tower_config, eleme_split, adversarial
):
    train, valid = eleme_split

    def model():
        return MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config, rng=np.random.default_rng(9)
        )

    fitted, transcribed = model(), model()
    history = MultiTaskTrainer(
        lambda_vppv=100.0,
        lambda_similarity=10.0,
        adversarial=adversarial,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        lr=LR,
        grad_clip=GRAD_CLIP,
        seed=SEED,
    ).fit(fitted, train, valid=valid)
    records = algorithm_2(transcribed, train, valid, 100.0, 10.0, adversarial)
    _assert_same_fit(history, records, fitted, transcribed)
