"""Reference forgetting run: one rehearsal fraction per call, phase 1 trained
from scratch every time and every probe scored over its own copied subset.
``run_forgetting``'s sweep must reproduce its rows bit for bit."""

import numpy as np

from spikecnn.heads import (FeatureMatrix, fcn_accuracy, fcn_minibatches,
                            fcn_train_epoch, init_fcn_head)
from spikecnn.train import ForgetResult


def _subset(data, classes):
    mask = np.isin(data.labels, list(classes))
    return FeatureMatrix(data.values[mask], data.labels[mask])


def oracle_run_forgetting(plan, fraction, train_a, train_b, val, n_classes=10, head=None):
    """``plan``'s settings with the single rehearsal ``fraction``; trains a
    given ``head`` in place."""
    rng = np.random.default_rng(plan.seed)
    val_a = _subset(val, plan.task_a_classes)
    val_b = _subset(val, plan.task_b_classes)

    if head is None:
        head = init_fcn_head(train_a.n_cols, n_classes, rng, cost=plan.cost,
                             eta0=plan.eta0, eta_decay=plan.eta_decay, lam=plan.lam)
        for epoch in range(plan.epochs):
            fcn_train_epoch(head, train_a, plan.batch, epoch, rng)

    def probe():
        return (fcn_accuracy(head, val_a), fcn_accuracy(head, val_b),
                fcn_accuracy(head, val))

    n_rehearse = int(round(fraction * train_b.n_rows))
    if n_rehearse > train_a.n_rows:
        raise ValueError("rehearsal fraction exceeds the task-A pool")
    if n_rehearse:
        idx = rng.choice(train_a.n_rows, size=n_rehearse, replace=False)
        pool = FeatureMatrix(
            np.concatenate([train_b.values, train_a.values[idx]]),
            np.concatenate([train_b.labels, train_a.labels[idx]]))
    else:
        pool = train_b

    curves = [(-1, *probe())]
    incremental = []
    for epoch in range(plan.epochs):
        if plan.incremental and epoch == 0:
            order = rng.permutation(pool.n_rows)
            done = 0
            next_probe = plan.incremental_start
            while done < pool.n_rows:
                stop = min(next_probe, pool.n_rows)
                fcn_minibatches(head, pool, order[done:stop], plan.batch, epoch, stop - done)
                done = stop
                incremental.append((done, *probe()))
                next_probe += plan.incremental_stride
        else:
            fcn_train_epoch(head, pool, plan.batch, epoch, rng)
        curves.append((epoch, *probe()))
    return ForgetResult(curves, incremental)
