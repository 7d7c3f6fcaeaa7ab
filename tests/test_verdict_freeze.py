"""Verdict freeze: the pipeline's answers on a seeded corpus stay fixed.

The corpus is drawn from fixed seeds: acceptance-1 family draws at
n = 1, 2, 3, general weights from ``conftest.random_instance`` (n = 1, 2, 3
and 6), and exact-boundary family instances on the |gamma| = 1 arc and on
the A = mu I circle.  ``verdict_freeze.json`` holds, per instance, the two
verdicts, the positivity class, the kernel dimension, whether the linear
part vanishes on the kernel, and every reported margin.

A change that only makes the pipeline cheaper must reproduce the verdicts,
classes and dimensions exactly and the margins to 1e-12 relative (against
a floor of 1, the scale of every corpus instance).

Regenerate the fixture (only when a change of verdicts is intended) with

    PYTHONPATH=src python tests/test_verdict_freeze.py --write
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from bargtop import FamilyParams, analyze, family_instance

from conftest import cvec, random_family, random_instance

FIXTURE = Path(__file__).with_name("verdict_freeze.json")
MARGIN_RTOL = 1e-12


def _arc(rng, n, matched):
    theta = rng.uniform(-np.pi / 3 + 0.02, np.pi / 3 - 0.02)
    lam = (1.0 - np.exp(1j * theta)) / 2.0
    gamma = 1.0 / (1.0 - 2.0 * lam)
    d = cvec(rng, n)
    c = gamma * d if matched else gamma * d + cvec(rng, n, 0.5)
    return family_instance(FamilyParams(lam, np.zeros((n, n)), c, d))


def _circle(rng, n, matched):
    while True:
        gamma_abs = rng.uniform(0.55, 0.95)
        lam = (1.0 - 1.0 / gamma_abs) / 2.0
        theta = rng.uniform(0.0, 2.0 * np.pi)
        radius = (1.0 - gamma_abs**2) / (4.0 * gamma_abs**2)
        if 0.25 - lam - radius > 1e-3:
            break
    mu = radius * np.exp(1j * theta)
    g = 1.0 / (1.0 - 2.0 * lam)
    c = cvec(rng, n)
    d = np.conj(g) * c + 4.0 * g * mu * np.conj(c) + 1j * np.exp(0.5j * theta) * rng.standard_normal(n)
    if not matched:
        d = d + np.exp(0.5j * theta) * rng.standard_normal(n) * 0.4
    return family_instance(FamilyParams(lam, mu * np.eye(n), c, d))


def corpus():
    """(label, weight, symbol) for every instance, in a fixed order."""
    out = []
    rng = np.random.default_rng(701)
    for n in (1, 2, 3):
        for k in range(15):
            out.append((f"family n={n} #{k}", *family_instance(random_family(rng, n, margin=1e-6))))
    rng = np.random.default_rng(702)
    for n in (1, 2, 3, 6):
        for k in range(8 if n < 6 else 2):
            out.append((f"general n={n} #{k}", *random_instance(rng, n, pluriharmonic=(k % 2 == 0))))
    rng = np.random.default_rng(703)
    for n in (1, 2, 3):
        for matched in (True, False):
            tag = "matched" if matched else "offset"
            out.append((f"arc n={n} {tag}", *_arc(rng, n, matched)))
            out.append((f"circle n={n} {tag}", *_circle(rng, n, matched)))
    return out


def record(phi, q) -> dict:
    a = analyze(phi, q)
    return {
        "bounded": a.bounded.value,
        "compact": a.compact.value,
        "positivity": a.positivity.classification.value,
        "kernel_dim": a.kernel_dim,
        "linear_vanishes": a.linear_vanishes,
        "margins": {k: float(v) for k, v in sorted(a.margins.items())},
    }


def _margin_equal(got: float, want: float) -> bool:
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= MARGIN_RTOL * max(abs(want), 1.0)


def test_verdicts_margins_frozen():
    frozen = json.loads(FIXTURE.read_text())
    cases = corpus()
    assert [label for label, _, _ in cases] == list(frozen), "corpus labels changed"
    bad = []
    for label, phi, q in cases:
        got, want = record(phi, q), frozen[label]
        for key in ("bounded", "compact", "positivity", "kernel_dim", "linear_vanishes"):
            if got[key] != want[key]:
                bad.append(f"{label}: {key} {got[key]!r} != {want[key]!r}")
        assert got["margins"].keys() == want["margins"].keys(), label
        for key, w in want["margins"].items():
            if not _margin_equal(got["margins"][key], w):
                bad.append(f"{label}: margin {key} {got['margins'][key]!r} != {w!r}")
    assert not bad, "\n".join(bad)


def test_corpus_covers_every_class():
    frozen = json.loads(FIXTURE.read_text())
    classes = {rec["positivity"] for rec in frozen.values()}
    assert {"strictly_positive", "not_positive", "positive"} <= classes
    assert any(rec["kernel_dim"] > 0 and rec["bounded"] == "bounded" for rec in frozen.values())
    assert any(rec["kernel_dim"] > 0 and rec["bounded"] == "unbounded" for rec in frozen.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_verdict_freeze.py --write")
    data = {label: record(phi, q) for label, phi, q in corpus()}
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} records to {FIXTURE}")
