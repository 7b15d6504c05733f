"""SHA-256 digests of reports that must keep every byte.

Each suite report at the default seed and three classifier reports are
hashed.  A change that means to move report bytes updates the digests here
and lists each changed output in CHANGES.md.
"""

import hashlib

import pytest

from orlicz_lab.classify import classify_injection
from orlicz_lab.functions import ExpLogSquared, PowerFunction, arg_square, build_counterexample
from orlicz_lab.suites import SUITE_NAMES, run_suite

SUITE_DIGESTS = {
    "contraction": "f1e536bbeb7377496f9500e660dcb64cc58f3828eaae5643b56d403872bc3d88",
    "carleson": "33dcf21f58a16b9bdd73ef9aaaf7cfc45b3bb52e897b287357e6e138b0f0fb45",
    "monomial": "5d0e509692a7ed067782bfd3aebeddbf422f13e0dc207e1a4716ed1f41d1e0ac",
    "kernel": "1b6706aa3713924e96bf00f38ca879cfb7daef616b566920f6466dffa13a0574",
    "evaluation": "920842797295e7d81eca8b3fc995cad11dbe764a0bb74fc997f6ccaf23c2913c",
    "counterexample": "ad77645c1384f7b20369acc2fb9abd5764bd06c0736efa3a7bfca320b5b0a269",
    "order": "1aa27f6c9d832d678adbdc6b3da1cf803cb8d711deee9650aeb08d71755c8705",
}

# a dense grid, knot anchors, and a composed piecewise function
CLASSIFIED = {
    psi.label: (psi, digest) for psi, digest in (
        (PowerFunction(3.3),
         "ed7d092d78cad6e15a903020ce6b0b78d6e1f17398fa057d3fe01d67bd279004"),
        (build_counterexample(4),
         "fbda3b23826dc0e57d9a12d351f119f593abdad23af869cc2dcdf53d53cdcf94"),
        (arg_square(ExpLogSquared()),
         "ade9c408b6655a265e7339453b09557473ad01b555f73fab7376ca3fecab2f89"),
    )
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_bytes(name):
    got = _sha256(run_suite(name).to_json())
    assert got == SUITE_DIGESTS[name], f"the {name} suite report changed (sha256 {got})"


@pytest.mark.parametrize("label", CLASSIFIED)
def test_classifier_report_bytes(label):
    psi, digest = CLASSIFIED[label]
    got = _sha256(classify_injection(psi).to_json())
    assert got == digest, f"the classification of {label} changed (sha256 {got})"
