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
    "contraction": "bcf2b5759eeb92a1ddf552027ce5b3e486f430237cd3e96b7fecbc104ef49b8c",
    "carleson": "33dcf21f58a16b9bdd73ef9aaaf7cfc45b3bb52e897b287357e6e138b0f0fb45",
    "monomial": "0ed9d361243bb52c1f17361cd0e73cf922277b314438834c431ea0f2d4837274",
    "kernel": "b7a38b87f76ba80f7538e208fc0ac55318802d3465ad7d72245acc3c43fb80ab",
    "evaluation": "1ccfd782a68f50c729ceffc9e7cfacff29e3b8c50584066a121aade4aa10bfdc",
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
         "f1e04d06ab064bb24e72dee6246640e6f7812dd705e75afabb5829cee5759763"),
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
