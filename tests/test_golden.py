"""SHA-256 digests of reports that must keep every byte.

Each suite report at the default seed, a kernel report that fails a check
by name, three classifier reports and the NormResults of three witnesses
are hashed.  A change that means to move
report bytes updates the digests here and lists each changed output in
CHANGES.md.
"""

import hashlib

import pytest

from orlicz_lab.classify import classify_injection
from orlicz_lab.domains import disk
from orlicz_lab.functions import ExpLogSquared, PowerFunction, arg_square, build_counterexample
from orlicz_lab.norms import bergman_norms, circle_norm, hardy_norms, luxemburg_norms
from orlicz_lab.suites import SUITE_NAMES, run_suite, suite_kernel_bounds
from orlicz_lab.witnesses import make_kernel_squared, make_monomial, make_polynomial

SUITE_DIGESTS = {
    "contraction": "f1e536bbeb7377496f9500e660dcb64cc58f3828eaae5643b56d403872bc3d88",
    "carleson": "33dcf21f58a16b9bdd73ef9aaaf7cfc45b3bb52e897b287357e6e138b0f0fb45",
    "monomial": "5d0e509692a7ed067782bfd3aebeddbf422f13e0dc207e1a4716ed1f41d1e0ac",
    "kernel": "1b6706aa3713924e96bf00f38ca879cfb7daef616b566920f6466dffa13a0574",
    "evaluation": "920842797295e7d81eca8b3fc995cad11dbe764a0bb74fc997f6ccaf23c2913c",
    "counterexample": "ad77645c1384f7b20369acc2fb9abd5764bd06c0736efa3a7bfca320b5b0a269",
    "order": "1aa27f6c9d832d678adbdc6b3da1cf803cb8d711deee9650aeb08d71755c8705",
}

# a suite report with a check failed by name: the counterexample's disk norm
# of the kernel at h = 1/128 is flagged quadrature_unresolved
FAILING_KERNEL_DIGEST = "e4fc2bceb4d79c05c1ed1dddaee1d663ce497fa11c793e085d9058c53a4a11ed"

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

# the NormResults (with their quadrature error estimates, flags and step
# counts, which no suite report carries) of each witness under the default
# Psi triple, per norm
NORM_PSIS = (PowerFunction(2), ExpLogSquared(), build_counterexample(4))
NORM_WITNESSES = {f.label: f for f in (make_monomial(7),
                                       make_polynomial([1.0, 0.5j, -0.25, 0.125 - 0.375j]),
                                       make_kernel_squared(1.0 / 32.0, 0.7))}
NORMS = {
    "hardy": lambda f: hardy_norms(f, NORM_PSIS),
    "bergman": lambda f: bergman_norms(f, NORM_PSIS),
    "circle": lambda f: tuple(circle_norm(f, psi) for psi in NORM_PSIS),
    "disk(64, 32)": lambda f: luxemburg_norms(f, NORM_PSIS, disk(64, 32)),
}
NORM_DIGESTS = {
    ("monomial(n=7)", "hardy"):
        "12e15e01f8a33a0c15dd5640f2e8789b9f6cd2d88fbcf2537492613f19cdf262",
    ("monomial(n=7)", "bergman"):
        "ad30d028ac3fbd841ad841e74cde67cfa11ab0b45e8ce59ed50e116d28f54173",
    ("monomial(n=7)", "circle"):
        "c36def27f6c923d7a4be3ef2b610712aec1bc779947b56934b507e1cd808fe68",
    ("monomial(n=7)", "disk(64, 32)"):
        "12a1d087d086265b988def7783edaec7b04da8ea72cbeb04f2bf622f548ca303",
    ("polynomial(degree=3)", "hardy"):
        "82aafd39ee21d005e36d54373b42cc0226b0aa30b685dd525f5f550b16e4bd18",
    ("polynomial(degree=3)", "bergman"):
        "f126db1365f3dc249fbd05c759bdfadff943ebd418cace8180bb93b0ad5c4c8a",
    ("polynomial(degree=3)", "circle"):
        "16b9eff5c852778f47d3d56d24b6e7b07a49e676fa2c07c048a1e1d4d6115c03",
    ("polynomial(degree=3)", "disk(64, 32)"):
        "41c973987957b0feac0ec0be4eee8b9b8c1ebe0573f7a518ba6251f2e1010dae",
    ("kernel_squared(h=0.03125, xi_angle=0.7)", "hardy"):
        "2f61c5ddeba3555ed16ee3365bca1ff368d9b62c01d946ea2fc5600b4be6bfb1",
    ("kernel_squared(h=0.03125, xi_angle=0.7)", "bergman"):
        "790ca84dcb34973762689fab1cad4e77ba83bd6118383b6f2d94790b52e21613",
    ("kernel_squared(h=0.03125, xi_angle=0.7)", "circle"):
        "35391af7d0a484bbddeeb6dfc1b3dadf71fb864432b1272b106fad46e7c3a564",
    ("kernel_squared(h=0.03125, xi_angle=0.7)", "disk(64, 32)"):
        "5fd9ab1a342946ebe4a26b26b3190370c85be13d61b0a20461c8e8d9e291e8d2",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_bytes(name):
    got = _sha256(run_suite(name).to_json())
    assert got == SUITE_DIGESTS[name], f"the {name} suite report changed (sha256 {got})"


def test_failing_suite_report_bytes():
    rep = suite_kernel_bounds(h_grid=(1.0 / 128.0,), psis=(build_counterexample(4),))
    assert not rep.overall_pass
    got = _sha256(rep.to_json())
    assert got == FAILING_KERNEL_DIGEST, f"the failing kernel report changed (sha256 {got})"


@pytest.mark.parametrize("label", CLASSIFIED)
def test_classifier_report_bytes(label):
    psi, digest = CLASSIFIED[label]
    got = _sha256(classify_injection(psi).to_json())
    assert got == digest, f"the classification of {label} changed (sha256 {got})"


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("label", NORM_WITNESSES)
def test_norm_result_bytes(label, norm):
    results = NORMS[norm](NORM_WITNESSES[label])
    got = _sha256("".join(r.to_json() for r in results))
    assert got == NORM_DIGESTS[label, norm], f"the {norm} norms of {label} changed (sha256 {got})"
