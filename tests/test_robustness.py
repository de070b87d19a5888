"""End-to-end pipeline on signatures outside the main regression set:
adjacent quadruples, several cusp blocks, long elliptic strings, high
orders, and large genus (big-entry gluing products); the simulation on
the stress ladder; and the checks that pass on the whole seeded
random-signature sweep (``conftest.sweep``)."""

import pytest

from conftest import MODES, STRESS, partition, polygon, sweep

from fuchsian import (Signature, build_canonical, build_attractor,
                      check_forward_invariance, make_partition, markov_check,
                      simulate_entry, validate_polygon, verify_bijectivity)

EXTRA = ["0;2,2,2;1", "3;;2", "1;2,2,3,3,11;3", "0;7;2", "2;;3",
         "0;2,3,7;1", "5;2;4"]


@pytest.mark.parametrize("text", EXTRA)
def test_full_pipeline(text):
    poly = build_canonical(Signature.parse(text))
    assert validate_polygon(poly).passed
    for mode in ("left", "right", "midpoint"):
        part = make_partition(poly, mode)
        assert markov_check(poly, part).passed, (text, mode)
        dom = build_attractor(poly, part)
        assert verify_bijectivity(poly, part, dom).passed, (text, mode)
        traces = simulate_entry(poly, part, dom, samples=150, seed=7)
        assert all(t.entered for t in traces), (text, mode)
        assert check_forward_invariance(poly, part, dom, traces,
                                        steps=150) == 0, (text, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text", STRESS)
def test_stress_entry_and_invariance(text, mode):
    # the kernel on up to 1920 rectangles and about 4000 breakpoints
    poly, part = polygon(text), partition(text, mode)
    dom = build_attractor(poly, part)
    traces = simulate_entry(poly, part, dom, samples=500, seed=7)
    assert all(t.entered for t in traces), (text, mode)
    assert check_forward_invariance(poly, part, dom, traces,
                                    steps=100) == 0, (text, mode)


def sweep_faults(text):
    """The failed checks of ``text`` among those that pass on the whole
    sweep of seed 2: every ``validate_polygon`` check, and under left,
    right and midpoint the bijectivity report, entry of 300 samples and 0
    exits in 50 forward steps."""
    poly = polygon(text)
    faults = [name for name, check in validate_polygon(poly).checks.items()
              if not check.passed]
    for mode in MODES:
        part = partition(text, mode)
        dom = build_attractor(poly, part)
        if not verify_bijectivity(poly, part, dom).passed:
            faults.append(f"bijectivity {mode}")
        traces = simulate_entry(poly, part, dom, samples=300, seed=1)
        if not all(t.entered for t in traces):
            faults.append(f"entry {mode}")
        if check_forward_invariance(poly, part, dom, traces, steps=50):
            faults.append(f"invariance {mode}")
    return faults


@pytest.mark.parametrize("text", sweep(2, 50))
def test_random_signature_sweep(text):
    assert sweep_faults(text) == []
