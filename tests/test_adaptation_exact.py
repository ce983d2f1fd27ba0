"""Exactness pins for the defect-adaptation pass.

``adapt_patch`` output feeds circuits, cache keys and every yield figure, so
a rewrite of its internals must not change a single byte of it.  The golden
digest hashes, over a seeded grid of widths, defect models and rates, the
``repr`` of everything an adapted patch exposes downstream — stabilizer and
super-stabilizer order (which carries the cluster numbering), the
per-cluster repetitions, the disabled sets, validity and the
:func:`evaluate_patch` metrics.

The indexed loops are also compared with frozen copies of the all-pairs
loops they replaced (the ``_oracle_*`` functions), on seeded random states
that include cascading excisions.  The comparison covers the order in which
ancillas and data qubits are excised, not only the final sets: insertion
order shapes the iteration order of the sets that seed
:func:`defect_clusters`, and through it the cluster numbering.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.adaptation as A
from repro.core import adapt_patch, evaluate_patch
from repro.noise import LINK_AND_QUBIT, LINK_ONLY, DefectModel, DefectSet
from repro.surface_code import RotatedSurfaceCodeLayout, StabilityLayout

_WIDTHS = (5, 7, 9, 11, 13, 15)
_KINDS = (LINK_ONLY, LINK_AND_QUBIT)
_RATES = (0.003, 0.01, 0.03)
_SAMPLES = 6

#: sha256 of the grid below, computed with the all-pairs adaptation loops.
GOLDEN_DIGEST = "20bf99e458eee7d5bb56371487ddc5c5151c38dc9e9d01477d0473eac6fe4951"


def _patch_record(patch) -> str:
    return repr((
        patch.stabilizers,
        patch.super_stabilizers,
        sorted(patch.cluster_repetitions.items()),
        sorted(patch.disabled_data),
        sorted(patch.disabled_ancillas),
        patch.valid,
        patch.failure_reason,
        evaluate_patch(patch),
    ))


def adaptation_digest() -> str:
    h = hashlib.sha256()
    seed = 0
    for width in _WIDTHS:
        layout = RotatedSurfaceCodeLayout(width)
        for kind in _KINDS:
            for rate in _RATES:
                model = DefectModel(kind, rate)
                for _ in range(_SAMPLES):
                    patch = adapt_patch(layout, model.sample(layout, seed))
                    h.update(_patch_record(patch).encode())
                    seed += 1
    return h.hexdigest()


def test_adaptation_golden_digest():
    assert adaptation_digest() == GOLDEN_DIGEST


# ----------------------------------------------------------------------
# Frozen oracles: the all-pairs loops the indexed code replaced
# ----------------------------------------------------------------------
def _chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _oracle_cluster_diameter(cluster):
    cluster = list(cluster)
    if len(cluster) <= 1:
        return 0.0
    return max(_chebyshev(a, b) for a, b in itertools.combinations(cluster, 2)) / 2.0


def _oracle_defect_clusters(sites, max_distance=2):
    remaining = set(sites)
    clusters = []
    while remaining:
        seed = remaining.pop()  # repro-lint: ignore[R004] -- frozen copy of the pinned numbering
        cluster = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            near = {s for s in remaining if _chebyshev(s, current) <= max_distance}
            remaining -= near
            cluster |= near
            frontier.extend(near)
        clusters.append(cluster)
    return clusters


def _oracle_commutation_repair(state, regular_checks, gauge_checks, disabled_data):
    supports = {
        c.ancilla: set(state.active_support(c, disabled_data)) for c in regular_checks
    }
    gauge_supports = {
        c.ancilla: set(state.active_support(c, disabled_data)) for c in gauge_checks
    }
    changed = False
    demote = set()
    regular = list(regular_checks)
    for i in range(len(regular)):
        a = regular[i]
        if a.ancilla in state.excised_anc:
            continue
        for j in range(i + 1, len(regular)):
            b = regular[j]
            if b.ancilla in state.excised_anc or a.kind == b.kind:
                continue
            overlap = len(supports[a.ancilla] & supports[b.ancilla])
            if overlap % 2 == 0:
                continue
            boundary_kind = A._nearest_boundary_kind(state.layout, a.ancilla)
            candidates = sorted(
                (a, b),
                key=lambda c: (c.kind == boundary_kind, len(supports[c.ancilla])),
            )
            state.excised_anc.add(candidates[0].ancilla)
            changed = True
    for check in regular:
        if check.ancilla in state.excised_anc:
            continue
        for g in gauge_checks:
            if g.kind == check.kind:
                continue
            overlap = len(supports[check.ancilla] & gauge_supports[g.ancilla])
            if overlap % 2 == 1:
                demote.add(g.ancilla)
    return changed, demote


def _oracle_structural_fixpoint(state):
    layout = state.layout
    changed_any = False
    for _ in range(A._MAX_ITERATIONS):
        changed = False
        disabled_data = state.disabled_data()
        disabled_anc = state.disabled_anc
        for check in layout.checks:
            if check.ancilla in disabled_anc:
                continue
            support = state.active_support(check, disabled_data)
            if len(support) <= 1:
                state.excised_anc.add(check.ancilla)
                changed = True
            elif len(support) == 2 and A._is_diagonal_pair(*support):
                state.excised_anc.add(check.ancilla)
                changed = True
        disabled_anc = state.disabled_anc
        for data in layout.data_qubits:
            if data in disabled_data:
                continue
            kinds = {
                c.kind
                for c in layout.checks_containing[data]
                if c.ancilla not in disabled_anc
            }
            if "X" not in kinds or "Z" not in kinds:
                state.excised_data.add(data)
                changed = True
        if not changed:
            break
        changed_any = True
    return changed_any


class _LoggedSet(set):
    """A set that records the order of every ``add`` / ``update``.

    Insertion order is part of the pinned output: it shapes the iteration
    order of the disabled-site sets that seed :func:`defect_clusters`.
    """

    def __init__(self, items=()):
        super().__init__(items)
        self.log = list(items)

    def add(self, item):
        self.log.append(item)
        super().add(item)

    def update(self, *others):
        for other in others:
            for item in other:
                self.add(item)


def _logged_state(layout, defects=DefectSet.of(), excised_anc=(), excised_data=()):
    state = A._AdaptationState(layout, defects)
    state.excised_anc = _LoggedSet(excised_anc)
    state.excised_data = _LoggedSet(excised_data)
    return state


def _site_list(seed):
    """Up to 400 random lattice sites: large enough for set-table resizes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 400))
    side = int(rng.integers(5, 80))
    return [tuple(map(int, p)) for p in rng.integers(0, side, size=(n, 2))]


_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(seed=_seeds)
def test_cluster_diameter_matches_all_pairs_oracle(seed):
    sites = _site_list(seed)[:120]
    assert A.cluster_diameter(sites) == _oracle_cluster_diameter(sites)


@settings(max_examples=100, deadline=None)
@given(seed=_seeds, max_distance=st.integers(1, 3))
def test_defect_clusters_match_scan_oracle_in_order(seed, max_distance):
    sites = _site_list(seed)
    new = A.defect_clusters(sites, max_distance)
    old = _oracle_defect_clusters(sites, max_distance)
    assert [list(c) for c in new] == [list(c) for c in old]


def _repair_case(seed):
    """A layout, a disabled-data set and its intact / deformed / gauge split.

    Random disabled data (up to a quarter of the patch) and random excised
    ancillas leave many deformed checks next to each other, so odd overlaps
    chain and an early excision takes a check out of later pairs.
    """
    rng = np.random.default_rng(seed)
    width = int(rng.integers(3, 10))
    if rng.random() < 0.5:
        layout = RotatedSurfaceCodeLayout(width)
    else:
        layout = StabilityLayout(2 * (width // 2))
    density = (0.03, 0.08, 0.15, 0.25)[int(rng.integers(4))]
    gauge_share = (0.0, 0.3, 0.6)[int(rng.integers(3))]
    disabled_data = {d for d in layout.data_qubits if rng.random() < density}
    excised = [c.ancilla for c in layout.checks if rng.random() < density / 2]
    intact, deformed, gauges = [], [], []
    for check in layout.checks:
        if check.ancilla in excised:
            continue
        if disabled_data.isdisjoint(check.data):
            intact.append(check)
        elif rng.random() < gauge_share:
            gauges.append(check)
        else:
            deformed.append(check)
    return layout, disabled_data, excised, intact, deformed, gauges


def _repair_both(layout, disabled_data, excised, intact, deformed, gauges):
    """Run the oracle on every regular check and the new code on the deformed."""
    old_state = _logged_state(layout, excised_anc=excised)
    new_state = _logged_state(layout, excised_anc=excised)
    old = _oracle_commutation_repair(old_state, intact + deformed, gauges, disabled_data)
    new = A._commutation_repair(new_state, deformed, gauges, disabled_data)
    return old, old_state.excised_anc.log, new, new_state.excised_anc.log


@settings(max_examples=150, deadline=None)
@given(seed=_seeds)
def test_commutation_repair_matches_all_pairs_oracle(seed):
    old, old_log, new, new_log = _repair_both(*_repair_case(seed))
    assert new == old
    assert new_log == old_log


def test_repair_cases_exercise_cascading_excisions():
    """The cases include excisions that take a check out of a later pair.

    A case cascades when it has more anticommuting regular pairs than the
    repair makes excisions; counted, and compared, on fixed seeds.
    """
    cascades = 0
    for seed in range(60):
        layout, disabled_data, excised, intact, deformed, gauges = _repair_case(seed)
        old, old_log, new, new_log = _repair_both(
            layout, disabled_data, excised, intact, deformed, gauges)
        assert (new, new_log) == (old, old_log)
        supports = [(c.kind, set(c.data) - disabled_data) for c in intact + deformed]
        odd_pairs = sum(
            1 for (ka, sa), (kb, sb) in itertools.combinations(supports, 2)
            if ka != kb and len(sa & sb) % 2
        )
        cascades += odd_pairs > len(new_log) - len(excised)
    assert cascades >= 5


@pytest.mark.parametrize("kind,width", [
    *(("rotated", w) for w in (2, 3, 4, 5, 8, 13)),
    *(("stability", w) for w in (2, 4, 8, 14)),
])
def test_layout_facts_the_indexed_loops_rely_on(kind, width):
    """Whole plaquettes commute (the repair skips intact checks); every data
    qubit has checks of both types and every check has two or more qubits,
    never a lone diagonal pair (the fixpoint visits only damaged parts)."""
    layout = (RotatedSurfaceCodeLayout if kind == "rotated" else StabilityLayout)(width)
    for a, b in itertools.combinations(layout.checks, 2):
        if a.kind != b.kind:
            assert len(set(a.data) & set(b.data)) % 2 == 0, (a, b)
    for d in layout.data_qubits:
        assert {c.kind for c in layout.checks_containing[d]} == {"X", "Z"}, d
    for c in layout.checks:
        assert len(c.data) > 2 or (
            len(c.data) == 2 and not A._is_diagonal_pair(*c.data)), c


def _fixpoint_state(seed):
    """A sampled defect set plus random excised data qubits and ancillas."""
    rng = np.random.default_rng(seed)
    layout = RotatedSurfaceCodeLayout(int(rng.integers(3, 12)))
    kind = (LINK_ONLY, LINK_AND_QUBIT)[int(rng.integers(2))]
    defects = DefectModel(kind, (0.01, 0.03, 0.06, 0.1)[int(rng.integers(4))]).sample(
        layout, rng)
    density = (0.0, 0.05, 0.1, 0.2)[int(rng.integers(4))]
    excised_data = [d for d in layout.data_qubits if rng.random() < density]
    excised_anc = [c.ancilla for c in layout.checks if rng.random() < density]
    return lambda: _logged_state(layout, defects, excised_anc, excised_data)


def _fixpoint_both(seed):
    make = _fixpoint_state(seed)
    old_state, new_state = make(), make()
    old = _oracle_structural_fixpoint(old_state)
    new = A._structural_fixpoint(new_state)
    assert new == old
    assert new_state.excised_anc.log == old_state.excised_anc.log
    assert new_state.excised_data.log == old_state.excised_data.log


@settings(max_examples=100, deadline=None)
@given(seed=_seeds)
def test_structural_fixpoint_matches_full_pass_oracle(seed):
    _fixpoint_both(seed)


def _later_pass_excisions(seed, monkeypatch):
    """(ancillas, data qubits) the full-pass oracle excises after pass one."""
    state = _fixpoint_state(seed)()
    monkeypatch.setattr(A, "_MAX_ITERATIONS", 1)
    _oracle_structural_fixpoint(state)
    first = len(state.excised_anc.log), len(state.excised_data.log)
    while _oracle_structural_fixpoint(state):
        pass
    monkeypatch.undo()
    return (len(state.excised_anc.log) - first[0],
            len(state.excised_data.log) - first[1])


# Seeds whose fixpoint still excises ancillas and data qubits after its
# first pass, i.e. in damage that the pass before grew.
_CASCADING_FIXPOINT_SEEDS = (1, 5, 7, 12, 16, 19, 50, 61)


@pytest.mark.parametrize("seed", _CASCADING_FIXPOINT_SEEDS)
def test_structural_fixpoint_matches_oracle_on_later_passes(seed, monkeypatch):
    anc, data = _later_pass_excisions(seed, monkeypatch)
    assert anc >= 2 and data >= 1
    _fixpoint_both(seed)
