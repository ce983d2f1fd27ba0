"""``repro.lint`` — the repo's determinism & invariant static-analysis pass.

Every PR since the seed stakes its value on invariants no test proves
exhaustively: bit-identical results across the serial/process/socket
backends, content-hash completeness of frozen task specs, all ``REPRO_*``
knobs flowing through the validated :mod:`repro.env` readers, strictly
sequential RNG word consumption.  These properties rot *silently* — a new
task field that skips the hash, a stray ``np.random`` call, a raw
``os.environ`` read — so this package checks them mechanically:

======  ==========================================================
 R001   no global-state or unseeded RNG outside the blessed modules
 R002   ``REPRO_*`` variables read only via :mod:`repro.env`
 R003   no wall-clock/nondeterministic sources in hash/payload code
 R004   no order-dependent set/listing iteration; no set pops
 R005   no mutable default args; shared module state takes a lock
 R006   content-hash completeness of every registered task spec
======  ==========================================================

Run ``python -m repro.lint`` (or the ``repro-lint`` console script) from
anywhere in the repo; ``--format json`` emits the machine-readable report
CI archives.  Suppress a finding with an inline pragma **with required
justification**::

    something_flagged()  # repro-lint: ignore[R004] -- order is cosmetic here

``tests/test_lint_clean.py`` asserts the repo itself lints clean, which is
what makes the determinism contract self-enforcing for every future PR.
"""

from .core import (
    Finding,
    Rule,
    iter_rules,
    lint_source,
    render_json,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "Rule",
    "iter_rules",
    "lint_source",
    "run_lint",
    "render_text",
    "render_json",
]
