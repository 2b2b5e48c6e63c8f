"""Differential tests of the generator's per-local-state move tables.

:class:`~repro.aemilia.semantics.StateSpaceGenerator` classifies each
local move once per (instance, local state) and memoises the
synchronisation branches of an attached output per tuple of its
partners' local states.  Every generation must be ``==`` to the
historical per-global-state classification
(:class:`tests.oracles.ReferenceStateSpaceGenerator`): the initial
state, the transitions in order (source, label, target, ``repr`` of the
rate, event, weight), every state description and the rate provenance
by value — or the same error type and message.  The cases are the case
studies with preemption on and off, the battery extension, the
``tests/test_semantics.py`` specimens, the functional streaming model
at capacity 3 and a hypothesis corpus of random architectures.
"""

import io
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aemilia import builder as b
from repro.aemilia import generate_lts, parse_architecture
from repro.aemilia.expressions import BinaryOp, Literal, Variable
from repro.aemilia.semantics import StateSpaceGenerator
from repro.casestudies.rpc import battery
from repro.casestudies.streaming.functional import FUNCTIONAL_CAPACITIES
from repro.errors import (
    ReproError,
    SpecificationError,
    StateSpaceLimitError,
    UnguardedRecursionError,
)
from repro.runtime import generate_parametric
from tests.oracles import ReferenceStateSpaceGenerator


def lts_bits(lts):
    """Everything an LTS carries, in a form ``==`` compares exactly."""
    return {
        "initial": lts.initial,
        "transitions": [
            (t.source, t.label, t.target, repr(t.rate), t.event, t.weight)
            for t in lts.transitions
        ],
        "state_info": [lts.state_info(s) for s in range(lts.num_states)],
    }


def outcome(generator_class, archi, overrides=None, **kwargs):
    """The generation's bits and provenance, or its error and message."""
    kwargs.setdefault("record_provenance", True)
    try:
        generator = generator_class(archi, overrides, **kwargs)
        bits = lts_bits(generator.generate())
    except ReproError as error:
        return type(error), str(error)
    bits["provenance"] = generator.provenance
    return bits


def assert_matches_reference(archi, overrides=None, **kwargs):
    fresh = outcome(StateSpaceGenerator, archi, overrides, **kwargs)
    assert fresh == outcome(
        ReferenceStateSpaceGenerator, archi, overrides, **kwargs
    )
    return fresh


# ---------------------------------------------------------------------------
# Case studies.
# ---------------------------------------------------------------------------

_PHASES = [
    "markovian_dpm", "markovian_nodpm", "general_dpm", "general_nodpm",
    "functional_dpm",
]

#: Without preemption the timed streaming models reach 84,480 (DPM) and
#: 23,232 (NO-DPM) states at the default buffer capacities of 10; one
#: comparison there takes ~9 s and ~0.5 GB, so they run at capacity 3.
_SMALL_BUFFERS = {"ap_capacity": 3, "b_capacity": 3}


@pytest.mark.parametrize("preemption", [True, False], ids=["pre", "nopre"])
@pytest.mark.parametrize("phase", _PHASES)
@pytest.mark.parametrize("case", ["rpc", "streaming"])
def test_case_study_matches_reference(
    case, phase, preemption, rpc_family, streaming_family
):
    family = rpc_family if case == "rpc" else streaming_family
    overrides = None
    if case == "streaming":
        if phase == "functional_dpm":
            overrides = FUNCTIONAL_CAPACITIES
        elif not preemption:
            overrides = _SMALL_BUFFERS
    bits = assert_matches_reference(
        getattr(family, phase), overrides, apply_preemption=preemption
    )
    assert bits["transitions"]


@pytest.mark.parametrize("preemption", [True, False], ids=["pre", "nopre"])
@pytest.mark.parametrize(
    "build", [battery.dpm_architecture, battery.nodpm_architecture],
    ids=["dpm", "nodpm"],
)
def test_battery_extension_matches_reference(build, preemption):
    assert_matches_reference(build(), apply_preemption=preemption)


def test_functional_streaming_at_capacity_three_matches_reference(
    streaming_family,
):
    bits = assert_matches_reference(
        streaming_family.functional_dpm,
        {"ap_capacity": 3, "b_capacity": 3},
    )
    assert len(bits["state_info"]) == 10_560


# ---------------------------------------------------------------------------
# The specimen models of tests/test_semantics.py.
# ---------------------------------------------------------------------------

_SEMANTICS_SPECS = re.findall(
    r'"""(\nARCHI_TYPE .*?\nEND\n)"""',
    (Path(__file__).parent / "test_semantics.py").read_text(),
    re.S,
)


def _spec_name(spec):
    return spec.split()[1].split("(")[0]


def test_the_semantics_specimens_are_found():
    names = {_spec_name(spec) for spec in _SEMANTICS_SPECS}
    assert {"Split", "Fanout", "Broadcast", "Prio", "BadInput"} <= names


@pytest.mark.parametrize("preemption", [True, False], ids=["pre", "nopre"])
@pytest.mark.parametrize(
    "spec", _SEMANTICS_SPECS, ids=[_spec_name(s) for s in _SEMANTICS_SPECS]
)
def test_semantics_specimen_matches_reference(spec, preemption):
    assert_matches_reference(
        parse_architecture(spec), apply_preemption=preemption
    )


@pytest.mark.parametrize("record", [True, False], ids=["prov", "noprov"])
@pytest.mark.parametrize("capacity", [1, 3, 8])
def test_fixtures_match_reference(pingpong, mm1k, capacity, record):
    assert_matches_reference(pingpong, record_provenance=record)
    assert_matches_reference(
        mm1k, {"capacity": capacity}, record_provenance=record
    )


# ---------------------------------------------------------------------------
# Random architectures.
# ---------------------------------------------------------------------------

_FUZZ_TEMPLATE = """
ARCHI_TYPE Fuzz(const int capacity := {capacity})
ARCHI_ELEM_TYPES
ELEM_TYPE Prod_Type(void)
  BEHAVIOR
    P(void; void) = choice {{
      <push, {push_rate}> . <settle, inf({settle_priority}, 1)> . P(),
      <beep, exp(0.5)> . P()
    }}
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS {multiplicity} push; UNI beep
ELEM_TYPE Cons_Type(void)
  BEHAVIOR
    C(int n := 0; void) = choice {{
      cond(n < capacity) -> <pull, _(0, {weight})> . C(n + 1),
      cond(n < capacity) -> <pull, {second_pull}> .
        <log, inf({log_priority}, 2)> . C(n + 1),
      cond(n > 0) -> <work, exp(1.5)> . C(n - 1),
      <poke, _> . C(0)
    }}
  INPUT_INTERACTIONS UNI pull; UNI poke
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    A : Prod_Type();
    {instances}
  ARCHI_ATTACHMENTS
    {attachments}
END
"""


@st.composite
def _architectures(draw):
    multiplicity = draw(st.sampled_from(["UNI", "OR", "AND"]))
    partners = 1 if multiplicity == "UNI" else draw(st.integers(1, 3))
    # An unattached consumer keeps an open (observable) pull input.
    consumers = partners + draw(st.integers(0, 3 - partners))
    spec = _FUZZ_TEMPLATE.format(
        capacity=draw(st.integers(1, 2)),
        push_rate=draw(
            st.sampled_from(["exp(2.0)", "inf(1, 2.0)", "inf(3, 1.0)", "_"])
        ),
        settle_priority=draw(st.integers(1, 3)),
        multiplicity=multiplicity,
        weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
        # An active second pull makes synchronisation fail.
        second_pull=draw(
            st.sampled_from(
                ["_(0, 0.5)", "_(0, 2.0)", "_(0, 1.0)", "_", "exp(1.0)"]
            )
        ),
        log_priority=draw(st.integers(1, 3)),
        instances=";\n    ".join(
            f"B{i} : Cons_Type()" for i in range(consumers)
        ),
        attachments=";\n    ".join(
            f"FROM A.push TO B{i}.pull" for i in range(partners)
        ),
    )
    return parse_architecture(spec)


@settings(max_examples=80, deadline=None)
@given(
    _architectures(), st.booleans(), st.booleans(), st.floats(0.0, 1.0)
)
def test_random_architecture_matches_reference(
    archi, preemption, record, cut
):
    """The same generation, or the same error type and message (active
    inputs); cut below its size, the same state-limit error."""
    fresh = assert_matches_reference(
        archi, apply_preemption=preemption, record_provenance=record
    )
    if isinstance(fresh, dict) and len(fresh["state_info"]) > 1:
        limit = int(cut * (len(fresh["state_info"]) - 1))
        limited = assert_matches_reference(
            archi,
            apply_preemption=preemption,
            record_provenance=record,
            max_states=limit,
        )
        assert limited[0] is StateSpaceLimitError


# ---------------------------------------------------------------------------
# Errors.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_states", [1, 2, 50, 225, 226])
def test_state_limit_error_parity(rpc_family, max_states):
    """The limit trips after the same state, with the same message."""
    fresh = assert_matches_reference(
        rpc_family.markovian_dpm, max_states=max_states
    )
    if max_states < 226:
        assert fresh[0] is StateSpaceLimitError
    else:
        assert len(fresh["state_info"]) == 226


def test_active_input_error_parity():
    [spec] = [s for s in _SEMANTICS_SPECS if _spec_name(s) == "BadInput"]
    fresh = assert_matches_reference(parse_architecture(spec))
    assert fresh[0] is SpecificationError
    assert "must be passive" in fresh[1]


def _diverging_architecture():
    """``Y`` reaches ``Spin(1)``, which calls itself without an action.

    The static guardedness check rejects such a type, so ``Spin`` is
    swapped in after the architecture was validated: only the
    generator's own unfolding check can stop it, once ``X`` and ``Y``
    have moved.
    """
    n = Variable("n")
    formals = [b.formal("n", default=0)]
    ticker = b.elem_type("Ticker", [
        b.process(
            "Tick",
            b.cond(
                BinaryOp("<", n, Literal(2)),
                b.prefix(
                    "tick", b.passive(),
                    b.call("Tick", BinaryOp("+", n, Literal(1))),
                ),
            ),
            formals,
        )
    ])

    def spinner(spin):
        return b.elem_type("Spinner", [
            b.process(
                "Main",
                b.prefix(
                    "step", b.passive(),
                    b.call("Spin", BinaryOp("+", n, Literal(1))),
                ),
                formals,
            ),
            b.process("Spin", spin, formals),
        ])

    archi = b.archi(
        "Diverge",
        [ticker, spinner(b.prefix("idle", b.passive(), b.call("Spin", n)))],
        [b.instance("X", "Ticker"), b.instance("Y", "Spinner")],
    )
    archi.elem_types["Spinner"] = spinner(
        b.cond(BinaryOp(">=", n, Literal(1)), b.call("Spin", n))
    )
    return archi


def test_unguarded_recursion_error_parity():
    fresh = assert_matches_reference(_diverging_architecture())
    assert fresh[0] is UnguardedRecursionError
    assert "recurses without an action" in fresh[1]


# ---------------------------------------------------------------------------
# Memo scope.
# ---------------------------------------------------------------------------


def test_generators_over_one_archi_share_no_memo(mm1k):
    """Interleaved generators of one ArchiType at two capacities each
    equal a fresh reference generation."""
    small = StateSpaceGenerator(mm1k, {"capacity": 1}, record_provenance=True)
    large = StateSpaceGenerator(mm1k, {"capacity": 8}, record_provenance=True)
    large_lts = large.generate()
    small_lts = small.generate()
    for generator, lts, capacity in (
        (small, small_lts, 1), (large, large_lts, 8)
    ):
        reference = outcome(
            ReferenceStateSpaceGenerator, mm1k, {"capacity": capacity}
        )
        assert {**lts_bits(lts), "provenance": generator.provenance} == (
            reference
        )
    assert small_lts.num_states < large_lts.num_states


class _ClassRecorder(pickle.Unpickler):
    """Unpickler that records every class a pickle refers to."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add((module, name))
        return super().find_class(module, name)


def test_skeleton_pickle_holds_no_generator_table(rpc_family):
    archi = rpc_family.markovian_dpm
    data = pickle.dumps(generate_parametric(archi))
    recorder = _ClassRecorder(data)
    restored = recorder.load()
    from_semantics = {
        name for module, name in recorder.classes
        if module == "repro.aemilia.semantics"
    }
    assert from_semantics == {"RateProvenance"}
    overrides = {"shutdown_timeout": 7.0}
    relabeled = restored.relabel(archi.bind_constants(overrides))
    assert lts_bits(relabeled) == lts_bits(generate_lts(archi, overrides))
