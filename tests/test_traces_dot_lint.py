"""Tests for the ADL lint layer (static analysis of architectures)."""

from repro.aemilia import parse_architecture
from repro.aemilia.static_analysis import Severity, analyze, report


class TestStaticAnalysis:
    def test_clean_model_minimal_findings(self, pingpong):
        findings = analyze(pingpong)
        # Ping-pong is fully attached with reachable behaviour: clean.
        assert findings == []

    def test_unreachable_behaviour_detected(self):
        archi = parse_architecture("""
ARCHI_TYPE Lint1(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <a, _> . Main();
    Orphan(void; void) = <b, _> . Orphan()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
""")
        codes = {f.code for f in analyze(archi)}
        assert "unreachable-behaviour" in codes

    def test_dead_guard_detected(self):
        archi = parse_architecture("""
ARCHI_TYPE Lint2(const int cap := 0)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = choice {
      <a, _> . Main(),
      cond(cap > 0) -> <b, _> . Main()
    }
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
""")
        findings = analyze(archi)
        dead = [f for f in findings if f.code == "dead-guard"]
        assert dead and dead[0].severity is Severity.WARNING
        # With an override making the guard true, the finding flips.
        overridden = analyze(archi, {"cap": 3})
        assert not any(f.code == "dead-guard" for f in overridden)
        assert any(f.code == "constant-guard" for f in overridden)

    def test_open_interaction_detected(self):
        archi = parse_architecture("""
ARCHI_TYPE Lint3(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T_Type(void)
  BEHAVIOR
    Main(void; void) = <shout, _> . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS UNI shout
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : T_Type()
END
""")
        findings = analyze(archi)
        assert any(f.code == "open-interaction" for f in findings)

    def test_unused_elem_type_detected(self):
        archi = parse_architecture("""
ARCHI_TYPE Lint4(void)
ARCHI_ELEM_TYPES
ELEM_TYPE Used_Type(void)
  BEHAVIOR
    Main(void; void) = <a, _> . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ELEM_TYPE Spare_Type(void)
  BEHAVIOR
    Main(void; void) = <b, _> . Main()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    X : Used_Type()
END
""")
        findings = analyze(archi)
        assert any(f.code == "unused-elem-type" for f in findings)

    def test_report_renders(self, pingpong):
        assert "no findings" in report(pingpong)

    def test_case_studies_are_clean(self, rpc_family):
        """The shipped models must carry no warnings."""
        warnings = [
            f
            for f in analyze(rpc_family.markovian_dpm)
            if f.severity is Severity.WARNING
        ]
        assert warnings == []
