"""Beyond the paper: using the methodology for DPM *policy design*.

The paper assesses a given DPM.  This example turns the workflow around
and uses it to *choose* one.  Three candidate policies for the rpc server:

* ``trivial``      — the Sect. 2.3 policy: shut down whenever the timer
                     fires, regardless of the server state;
* ``state-aware``  — the Sect. 3.1 policy: only shut down an idle server
                     (timer re-armed on each idle notice);
* ``eager``        — state-aware with an (almost) zero timeout: shut down
                     as soon as the server goes idle.

Phase 1 rejects ``trivial`` outright (it can strand the client forever —
the checker prints the witness formula).  The survivors are compared in
phase 2/3, and the general-model trade-off curve picks the operating
point.

Run with:  python examples/custom_policy_design.py
"""

from repro.casestudies import rpc
from repro.core import IncrementalMethodology, check_noninterference
from repro.core.reporting import format_table
from repro.core.tradeoff import TradeoffCurve


def phase1_screening():
    print("=" * 72)
    print("phase 1: functional screening of the candidate policies")
    print("=" * 72)
    candidates = {
        "trivial (Sect. 2.3)": rpc.functional.simplified_architecture(),
        "state-aware (Sect. 3.1)": rpc.functional.revised_architecture(),
    }
    survivors = []
    for name, archi in candidates.items():
        verdict = check_noninterference(
            archi, rpc.functional.HIGH_PATTERNS, rpc.functional.LOW_PATTERNS
        )
        status = "PASS" if verdict.holds else "REJECTED"
        print(f"  {name:<28} {status}")
        if verdict.holds:
            survivors.append(name)
        else:
            print("    witness (client may wait forever):")
            for line in verdict.formula.render(indent=6).splitlines()[:4]:
                print(line)
            print("      ...")
    print()
    return survivors


def phase23_tuning():
    print("=" * 72)
    print("phase 2+3: tuning the state-aware policy's timeout")
    print("=" * 72)
    methodology = IncrementalMethodology(rpc.family())
    nodpm = methodology.solve_markovian("nodpm")

    # 'eager' = state-aware with a near-zero timeout; plus moderate ones.
    timeouts = [0.1, 1.0, 3.0, 6.0, 9.0, 12.0]
    rows = []
    for timeout in timeouts:
        results = methodology.solve_markovian(
            "dpm", {"shutdown_timeout": timeout}
        )
        rows.append(
            [
                timeout,
                results["throughput"],
                results["energy"] / results["throughput"],
                1.0 - results["throughput"] / nodpm["throughput"],
            ]
        )
    print(
        format_table(
            ["timeout [ms]", "throughput", "energy/req", "thr. penalty"],
            rows,
            "Markovian screening (exponential timing)",
        )
    )
    print()

    # The general model decides: deterministic timings move the optimum.
    sim = dict(run_length=8_000.0, runs=4, warmup=300.0)
    performance, energy = [], []
    for timeout in timeouts:
        rep = methodology.simulate_general(
            "dpm", {"shutdown_timeout": timeout}, **sim
        )
        performance.append(rep["waiting_time"].mean / rep["throughput"].mean)
        energy.append(rep["energy"].mean / rep["throughput"].mean)
    curve = TradeoffCurve.from_sweep(
        "general timeout sweep", timeouts, performance, energy
    )
    print(curve.describe())
    knee = curve.knee_point()
    print()
    print(
        f"=> deploy the state-aware policy with a ~{knee.parameter:g} ms "
        f"timeout (knee of the measured trade-off);"
    )
    print(
        f"   avoid timeouts near the {rpc.DEFAULT_PARAMETERS.mean_idle_period:.1f} ms "
        f"idle period — they are Pareto-dominated."
    )


def main():
    survivors = phase1_screening()
    assert "state-aware (Sect. 3.1)" in survivors
    phase23_tuning()


if __name__ == "__main__":
    main()
