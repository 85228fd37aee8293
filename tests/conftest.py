import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kbpcheck import dc
from kbpcheck.engine import execute_kbp, generate_runs

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def model3():
    return dc.build_cdc(dc.DcParams())


@pytest.fixture(scope="session")
def scen_unknown():
    return dc.unknown_scenario()


@pytest.fixture(scope="session")
def sys_unknown(model3, scen_unknown):
    """The main system: 3 slots, unknown senders, validated predicates, reduced."""
    return generate_runs(model3, scen_unknown, "reduced")


@pytest.fixture(scope="session")
def sys_referendum(model3):
    return generate_runs(model3, dc.referendum_scenario(), "reduced")


@pytest.fixture(scope="session")
def kbp_systems(scen_unknown):
    out = {}
    for mode in ("speculative", "conservative"):
        model = dc.build_cdc(dc.DcParams(mode=mode), kbp=True)
        out[mode] = (model, execute_kbp(model, scen_unknown))
    return out


@pytest.fixture(scope="session")
def model2():
    return dc.build_cdc(dc.DcParams(slots=2))


@pytest.fixture(scope="session")
def scen2():
    return dc.unknown_scenario(slots=2)


@pytest.fixture(scope="session")
def naive2(model2, scen2):
    """The exhaustive key-enumeration system: 27 * 8 * 2^12 = 884,736 runs."""
    return generate_runs(model2, scen2, "naive")


@pytest.fixture(scope="session")
def reduced2(model2, scen2):
    return generate_runs(model2, scen2, "reduced")


def assignment_pairs(vs):
    """An assignment array (a system's meta["assignments"]) as a list of
    (slot_request, msg) pairs of tuples, in row order."""
    return [(tuple(sr), tuple(msg)) for sr, msg in vs.tolist()]


def run_of(system, sr, msg):
    """Index of the run with the given initial assignment."""
    return assignment_pairs(system.meta["assignments"]).index((tuple(sr), tuple(msg)))


def at_run(system, values, run):
    """The value a stored class vector gives one run: that of the run's class
    at the vector's level (model's history classes), read without widening
    the vector to every run."""
    groups = len(system.meta["assignments"])
    per = len(values) // groups
    return values[run // (system.n_runs // groups) * per + run % per]
