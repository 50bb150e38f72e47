"""README.md's measured figures and qualified names, checked against the package."""

import importlib
import re
from pathlib import Path

import pytest

import mqss
from mqss import (
    CollusionConfig,
    MeasureResendConfig,
    SessionConfig,
    Verdict,
    attacked,
    run_sessions,
)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# a note of how the table below it was measured, as key=value pairs
NOTE = re.compile(r"<!-- measured: (?P<method>.*?) -->\n(?P<table>(?:[ \t]*\|.*\n)+)")
MODULES = (
    "mqss", "protocol", "streams", "branch", "statevec", "ghz", "channel", "adversary", "cli"
)
QUALIFIED = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)(?:\(.*?\))?`")


def measured_figures():
    """(method, epsilon, m, figure) for each row of each noted table, the figure as printed."""
    rows = []
    for note in NOTE.finditer(README):
        method = dict(pair.split("=") for pair in note["method"].split())
        for line in note["table"].splitlines()[2:]:  # past the header and its rule
            epsilon, m, figure = (cell.strip(" `") for cell in line.strip(" |").split("|")[:3])
            rows.append((method, float(epsilon), int(m), figure))
    return rows


def measured_rate(method, epsilon, m) -> float:
    """The rate a note names, recomputed by ``run_sessions`` over its seeds."""
    session = SessionConfig(
        n_agents=int(method["n"]), secret_bits=m, epsilon=epsilon,
        max_attempts=int(method["max_attempts"]),
    )
    attack = MeasureResendConfig(int(method["victim"]))
    if method["attack"] == "collusion":
        attack = CollusionConfig(frozenset(map(int, method["colluders"].split(","))), attack)
    else:
        assert method["attack"] == "measure-resend"
    first, last = map(int, method["seeds"].split("-"))
    sessions = run_sessions(attacked(session, attack), range(first, last + 1))
    return float(sessions.ended(Verdict(method["rate"])).mean())


def test_readme_notes_every_measured_abort_rate():
    # five measure-resend rows and three collusion rows
    attacks = [method["attack"] for method, *_ in measured_figures()]
    assert attacks == ["measure-resend"] * 5 + ["collusion"] * 3


@pytest.mark.parametrize(
    "method, epsilon, m, figure",
    measured_figures(),
    ids=[f"{method['attack']}-eps{epsilon}-m{m}" for method, epsilon, m, _ in measured_figures()],
)
def test_readme_abort_rate_is_what_its_method_measures(method, epsilon, m, figure):
    places = len(figure.partition(".")[2])
    assert f"{measured_rate(method, epsilon, m):.{places}f}" == figure


def test_readme_qualified_names_resolve():
    names = sorted(set(QUALIFIED.findall(README)))
    assert "streams.BLOCK_ROWS" in names and "protocol.round_engine" in names
    unresolved = []
    for name in names:
        first, *path = name.split(".")
        target = mqss if first == "mqss" else importlib.import_module(f"mqss.{first}")
        try:
            for attr in path:
                target = getattr(target, attr)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []
