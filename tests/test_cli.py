"""CLI parsing, reporting, transcripts, and exit codes."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from mqss.cli import (
    EXIT_OK,
    main,
    parse_config,
    read_transcript,
    run_experiment,
    write_transcript,
)
import mqss.cli as cli_module
from mqss.adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    MeasureResendConfig,
    collective_attack,
)
from mqss.ghz import GhzSpec
from mqss.protocol import (
    BatchLimitError,
    IndeterminateCheckError,
    InsufficientRawKeyError,
    Mode,
    RoundBatch,
    RoundCase,
    RoundRecord,
    SessionConfig,
    case_table,
    run_rounds,
    run_sessions,
)
from mqss.streams import child_seeds


# --- parsing ------------------------------------------------------------------


def test_defaults():
    config = parse_config([])
    assert config.session == SessionConfig(n_agents=3, secret_bits=16,
                                           epsilon=0.0, seed=0)
    assert config.trials == 1
    assert config.attack is None
    assert config.rounds_only is None


def test_basic_flags():
    config = parse_config(["--agents", "3", "--secret-bits", "16", "--seed", "7"])
    assert config.session.n_agents == 3
    assert config.session.secret_bits == 16
    assert config.session.seed == 7


def test_collusion_flags():
    config = parse_config(
        ["--attack", "collusion", "--colluders", "1,2", "--victim", "3",
         "--trials", "1000"]
    )
    assert config.attack == CollusionConfig(frozenset({1, 2}), MeasureResendConfig(3))
    assert config.trials == 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "1.5"],
        ["--secret-bits", "0"],
        ["--agents", "1"],
        ["--agents", "30"],                                  # past the qubit cap
        ["--attack", "measure-resend"],                      # missing victim
        ["--attack", "measure-resend", "--victim", "9"],     # out of range
        ["--attack", "collusion", "--victim", "3"],          # missing colluders
        ["--attack", "collusion", "--colluders", "1,3", "--victim", "3"],
        ["--attack", "collusion", "--colluders", "1,2,3", "--victim", "3"],
        ["--attack", "collusion", "--colluders", "1,4", "--victim", "3"],  # no agent 4
        ["--attack", "collusion", "--colluders", "0", "--victim", "2"],    # no agent 0
        ["--attack", "bogus"],
        ["--trials", "0"],
        ["--rounds-only", "0"],
        ["--probe-overlap", "1.5"],
        ["--probe-overlap", "0.2"],                          # no attack reads it
        ["--attack", "collusion", "--colluders", "1", "--victim", "2",
         "--probe-overlap", "0.5"],
        ["--attack", "collusion", "--colluders", "1", "--victim", "2",
         "--transcript", "x.jsonl"],
        ["--seed", "-1"],
        ["--victim", "9"],                                   # no attack reads it
        ["--attack", "measure-resend", "--victim", "2", "--colluders", "1"],
        ["--attack", "collective", "--transcript", "x.jsonl"],  # no rounds to write
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "attack",
    [["measure-resend"], ["collusion", "--colluders", "1"]],
    ids=["measure-resend", "collusion"],
)
def test_a_victim_past_the_last_agent_is_named_as_an_agent(attack, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--attack", *attack, "--victim", "9"])
    assert excinfo.value.code == 2
    assert "invalid session: victim 9 is past agent 3" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing/x.jsonl", "."], ids=["no-directory", "a-directory"])
def test_a_transcript_path_that_cannot_be_written_is_a_usage_error(
    tmp_path, monkeypatch, capsys, where
):
    # refused at parse time, before a session runs, not after every session ran
    monkeypatch.setattr(cli_module, "run_experiment", lambda config: pytest.fail("ran"))
    path = tmp_path / where
    with pytest.raises(SystemExit) as excinfo:
        main(["--trials", "2", "--transcript", str(path)])
    assert excinfo.value.code == 2
    assert f"--transcript {path}" in capsys.readouterr().err
    writable = tmp_path / "x.jsonl"
    assert parse_config(["--transcript", str(writable)]).transcript == writable


def test_rounds_only_reads_no_trials(capsys):
    # statistics mode plays one batch of rounds, so a trial count would be ignored
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--rounds-only", "200", "--trials", "5"])
    assert excinfo.value.code == 2
    assert "--rounds-only reads no --trials" in capsys.readouterr().err
    assert parse_config(["--rounds-only", "200"]).trials == 1


def test_config_file_session_rejected_by_session_config_exits_2(tmp_path, capsys):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("agents = 1\n")
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--config", str(config_file)])
    assert excinfo.value.code == 2
    assert "invalid session: need at least 2 agents" in capsys.readouterr().err


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("MQSS_SEED", "99")
    assert parse_config([]).session.seed == 99
    assert parse_config(["--seed", "3"]).session.seed == 3


@pytest.mark.parametrize("value", ["abc", "1.5", "--7"])
def test_a_malformed_env_seed_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MQSS_SEED", value)
    with pytest.raises(SystemExit) as excinfo:
        parse_config([])
    assert excinfo.value.code == 2
    assert f"MQSS_SEED must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("env_seed", [None, "5"])
def test_config_file_and_flag_precedence(tmp_path, monkeypatch, env_seed):
    # seed precedence: MQSS_SEED, then the config file, then the flag
    if env_seed is None:
        monkeypatch.delenv("MQSS_SEED", raising=False)
    else:
        monkeypatch.setenv("MQSS_SEED", env_seed)
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "# experiment setup\n"
        "agents = 4\n"
        "secret-bits = 8\n"
        "seed = 21\n"
    )
    config = parse_config(["--config", str(config_file)])
    assert config.session.n_agents == 4
    assert config.session.secret_bits == 8
    assert config.session.seed == 21
    config = parse_config(["--config", str(config_file), "--agents", "2"])
    assert config.session.n_agents == 2
    assert config.session.secret_bits == 8
    config = parse_config(["--config", str(config_file), "--seed", "3"])
    assert config.session.seed == 3


@pytest.mark.parametrize("line", [
    "bogus = 1",
    "agent = 4",                     # an abbreviation names no flag exactly
    "config = other.cfg",
    "attack = bogus",
    "report = json",
    "trials = 0",
    "colluders = 1,x",
    "seed = -1",
])
def test_config_file_unknown_key(tmp_path, line):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(line + "\n")
    with pytest.raises(SystemExit) as excinfo:
        parse_config(["--config", str(config_file)])
    assert excinfo.value.code == 2


# --- transcripts ----------------------------------------------------------------


def test_record_json_round_trip(tmp_path):
    record = RoundRecord(
        round_index=5,
        spec=GhzSpec((0, 1, 1, 0), 1),
        modes=(Mode.SHARE, Mode.CHECK, Mode.SHARE, Mode.CHECK),
        results=(0, 1, 1, 0),
        classification=RoundCase.CASE3,
        probe_outcome=None,
    )
    # the record is row 5 of its batch
    specs = [GhzSpec((0, 0, 0, 0), 0)] * 5 + [record.spec]
    share = [[True] * 4] * 5 + [[mode is Mode.SHARE for mode in record.modes]]
    batch = RoundBatch.from_specs(specs, share, [[0] * 4] * 5 + [list(record.results)])
    path = tmp_path / "t.jsonl"
    write_transcript(path, [(3, batch)])
    trial, parsed = read_transcript(path)[5]
    assert trial == 3
    assert parsed == record


def test_record_json_matches_a_sorted_key_dump(tmp_path):
    collective = collective_attack(CollectiveAttackConfig(probe_overlap=0.5))
    configs = [
        (SessionConfig(epsilon=0.05, seed=9), 400),
        (SessionConfig(n_agents=2, seed=10, attack=collective), 400),
        (SessionConfig(n_agents=4, seed=11, attack=collective), 200),
        (SessionConfig(n_agents=5, epsilon=0.1, seed=12), 200),
        (SessionConfig(n_agents=12, seed=13), 200),
        (SessionConfig(n_agents=2, seed=14), 10_050),  # round indices past 9,999
        (SessionConfig(seed=15), 0),                   # an empty batch writes nothing
    ]
    grouped = [
        (trial, run_rounds(config, rounds)) for trial, (config, rounds) in enumerate(configs)
    ]
    grouped.append((7, run_rounds(SessionConfig(seed=16), 30)))  # a trial after an empty one
    # 113 short batches share chunks, in which trials 9, 10, 99, 100 and 101 and
    # the round indices of trials 10 and 100 cross from 9 to 10 and 99 to 100
    for trial in range(8, 121):
        rows = 120 if trial in (10, 100) else 1 + trial % 40
        grouped.append((trial, run_rounds(SessionConfig(seed=trial), rows)))
    lines = []
    for trial, batch in grouped:
        probes = [None] * len(batch) if batch.probe is None else batch.probe.tolist()
        rows = zip(batch.bits.tolist(), batch.phases.tolist(), batch.share.tolist(),
                   batch.results.tolist(), probes)
        for index, (bits, phase, share, results, probe) in enumerate(rows):
            modes = [Mode.SHARE if chose else Mode.CHECK for chose in share]
            payload = {
                "trial": trial,
                "round_index": index,
                "spec": {"x": "".join(str(int(b)) for b in bits), "b": phase},
                "modes": [m.value for m in modes],
                "results": results,
                "classification": case_table(len(modes))[modes.count(Mode.CHECK)].value,
                "probe": probe,
            }
            lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    path = tmp_path / "t.jsonl"
    write_transcript(path, grouped)
    assert path.read_text() == "".join(lines)
    assert len(lines) == 14_113
    assert sum(line.startswith('{"classification":"case1"') for line in lines) > 0
    assert sum('"probe":1' in line for line in lines) > 0


def test_a_recorded_run_writes_each_sessions_rounds_as_its_outcome_holds_them(tmp_path):
    argv = ["--agents", "2", "--secret-bits", "4", "--epsilon", "0.05", "--trials", "12",
            "--seed", "6"]
    assert main(argv + ["--transcript", str(tmp_path / "run.jsonl")]) == EXIT_OK
    sessions = run_sessions(parse_config(argv).session, child_seeds(6, 12), collect_records=True)
    assert (sessions.stat("rounds_used") > parse_config(argv).session.batch_size).any()  # topped up
    write_transcript(tmp_path / "outcomes.jsonl", enumerate(outcome.rounds for outcome in sessions))
    assert (tmp_path / "run.jsonl").read_bytes() == (tmp_path / "outcomes.jsonl").read_bytes()


def test_rounds_only_plays_the_collective_attack(monkeypatch):
    played = []

    def keep(*args):
        played.append(run_rounds(*args))
        return played[-1]

    monkeypatch.setattr(cli_module, "run_rounds", keep)
    argv = ["--rounds-only", "2000", "--seed", "8", "--report", "cases"]
    assert main(argv) == EXIT_OK
    assert main(argv + ["--attack", "collective", "--probe-overlap", "0"]) == EXIT_OK
    honest, attacked = played
    assert honest.probe is None and attacked.probe is not None

    def parity_failures(batch):
        rows = batch.select(batch.share.all(axis=1))
        return np.count_nonzero(np.bitwise_xor.reduce(rows.results, axis=1) != rows.phases)

    # a probe at overlap 0 records the branch: every all-Check round reads it,
    # and the all-Share rounds lose the parity law half of the time
    case2 = attacked.select(~attacked.share.any(axis=1))
    branch = case2.results[:, 0] != case2.bits[:, 0]
    assert len(case2) > 100 and len(set((branch ^ case2.probe).tolist())) == 1
    assert parity_failures(honest) == 0
    case1 = np.count_nonzero(attacked.share.all(axis=1))
    assert 0.3 * case1 < parity_failures(attacked) < 0.7 * case1


@pytest.mark.parametrize("attack", [
    ["--attack", "collective", "--probe-overlap", "0.5"],
    ["--attack", "collusion", "--colluders", "1", "--victim", "2"],
])
def test_rounds_only_transcripts_for_every_attack(tmp_path, attack):
    path = tmp_path / "t.jsonl"
    argv = ["--rounds-only", "300", "--seed", "3", "--transcript", str(path)]
    assert main(argv + attack) == EXIT_OK
    entries = read_transcript(path)
    assert [record.round_index for _, record in entries] == list(range(300))
    probes = {record.probe_outcome for _, record in entries}
    assert probes == ({0, 1} if attack[1] == "collective" else {None})


def test_transcript_round_trip_through_cli(tmp_path):
    path = tmp_path / "transcript.jsonl"
    config = parse_config(
        ["--rounds-only", "50", "--seed", "5", "--transcript", str(path)]
    )
    run_experiment(config)
    entries = read_transcript(path)
    assert len(entries) == 50
    records = [record for _, record in entries]
    assert [record.round_index for record in records] == list(range(50))
    parsed = RoundBatch.from_specs(
        [record.spec for record in records],
        [[mode is Mode.SHARE for mode in record.modes] for record in records],
        [record.results for record in records],
    )
    assert parsed == run_rounds(SessionConfig(seed=5), 50)


def test_transcript_determinism(tmp_path):
    args = ["--trials", "2", "--secret-bits", "2", "--seed", "11"]
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    assert main(args + ["--transcript", str(path_a)]) == EXIT_OK
    assert main(args + ["--transcript", str(path_b)]) == EXIT_OK
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.stat().st_size > 0


def test_transcript_groups_by_trial(tmp_path):
    path = tmp_path / "t.jsonl"
    main(["--trials", "3", "--secret-bits", "1", "--seed", "4",
          "--transcript", str(path)])
    trials = [json.loads(line)["trial"] for line in path.read_text().splitlines()]
    assert trials == sorted(trials)
    assert set(trials) == {0, 1, 2}


# --- experiment execution and reports --------------------------------------------


def test_honest_run_reports_success(capsys):
    code = main(["--secret-bits", "4", "--seed", "2", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdicts: aborted_step5=0 aborted_step6=0 completed=3" in out
    assert "reconstruction matches: 3/3" in out
    assert "step5 error rate (mean): 0.000000" in out
    assert "step6 error rate (mean): 0.000000" in out


def test_rounds_only_cases_report(capsys):
    code = main(["--rounds-only", "3000", "--report", "cases", "--seed", "8"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "rounds: 3000" in out
    for case in ("case1", "case2", "case3", "discard"):
        assert case in out
    # cases report stays terse
    assert "verdicts" not in out


def test_collective_run_reports_leakage(capsys):
    code = main(["--attack", "collective", "--probe-overlap", "1.0",
                 "--trials", "1000", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "detection_rate=0.000000" in out
    assert "mutual_information" in out


@pytest.mark.parametrize("overlap", ["1", "0.5"])
def test_collective_detection_rate_prints_its_wilson_interval(capsys, overlap):
    main(["--attack", "collective", "--probe-overlap", overlap, "--trials", "1000", "--seed", "3"])
    printed = re.search(
        r"detection_rate=(\S+) \[(\S+), (\S+)\] \(Wilson z=3, n=1000\) mutual_information=",
        capsys.readouterr().out,
    )
    assert printed is not None
    rate, low, high = map(float, printed.groups())
    if overlap == "1":  # 0/n: the top end is 9/(n + 9)
        assert (rate, low) == (0.0, 0.0) and high == pytest.approx(9 / 1009, abs=1e-6)
    else:  # the bounds are the rates r with (p - r)^2 = 9 r (1 - r) / n
        roots = np.roots([1 + 9 / 1000, -(2 * rate + 9 / 1000), rate * rate]).real
        assert 0 < low < rate < high < 1
        assert [low, high] == pytest.approx(sorted(roots), abs=1e-6)


@pytest.mark.parametrize("successes, total", [(0, 1000), (1000, 1000), (687, 1000), (3, 10)])
def test_rates_print_their_wilson_interval_at_z_3(successes, total):
    # the bounds are the rates r with (p - r)^2 = 9 r (1 - r) / n, as polynomial roots
    p = successes / total
    roots = np.roots([1 + 9 / total, -(2 * p + 9 / total), p * p]).real
    printed = re.fullmatch(
        rf"{p:.6f} \[(\S+), (\S+)\] \(Wilson z=3, n={total}\)",
        cli_module._interval(successes, total),
    )
    assert printed is not None
    assert [float(bound) for bound in printed.groups()] == pytest.approx(
        [max(0.0, roots.min()), min(1.0, roots.max())], abs=1e-6
    )


def test_failed_honest_session_exits_one(capsys, monkeypatch):
    import mqss.cli as cli_module
    from mqss.protocol import RoundAttack, run_sessions
    from mqss.statevec import PAULI_X, apply_gate

    def flip(state, particle, rng):  # every check round then misses its pattern there
        return apply_gate(state, particle, PAULI_X)

    def failing(config, seeds, **kwargs):  # the honest sessions, made to fail step 5
        config = replace(config, attack=RoundAttack(interceptors={2: flip}))
        return run_sessions(config, seeds, **kwargs)

    monkeypatch.setattr(cli_module, "run_sessions", failing)
    code = cli_module.main(["--secret-bits", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "aborted_step5=1" in out


def test_a_run_without_a_transcript_builds_no_session_outcome(built, capsys, tmp_path):
    run = ["--attack", "measure-resend", "--victim", "2", "--trials", "6", "--secret-bits", "2"]
    assert main(run) == EXIT_OK
    report = capsys.readouterr().out
    assert built == {}
    # a transcript reads each session's rounds from the sessions' columns too
    assert main(run + ["--transcript", str(tmp_path / "run.jsonl")]) == EXIT_OK
    assert built == {}
    assert report.splitlines()[:-1] == capsys.readouterr().out.splitlines()[:-1]


def test_measure_resend_sessions_abort_but_exit_zero(capsys):
    # attack experiments report detection statistics; aborting sessions are
    # the expected observation, not a tool failure
    code = main(["--attack", "measure-resend", "--victim", "1",
                 "--secret-bits", "2", "--trials", "4", "--seed", "13"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "aborted_step6" in out


@pytest.mark.parametrize(
    "error", [BatchLimitError, IndeterminateCheckError, InsufficientRawKeyError]
)
def test_session_failures_exit_one_with_the_reason(capsys, monkeypatch, error):
    def fail(config, seeds, **kwargs):
        raise error("no key this time")

    monkeypatch.setattr(cli_module, "run_sessions", fail)
    assert main(["--secret-bits", "2"]) == 1
    assert "error: no key this time" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_programming_errors_are_not_swallowed(monkeypatch, error):
    def fail(config, seeds, **kwargs):
        raise error("a bug")

    monkeypatch.setattr(cli_module, "run_sessions", fail)
    with pytest.raises(error):
        main(["--secret-bits", "2"])


@pytest.mark.parametrize("attack", [
    ["--attack", "collective"],
    ["--attack", "collusion", "--colluders", "1", "--victim", "2", "--agents", "2",
     "--secret-bits", "1"],
])
def test_a_short_trial_count_is_raised_with_a_warning(capsys, attack):
    assert main(attack + ["--trials", "20", "--seed", "6"]) == EXIT_OK
    captured = capsys.readouterr()
    kind = attack[1]
    assert f"warning: --trials 20 raised to 1000 for --attack {kind}" in captured.err
    assert "trials=1000" in captured.out
    assert main(attack + ["--trials", "1000", "--seed", "6"]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
