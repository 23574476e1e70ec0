"""Any small config ends ``odup simulate`` in a documented exit code.

Configs are drawn with each of the keys below in range or out of it, and
the data is either the synthetic sessions or an event log with malformed
lines mixed in. Every run must raise nothing and either exit 0 with nothing
on stderr or exit 2, 3, 4 or 5 with one line there: a bad input ends in a
named error and its exit code, never in a traceback.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from odup import cli

EXIT_CODES = (0, 2, 3, 4, 5)

# each key's raw config values: ones a run takes, then edge ones, which are
# out of range or in range but extreme
SETTINGS = {
    "d": (["2", "4", "8", "16"], ["-4", "0", "1", "4294967296", "1000000000000000000000000000000", "x"]),
    "n": (["2", "4"], ["1", "0", "-1", "65536", "2.5"]),
    "k": (["8", "16"], ["1", "2", "0", "65536"]),
    "tau": (["0.1", "0.5"], ["1e-300", "0", "-1", "nan", "inf"]),
    "l2": (["0", "1e-5", "0.1"], ["1e300", "-1", "nan", "-inf"]),
    "r": (["1", "2", "10", "1000"], ["1e308", "0.5", "-1", "nan"]),
    "mmd_samples": (["0", "2", "16"], ["1", "-1", "1000000000"]),
    "slices": (["1", "1:1", "2:1:1", "1:3:6:10:15"], ["1:1e-300", "0:1", "a:b", "1:-1", "1:inf", "1::1"]),
    "strategy": (["full", "stack", "queue"], ["fifo", "QUEUE", ""]),
    "ratio_mode": (["fixed", "adaptive"], ["auto"]),
    "encoder": (["mean_pool", "last_gated"], ["rnn"]),
}

# lines an event log must refuse, each with its fault
BAD_LINES = [
    b"u1\ti2",                # two fields
    b"u1\ti2\t3\t4",          # four fields
    b"u1\ti2\tnoon",          # not a number
    b"u1\ti2\t-5",            # negative
    b"u1\ti2\tnan",           # not finite
    b"u1\ti2\t1e999",         # not finite
    b"u1\t\xff\t3",           # not UTF-8
]


@st.composite
def settings_lines(draw) -> list[str]:
    """A ``key = value`` line per key of SETTINGS, at most two of them at an edge value."""
    broken = draw(st.lists(st.sampled_from(sorted(SETTINGS)), max_size=2))
    return [f"{key} = {draw(st.sampled_from(SETTINGS[key][key in broken]))}" for key in SETTINGS]


@st.composite
def event_logs(draw) -> bytes:
    """Sessions of a few users over a small catalogue, their events shuffled,
    with none to three malformed or blank lines put in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_users, n_items = draw(st.integers(1, 40)), draw(st.integers(2, 60))
    lines = []
    for user in range(n_users):
        t = float(rng.integers(0, 10**6))
        for _ in range(int(rng.integers(1, 12))):
            lines.append(b"u%d\ti%d\t%.1f" % (user, rng.integers(n_items), t))
            t += float(rng.choice([1.0, 60.0, 40000.0]))
    lines = [lines[i] for i in rng.permutation(len(lines))]
    for line in draw(st.lists(st.sampled_from(BAD_LINES + [b""]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b"", b"\r\n"]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(lines=settings_lines(), log=st.none() | event_logs())
def test_simulate_ends_in_a_documented_exit_code(lines, log):
    with tempfile.TemporaryDirectory(prefix="odup-fuzz-") as tmp:
        lines = lines + ["rec_epochs = 1", "codec_epochs = 1", "codec_batch = 64", "timing = zero"]
        if log is None:
            lines += ["synth_vocab = 60", "synth_sessions = 120"]
        else:
            path = os.path.join(tmp, "events.tsv")
            with open(path, "wb") as fh:
                fh.write(log)
            lines.append(f"data = {path}")
        config = os.path.join(tmp, "exp.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", config, "--out", os.path.join(tmp, "out"), "simulate"])
    event(f"exit {code}")
    said = [line for line in err.getvalue().splitlines() if line.strip()]
    assert code in EXIT_CODES, (code, said)
    assert len(said) == (code != 0), said
