"""The stage helper: a second process solves the upper half of multi-block stages.

Each test starts its own helper on a small block size and waits until it is
ready, so its stages do go through the helper. References are solved with
the helper lock held, which keeps every stage in this process. Every wait
has a timeout.
"""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import rdsplit.reaction as rx
from rdsplit import (Field, Grid, NonConvergence, ReactionSpec, cubic_autocatalysis_system,
                     reaction_stage, run)
from rdsplit.splitting import SimState, strang_step_counted

TIMEOUT_S = 60.0
DT, T_END = 1 / 60, 0.2


def _wait_for_helper():
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        with rx._helper_lock:
            if rx._ready_helper() is not None:
                return
        assert rx._helper is not False, "the helper failed to start"
        time.sleep(0.01)
    pytest.fail(f"the helper did not report ready within {TIMEOUT_S} s")


@pytest.fixture
def sent(monkeypatch):
    """A fresh, ready helper on 64-cell blocks; the list of its requests' first cells."""
    _fresh_slot(monkeypatch)
    firsts = []
    send = rx._Helper.send
    monkeypatch.setattr(rx._Helper, "send", lambda self, req: firsts.append(req[-1][0])
                        or send(self, req))
    _wait_for_helper()
    yield firsts
    if rx._helper:
        rx._helper.close()


def _system():
    return cubic_autocatalysis_system(Grid(dim=2, n0=16, lower=-1.0, upper=1.0), alpha_exp=2)


def _in_process(fn):
    with rx._helper_lock:
        return fn()


def _assert_reports_equal(got, ref):
    for name in ("times", "energy", "conserved", "min_values", "reaction_iters_avg",
                 "diffusion_iters"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)


def test_run_matches_the_in_process_steps_bitwise(sent):
    system = _system()
    assert system.grid.n_cells == 4 * rx._BLOCK

    def steps():
        state = SimState(t=0.0, step_index=0, c=[s.initial.copy() for s in system.species])
        out = []
        for _ in range(round(T_END / DT)):
            state, itr, itd = strang_step_counted(state, system, DT)
            out.append(([f.values.copy() for f in state.c], itr, itd))
        return out

    ref_steps = _in_process(steps)
    ref = _in_process(lambda: run(system, DT, T_END))
    states = []
    got = run(system, DT, T_END, observers={k: (lambda st: states.append(st.c))
                                             for k in range(1, len(ref_steps) + 1)})
    assert sent == [128] * 2 * len(ref_steps)  # blocks 2 and 3 of every stage
    _assert_reports_equal(got, ref)
    for fields, (ref_fields, itr, itd), k in zip(states, ref_steps, range(1, 13)):
        for f, v in zip(fields, ref_fields):
            np.testing.assert_array_equal(f.values, v)
        assert (got.reaction_iters_avg[k], got.diffusion_iters[k]) == (itr, itd)


def test_a_reaction_without_products_matches_the_in_process_stage(sent):
    """All of beta is 0, so ln(eta dt) is ln(k_minus dt) alone, in either process."""
    fields = [s.initial for s in _system().species]
    spec = ReactionSpec((1.0, 0.0), (0.0, 0.0), 1.0, 0.5)
    ref_fields, ref_iters = _in_process(lambda: rx.reaction_stage_counted(fields, spec, DT))
    got_fields, got_iters = rx.reaction_stage_counted(fields, spec, DT)
    assert sent == [128]
    assert got_iters == ref_iters
    for f, r in zip(got_fields, ref_fields):
        np.testing.assert_array_equal(f.values, r.values)


def _quench_stage(failing):
    """The quench input of tests/test_reaction.py at the failing cells of a 10-cell grid."""
    spec = ReactionSpec.law_of_mass_action((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0),
                                           0.7252, 2.4492)
    vals = np.ones((4, 10))
    vals[:, failing] = np.array([3.114, 2.4267, 2.7336, 2.384])[:, None]
    g = Grid(dim=1, n0=10)
    return lambda: reaction_stage([Field(g, v) for v in vals], spec, 0.02)


def _failure(stage):
    with pytest.raises(NonConvergence) as exc_info:
        stage()
    return str(exc_info.value), exc_info.value.residual, exc_info.value.iterations


def test_failure_in_the_helper_half_raises_like_the_in_process_stage(sent, monkeypatch):
    """Blocks of 3 cells: [0, 2, 5, 7, 10]; the helper solves cells 5-9."""
    monkeypatch.setattr(rx, "_BLOCK", 3)
    stage = _quench_stage([7])
    ref = _in_process(lambda: _failure(stage))
    assert ref[0].endswith("first at flat index 7") and ref[2] == 51
    assert _failure(stage) == ref
    assert sent == [5]
    # both halves fail: the lower block wins, and the helper's reply is read all the same
    stage = _quench_stage([1, 7])
    ref = _in_process(lambda: _failure(stage))
    assert ref[0].endswith("1 cell(s) bracket collapsed to adjacent floats, "
                           "first at flat index 1")
    assert _failure(stage) == ref
    # one failing cell in each of the helper's blocks: the helper's lower block wins
    stage = _quench_stage([6, 8])
    ref = _in_process(lambda: _failure(stage))
    assert ref[0].endswith("1 cell(s) bracket collapsed to adjacent floats, "
                           "first at flat index 6")
    assert _failure(stage) == ref
    assert sent == [5, 5, 5]
    assert rx._helper and rx._helper.proc.poll() is None


def test_a_failing_helper_half_is_solved_again_in_this_process(sent, monkeypatch):
    """The helper hands back a half it cannot solve cleanly, and no exception
    crosses the pipe: this process solves that half again and raises what the
    in-process stage raises. Blocks of 3 cells; the helper's half fails at cell 7."""
    monkeypatch.setattr(rx, "_BLOCK", 3)
    stage = _quench_stage([7])
    ref = _in_process(lambda: _failure(stage))
    solve, firsts = rx._solve_blocks, []
    monkeypatch.setattr(rx, "_solve_blocks", lambda *args: firsts.append(args[3][0])
                        or solve(*args))
    assert _failure(stage) == ref
    assert sent == [5]
    assert firsts == [0, 5]  # the lower half, then the helper's half in this process
    assert rx._helper and rx._helper.proc.poll() is None


def test_an_error_in_the_lower_half_leaves_the_helper_running(sent, monkeypatch):
    """Any Exception in this process's half reads the helper's reply before it
    propagates, so the helper serves the next stage; only an interrupt closes it."""
    system = _system()
    fields = [s.initial for s in system.species]
    ref = _in_process(lambda: reaction_stage(fields, system.reaction, DT))
    proc, solve = rx._helper.proc, rx._solve_blocks

    def failing(*args):
        raise ValueError("not a solver error")

    monkeypatch.setattr(rx, "_solve_blocks", failing)
    with pytest.raises(ValueError, match="not a solver error"):
        reaction_stage(fields, system.reaction, DT)
    assert sent == [128]
    assert rx._helper and proc.poll() is None
    monkeypatch.setattr(rx, "_solve_blocks", solve)
    got = reaction_stage(fields, system.reaction, DT)
    assert sent == [128, 128]  # the next multi-block stage sends to the same helper
    assert rx._helper.proc is proc and proc.poll() is None
    for f, r in zip(got, ref):
        np.testing.assert_array_equal(f.values, r.values)


def test_a_killed_helper_leaves_the_report_unchanged(sent):
    system = _system()
    ref = _in_process(lambda: run(system, DT, T_END))

    def kill(state):
        rx._helper.proc.kill()
        rx._helper.proc.wait(timeout=TIMEOUT_S)

    got = run(system, DT, T_END, observers={3: kill})
    _assert_reports_equal(got, ref)
    assert len(sent) == 7  # both stages of steps 1-3, then the send that finds it dead
    assert rx._helper is False  # closed for good: no stage restarts it
    _assert_reports_equal(run(system, DT, T_END), ref)
    assert len(sent) == 7


def test_threads_match_the_serial_run(sent):
    """More threads than cores, switching often: one stage at a time takes the
    helper, every other solves in its own thread, and every report is the serial one."""
    system = _system()
    ref = _in_process(lambda: run(system, DT, T_END))
    n = (os.cpu_count() or 1) + 1
    start = threading.Barrier(n, timeout=TIMEOUT_S)
    reports = [None] * n

    def work(i):
        start.wait()
        reports[i] = run(system, DT, T_END)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in reports:
        _assert_reports_equal(got, ref)
    assert sent


def _fresh_slot(monkeypatch):
    monkeypatch.setattr(rx, "_helper", None)
    monkeypatch.setattr(rx, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rx, "_BLOCK", 64)


def test_a_helper_of_other_files_is_closed_for_good(monkeypatch):
    _fresh_slot(monkeypatch)
    system = _system()
    ref = _in_process(lambda: run(system, DT, T_END))
    monkeypatch.setattr(rx, "_imported_files", lambda: ("another rdsplit", "another numpy"))
    with rx._helper_lock:
        assert rx._ready_helper() is None
    proc = rx._helper.proc
    deadline = time.monotonic() + TIMEOUT_S
    while rx._helper is not False:
        assert time.monotonic() < deadline, "the helper's ready message was never read"
        with rx._helper_lock:
            assert rx._ready_helper() is None
        time.sleep(0.01)
    assert proc.poll() is not None
    _assert_reports_equal(run(system, DT, T_END), ref)
    assert rx._helper is False


def test_an_interrupt_in_the_lower_half_closes_the_helper(sent, monkeypatch):
    system = _system()
    ref = _in_process(lambda: run(system, DT, T_END))
    proc = rx._helper.proc
    solve = rx._solve_blocks

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(rx, "_solve_blocks", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(system, DT, T_END)
    assert sent == [128]
    assert proc.poll() is not None and rx._helper is False
    monkeypatch.setattr(rx, "_solve_blocks", solve)
    _assert_reports_equal(run(system, DT, T_END), ref)
    assert sent == [128]  # the next stages solve in this process


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd")
def test_the_helper_reads_no_stdin_and_prints_to_stderr(sent):
    """Requests and replies travel on their own connection: the helper's stdin
    is /dev/null and its stdout is where this process's stderr points, so
    nothing it prints can reach a reply or the caller's stdout."""
    fds = Path(f"/proc/{rx._helper.proc.pid}/fd")
    assert os.path.samestat(os.stat(fds / "0"), os.stat(os.devnull))
    assert os.path.samestat(os.stat(fds / "1"), os.fstat(2))


def test_a_helper_killed_before_its_reply_leaves_the_stage_unchanged(sent, monkeypatch):
    system = _system()
    fields = [s.initial for s in system.species]
    ref = _in_process(lambda: reaction_stage(fields, system.reaction, DT))
    send, solve, firsts = rx._Helper.send, rx._solve_blocks, []

    def send_and_kill(self, request):
        self.proc.send_signal(signal.SIGSTOP)  # the request waits in the pipe, never answered
        send(self, request)
        self.proc.kill()
        self.proc.wait(timeout=TIMEOUT_S)

    monkeypatch.setattr(rx._Helper, "send", send_and_kill)
    monkeypatch.setattr(rx, "_solve_blocks", lambda *args: firsts.append(args[3][0])
                        or solve(*args))
    got = reaction_stage(fields, system.reaction, DT)
    assert sent == [128] and rx._helper is False
    assert firsts == [0, 128]  # the lower half, then the upper half in this process
    for f, r in zip(got, ref):
        np.testing.assert_array_equal(f.values, r.values)


def test_a_helper_that_cannot_start_leaves_the_run_unchanged(monkeypatch, tmp_path):
    _fresh_slot(monkeypatch)
    system = _system()
    ref = _in_process(lambda: run(system, DT, T_END))
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    _assert_reports_equal(run(system, DT, T_END), ref)
    assert rx._helper is False


def test_one_block_stages_start_no_helper(monkeypatch):
    monkeypatch.setattr(rx, "_helper", None)
    monkeypatch.setattr(rx, "_usable_cpus", lambda: 2)
    system = _system()
    assert system.grid.n_cells <= rx._BLOCK
    run(system, DT, T_END)
    assert rx._helper is None
    monkeypatch.setattr(rx, "_BLOCK", 64)
    monkeypatch.setattr(rx, "_usable_cpus", lambda: 1)
    run(system, DT, T_END)
    assert rx._helper is None


# a subprocess's start: a ready helper on 64-cell blocks that one run has used
_READY_HELPER = f"""
import os, signal, sys, time, warnings
import rdsplit.reaction as rx
assert rx._helper is None and "subprocess" not in sys.modules
from rdsplit import Grid, cubic_autocatalysis_system, run
rx._BLOCK, rx._usable_cpus = 64, lambda: 2
system = cubic_autocatalysis_system(Grid(2, 16, -1.0, 1.0), alpha_exp=1)
deadline = time.monotonic() + {TIMEOUT_S}
while True:
    with rx._helper_lock:
        if rx._ready_helper() is not None:
            break
    assert rx._helper is not False and time.monotonic() < deadline
    time.sleep(0.01)
run(system, 0.05, 0.1)
print(rx._helper.proc.pid, flush=True)
"""


def _python(*args, **kwargs):
    src = str(Path(rx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


def _running(pid):
    """Whether pid is a process that has not exited; a zombie, which its new
    parent may be slow to reap or never reap, has exited."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_process_leaves_no_helper_behind():
    """Under -X dev -W error: importing starts nothing, a run through the helper
    warns about nothing, and the helper has exited when its parent has."""
    with _python("-X", "dev", "-W", "error", "-c", _READY_HELPER, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=2 * TIMEOUT_S)
    assert proc.returncode == 0, err
    assert err == ""
    with pytest.raises(ProcessLookupError):
        os.kill(int(out), 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat")
def test_the_helper_ends_with_a_killed_parent_whatever_it_forked(tmp_path):
    """A forked child holds copies of both pipe ends, so the helper's stdin
    stays open after its parent is SIGKILLed; the helper must end anyway."""
    script = _READY_HELPER + textwrap.dedent(f"""
        with warnings.catch_warnings():
            # CPython >= 3.12 warns on a fork while OpenBLAS threads run; the child only sleeps
            warnings.simplefilter("ignore", DeprecationWarning)
            child = os.fork()
        if child == 0:
            time.sleep({TIMEOUT_S})
            os._exit(0)
        print(child, flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    """)
    pids = []
    with open(tmp_path / "stderr", "w") as err, _python("-c", script, stdout=subprocess.PIPE,
                                                         stderr=err) as proc:
        try:
            for _ in range(2):  # not read to EOF: the child holds the pipe until killed below
                line = proc.stdout.readline()
                assert line.strip().isdigit(), (tmp_path / "stderr").read_text()
                pids.append(int(line))
            assert proc.wait(timeout=2 * TIMEOUT_S) == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while _running(pids[0]):
                assert time.monotonic() < deadline, "the helper outlived its parent"
                time.sleep(0.05)
            assert _running(pids[1]), "the forked child ended before the helper"
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
