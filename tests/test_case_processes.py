"""The cases of a `schrodinger-intertwine` run shared among forked processes.

Each test runs its scenario in a fresh interpreter with one BLAS thread, so
that the process is single-threaded and may fork, and with
`os.sched_getaffinity` reporting `cpus` CPUs, so that the forked path is
taken whatever the machine.  The scenario counts the children `os.fork`
makes and checks that every one was reaped, then prints one JSON line.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import quantcurv

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="cases are forked only on Linux"
)

_PRELUDE = """
import json, os, sys, threading, time
from quantcurv import cli, experiments

forks = []
_fork = os.fork


def counting_fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork
os.sched_getaffinity = lambda _pid: set(range(CPUS))


def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def raising(exc):
    def make():
        raise exc
    return make


def intertwine(*names, N=8, t_end=0.02):
    params = {"N": N, "dt": 1e-3, "t_end": t_end,
              "cases": [{"hamiltonian": h, "tol": 1e-3} for h in names]}
    return experiments.run_experiment("schrodinger-intertwine", params, None)


def outcome(*names, **kw):
    try:
        intertwine(*names, **kw)
    except BaseException as exc:
        return {"type": type(exc).__name__, "message": str(exc), "reaped": reaped()}
    return {"type": None, "reaped": reaped()}
"""


def _scenario(body: str, cpus: int = 2, timeout: float = 120) -> dict:
    src = os.path.dirname(os.path.dirname(quantcurv.__file__))
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    script = f"CPUS = {cpus}\n{_PRELUDE}\nresult = {{}}\n{textwrap.dedent(body)}\n"
    script += "result['forks'] = len(forks)\nprint(json.dumps(result))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_forked_cases_give_the_rows_of_one_process():
    # six cases on four processes: this one runs cases 0 and 4, the children
    # 1 and 5, 2, and 3; the same rows, to the bit and the type, as one process
    got = _scenario(
        """
        names = sorted(experiments.HAMILTONIAN_LIBRARY)
        forked = intertwine(*names)
        result["forked"] = [repr(forked), len(forks), reaped()]
        os.sched_getaffinity = lambda _pid: {0}
        result["alone"] = [repr(intertwine(*names)), len(forks), reaped()]
        """,
        cpus=4,
    )
    assert got["forked"][1:] == [3, True]
    assert got["alone"][1:] == [3, True]  # no fork on one CPU
    assert got["forked"][0] == got["alone"][0]


def test_a_case_failing_in_a_child_fails_the_run_with_its_message(tmp_path):
    # rotation_x leaves the chart before t = 0.1 at N = 16; as the second case
    # it runs in the child, and the run reports it as it would in one process
    out = tmp_path / "transport.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "experiments": [{
        "experiment": "schrodinger-intertwine",
        "parameters": {"N": 16, "dt": 1e-3, "t_end": 0.1, "cases": [
            {"hamiltonian": "rotation_z", "tol": 1e-6},
            {"hamiltonian": "rotation_x", "tol": 1e-6},
        ]},
        "output_path": str(out),
    }]}))
    got = _scenario(
        f"""
        import contextlib, io
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            result["status"] = cli.main(["run", {str(config)!r}])
        result["err"] = err.getvalue()
        result["reaped"] = reaped()
        """
    )
    assert got["status"] == 1
    assert "experiment failure: ValueError: " in got["err"]
    assert "rotation_x at N=16: the flow left the chart after t=" in got["err"]
    assert got["forks"] == 1 and got["reaped"]
    assert not out.exists()


def test_the_first_failing_case_in_config_order_is_reported():
    # on two processes this one runs cases 0, 2 and 4, the child 1 and 3:
    # whichever process fails first in time, the lower index wins
    got = _scenario(
        """
        lib = experiments.HAMILTONIAN_LIBRARY
        lib["harmonic_imag"] = raising(ZeroDivisionError("case harmonic_imag"))
        lib["rotation_y"] = raising(ValueError("case rotation_y"))
        # failing cases 1 (child) and 2 (this process), then 2 (this) and 3 (child)
        result["child first"] = outcome("rotation_z", "harmonic_imag", "rotation_y", "harmonic_real")
        result["parent first"] = outcome("rotation_z", "harmonic_real", "rotation_y", "harmonic_imag")
        # case 0 fails in this process while the child's cases succeed
        result["case 0"] = outcome("rotation_y", "harmonic_real", "rotation_z")
        """
    )
    assert got["child first"] == {"type": "ZeroDivisionError", "message": "case harmonic_imag", "reaped": True}
    assert got["parent first"] == {"type": "ValueError", "message": "case rotation_y", "reaped": True}
    assert got["case 0"] == {"type": "ValueError", "message": "case rotation_y", "reaped": True}
    assert got["forks"] == 3


def test_a_child_that_ends_without_its_outcome_raises_a_named_error():
    got = _scenario(
        """
        experiments.HAMILTONIAN_LIBRARY["rotation_y"] = lambda: os._exit(3)
        result["exit"] = outcome("rotation_z", "rotation_y")
        """
    )
    assert got["exit"]["type"] == "RuntimeError"
    assert got["exit"]["message"].startswith("the process running case 1 ({'hamiltonian': 'rotation_y'")
    assert "ended with exit status 3" in got["exit"]["message"]
    assert got["exit"]["reaped"] and got["forks"] == 1


def test_an_error_that_does_not_pickle_arrives_as_its_text():
    got = _scenario(
        """
        exc = ValueError("case rotation_y")
        exc.hook = lambda: None  # a lambda does not pickle
        experiments.HAMILTONIAN_LIBRARY["rotation_y"] = raising(exc)
        result["text"] = outcome("rotation_z", "rotation_y")
        """
    )
    assert got["text"] == {"type": "RuntimeError", "message": "ValueError: case rotation_y", "reaped": True}
    assert got["forks"] == 1


def test_an_interrupt_in_this_process_ends_and_reaps_the_children():
    # the child's case would take a minute; the interrupt ends the run at once
    got = _scenario(
        """
        lib = experiments.HAMILTONIAN_LIBRARY
        lib["rotation_y"] = lambda: time.sleep(60)
        lib["rotation_z"] = raising(KeyboardInterrupt())
        start = time.perf_counter()
        result["interrupt"] = outcome("rotation_z", "rotation_y")
        result["seconds"] = time.perf_counter() - start
        """,
        timeout=50,
    )
    assert got["interrupt"] == {"type": "KeyboardInterrupt", "message": "", "reaped": True}
    assert got["seconds"] < 30 and got["forks"] == 1


def test_a_multithreaded_process_forks_nothing():
    got = _scenario(
        """
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            result["passed"] = intertwine("rotation_z", "harmonic_real")[2]
        finally:
            done.set()
            waiter.join()
        result["reaped"] = reaped()
        """,
        cpus=4,
    )
    assert got == {"passed": True, "reaped": True, "forks": 0}
