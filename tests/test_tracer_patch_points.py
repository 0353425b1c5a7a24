"""The benchmark tracer patches rbmlmc functions by module and name. Run it
on small commands, so that renaming or bypassing a patched name fails here
instead of only in a traced benchmark run."""

import contextlib
import importlib.util
import io
import os

import pytest

from rbmlmc import cli

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "tracer.py")

COMMANDS = [["run", "--variant", v, "--eps", "0.125", "--seeds", "0"]
            for v in ("classical", "bit", "bbit", "bbit-log")]
COMMANDS.append(["strong-error", "--mode", "quantization", "--m", "16",
                 "--q-min", "2", "--q-max", "3", "--reps", "200"])
# d = r = 2 through both pairwise families, and the gbm closed-form sweep
COMMANDS += [["run", "--variant", "bbit-log", "--sde", "linear2d",
              "--functional", "distance_to_ref", "--eps", "0.125"],
             ["run", "--variant", "bbit", "--sde", "linear2d", "--eps",
              "0.125"],
             ["strong-error", "--mode", "discretization", "--m-min", "16",
              "--m-max", "64", "--reps", "50"]]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(call, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert call(argv + ["--out", "-"]) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(
    a[:5] if a[3:4] == ["--sde"] else a[:3]))
def test_tracer_patch_points(argv):
    plain = _csv(cli.main, argv)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = _csv(tracer.call_cli, argv)
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.restored()
    assert not tracer.stack
    assert tracer.ledger_mismatches() == []
    if argv[0] == "run":
        assert tracer.reports
        assert tracer.totals()[0]["euler.coarse"] > 0
    if argv[:3] == ["strong-error", "--mode", "quantization"]:
        # the kernel maps its normals through the two wrapped names
        self_s = tracer.totals()[0]
        assert self_s["qnormal.quantile"] > 0
        assert self_s["euler.increments"] > 0
