"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import probes
from probes import ROOT, SRC

sys.path.insert(0, str(SRC))

import gates  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

RUN = [sys.executable, str(ROOT / "benchmarks" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir(request):
    """A fresh directory inside the checkout's ignored run-output tree."""
    path = ROOT / ".bench_out" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _row(trial_id, lam=2.0, margin=0.5):
    return {"trial_id": trial_id, "lambda": lam, "margin_f": margin, "margin_g": margin, "margin_H": 0.0}


def _report(rows, failures=()):
    failures = list(failures)
    return SimpleNamespace(rows=rows, failures=failures, summary={"n_failed": len(failures)})


def test_campaign_gate_passes_good_report():
    assert gates.campaign_problems(_report([_row(0), _row(1)]), 100.0) == (0, [])


@pytest.mark.parametrize(
    "report",
    [
        _report([_row(0), _row(1, margin=1.0 + 1e-12)]),
        _report([_row(0), _row(1, lam=100.5)]),
        _report([_row(0), {**_row(1), "lambda": ""}], [{"trial_id": 1, "error": "boom"}]),
    ],
)
def test_campaign_gate_catches_bad_trial(report):
    failed, problems = gates.campaign_problems(report, 100.0)
    assert failed == 1 and len(problems) == 1


def test_csv_gate_catches_changed_bytes():
    assert gates.csv_problems(b"a,b\n1,2\n", b"a,b\n1,2\n", "r") == []
    assert gates.csv_problems(b"a,b\n1,2\n", b"a,b\n1,3\n", "r")


@pytest.mark.parametrize(
    "command, code, stdout",
    [
        ("bounds", 2, '{"C_f": 1, "C_g": 1, "C_H": 1}'),
        ("bounds", 0, '{"C_f": Infinity, "C_g": 1, "C_H": 1}'),
        ("oracle", 0, '{"max_abs": NaN}'),
        ("poisedness", 0, '{"satisfied": false}'),
        ("fit", 0, '{"residual": 1e-3}'),
        ("verify", 0, '{"n_failed": 1, "all_passed": false}'),
        ("fit", 0, "not json"),
    ],
)
def test_cli_gate_catches_bad_call(command, code, stdout):
    problems, _ = gates.cli_problems(command, code, stdout)
    assert problems


def test_cli_gate_passes_good_call():
    assert gates.cli_problems("fit", 0, '{"residual": 1e-15}')[0] == []
    assert gates.oracle_problems(0.99, exact=1.0, lipschitz=1.0, resolution=0.1) == []
    assert gates.oracle_problems(1.01, exact=1.0, lipschitz=1.0, resolution=0.1)
    assert gates.oracle_problems(0.8, exact=1.0, lipschitz=1.0, resolution=0.1)


def _bound_objects():
    out = {}
    for _, _, targets in spans.BINDINGS:
        for target in targets:
            owner, attr = spans._resolve(target)
            out[target] = owner.__dict__[attr]
    return out


def test_tracer_restores_every_binding_even_after_an_error():
    before = _bound_objects()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert tracer.missing == []
            assert all(_bound_objects()[t] is not f for t, f in before.items())
            raise RuntimeError("stop")
    assert all(_bound_objects()[t] is f for t, f in before.items())


def test_traced_campaign_writes_the_same_csv(work_dir):
    from dfobounds import expand_config, run_campaign

    trials = [
        *expand_config({"function": "quartic", "kind": "lin_det", "n": 2, "p": 2, "delta": 0.1}),
        *expand_config({"function": "quartic", "kind": "mfn", "n": 2, "p": 4, "delta": 0.1}),
    ]
    run_campaign(trials, csv_path=work_dir / "plain.csv")
    with Tracer() as tracer:
        run_campaign(trials, csv_path=work_dir / "traced.csv")
    assert (work_dir / "plain.csv").read_bytes() == (work_dir / "traced.csv").read_bytes()
    names = {span.name for span in tracer.spans}
    assert {"verify.run_trial", "geometry.generate", "ball.extremize"} <= names


def test_missing_binding_marks_layer_absent_without_crashing():
    tracer = Tracer(bindings=[
        ("ball.extremize", "ball", ["dfobounds.ball:no_such_function"]),
        ("verify.run_trial", "verify", ["dfobounds.verify:run_trial", "dfobounds.verify:gone"]),
    ])
    with tracer:
        pass
    assert tracer.absent_layers() == ["ball"]
    assert "dfobounds.verify:gone" in tracer.missing
    metrics = layer_metrics([], trials=1, absent=tracer.absent_layers())
    assert metrics and not any(name.startswith("ball.") for name in metrics)


def test_self_time_subtracts_direct_children():
    tree = [
        Span("campaign", 0.0, 10.0),
        Span("verify.run_trial", 1.0, 9.0, parent=0),
        Span("ball.max_abs", 2.0, 5.0, parent=1),
        Span("ball.extremize", 2.5, 4.5, parent=2),
    ]
    assert self_times(tree) == [2.0, 5.0, 1.0, 2.0]
    metrics = layer_metrics(tree, trials=1)
    assert metrics["ball.busy_s"] == 3.0 and metrics["ball.calls"] == 1
    assert metrics["trace.coverage"] == 0.8


def test_importtime_parser_counts_nested_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        30 |        400 |   scipy.optimize",
        "import time:        10 |        710 | dfobounds",
    ])
    assert probes.parse_importtime(stderr) == pytest.approx((710e-6, 400e-6))


def test_scaling_cancels_host_speed():
    import hostspeed

    assert hostspeed.scaled(2.0, 0.02, 0.04) == pytest.approx(2.0 * hostspeed.REF_S / 0.03)
    # Program and reference slowed alike by a slower host: same figure.
    assert hostspeed.scaled(3.0, 0.03, 0.03) == pytest.approx(hostspeed.scaled(1.5, 0.015, 0.015))


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "campaign_n2", "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_gate_failure_exits_nonzero(monkeypatch, capsys):
    import run

    monkeypatch.setattr(gates, "MARGIN_CAP", 0.0)
    monkeypatch.setattr(probes, "setup_probe", lambda *args: 0.0)
    code = run.main(["--workload", "campaign_n2", "--seed", "5", "--seconds", "0.1"])
    result = _result(capsys.readouterr().out)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_checkout_without_program_fails_without_result(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(ROOT / "benchmarks", work_dir / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "campaign_n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
