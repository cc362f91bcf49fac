"""The three workloads: inputs from the seed, set-up, and the measured loops.

Every workload is a closed loop with one client: the next trial or CLI
call starts only after the previous one returned.

* ``campaign_n2`` - the standard n = 2 sweep of
  ``scripts/run_bound_campaign.py``, written out by value here so later
  edits to the script cannot change it.  Many tiny problems: per-call
  overhead in ``ball`` and certifying each set twice dominate.
* ``campaign_highdim`` - n = 4..8 sets with up to 31 points, relaxed fits
  (kappa > 0) and the exact-argmax probe of the quadratic function.  The
  generator loop runs several iterations and the ball solver gets up to 31
  polynomials per set.
* ``cli_oneshot`` - a shell user's sequence of cold ``python -m
  dfobounds.cli`` processes; dominated by interpreter start and import.

The benchmark only hands the program generated inputs; seeds for trials and
files come from the workload seed.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from probes import ROOT, SRC, WORKLOADS, child_env, timed_child

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dfobounds import SampleSet, cli, expand_config, run_campaign  # noqa: E402
from dfobounds.ball import lipschitz_on_ball, max_abs_on_ball  # noqa: E402
from dfobounds.models import ModelKind, fit_model  # noqa: E402
from dfobounds.verify import resolve_function  # noqa: E402

import gates  # noqa: E402
import hostspeed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

CALL_TIMEOUT_S = 120
# Reference-work timings behind the host.reference_s metric of a traced run.
HOST_REFERENCES = 5
# Warm CLI sequences per traced run of a campaign workload; enough for the
# cli.* and fileio.* medians, small next to the campaign itself.
CLI_WARM_SEQUENCES = 5


@dataclass(frozen=True)
class Sweep:
    functions: tuple
    deltas: tuple
    kinds: tuple  # (kind, n, p)
    kappa: float
    lambda_max: float
    # Executions of each round in an untraced measuring pass; the round
    # counts with its fastest one, which drops the host's short slow spells.
    # Long rounds average those spells out and need the time for inputs.
    repeats: int

    def trials(self, trial_seed: int) -> list:
        """One round: every (kind, function, delta) at one trial seed."""
        out = []
        for kind, n, p in self.kinds:
            out.extend(
                expand_config(
                    {
                        "function": list(self.functions),
                        "kind": kind,
                        "n": n,
                        "p": p,
                        "delta": list(self.deltas),
                        "kappa": self.kappa,
                        "lambda_max": self.lambda_max,
                        "seed": trial_seed,
                    }
                )
            )
        return out


SWEEPS = {
    "campaign_n2": Sweep(
        functions=("quartic", "rosenbrock"),
        deltas=(0.5, 0.1, 0.02),
        kinds=(("lin_det", 2, 2), ("quad_det", 2, 5), ("mfn", 2, 4)),
        kappa=0.0,
        lambda_max=100.0,
        repeats=2,
    ),
    # lambda_max 5 is the tightest value every config reaches: LIN_DET at
    # n = 8 cannot get below 1 + sqrt(8) ~ 3.83.
    "campaign_highdim": Sweep(
        functions=("quadratic", "quartic"),
        deltas=(0.2,),
        kinds=(
            ("lin_det", 8, 8),
            ("mfn", 4, 10),
            ("mfn", 6, 20),
            ("mfn", 8, 30),
            ("quad_det", 4, 14),
            ("quad_det", 6, 27),
        ),
        kappa=0.01,
        lambda_max=5.0,
        repeats=1,
    ),
}

# cli_oneshot inputs: a 3-D minimum-norm set (3 < p = 6 < q = 9) with
# quartic values, and a one-trial Rosenbrock verify config.
CLI_N, CLI_P, CLI_DELTA, CLI_RESOLUTION = 3, 6, 0.5, 0.025
CLI_L = 12.0  # gradient Lipschitz constant of the quartic on [-1, 1]^3
CLI_COMMANDS = ("poisedness", "fit", "oracle", "bounds", "verify")


@dataclass
class CliInputs:
    directory: Path
    center: np.ndarray
    exact_max: float  # exact max |model| on the ball, for the oracle gate
    lipschitz: float

    @property
    def points(self) -> Path:
        return self.directory / "points.csv"

    @property
    def model(self) -> Path:
        return self.directory / "model.json"

    @property
    def config(self) -> Path:
        return self.directory / "verify.json"

    def argv(self, command: str, lam: Optional[float]) -> list:
        d = self.directory
        if command == "poisedness":
            return ["poisedness", str(self.points), "--kind", "mfn"]
        if command == "fit":
            return ["fit", str(self.points), "--kind", "mfn", "--out", str(self.model)]
        if command == "oracle":
            center = ",".join(repr(float(x)) for x in self.center)
            return [
                "oracle", "--poly", str(self.model), f"--center={center}",
                "--radius", repr(CLI_DELTA), "--resolution", repr(CLI_RESOLUTION),
            ]
        if command == "bounds":
            return [
                "bounds", "--kind", "mfn", "--L", repr(CLI_L), "--lam", repr(lam),
                "--n", str(CLI_N), "--p", str(CLI_P), "--delta", repr(CLI_DELTA),
            ]
        return [
            "verify", "--config", str(self.config), "--csv", str(d / "campaign.csv"),
            "--json", str(d / "campaign_summary.json"), "--quiet",
        ]


def make_cli_inputs(seed: int, directory: Path) -> CliInputs:
    """Write the points file, its sidecar and the verify config."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    center = rng.uniform(-0.4, 0.4, CLI_N)
    u = rng.standard_normal((CLI_P, CLI_N))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = rng.uniform(size=(CLI_P, 1)) ** (1.0 / CLI_N)
    points = np.vstack([center, center + CLI_DELTA * u * radii])
    values = np.sum(points**4, axis=1)
    lines = [",".join([f"y{i}" for i in range(1, CLI_N + 1)] + ["f"])]
    lines += [",".join(repr(float(x)) for x in [*row, v]) for row, v in zip(points, values)]
    (directory / "points.csv").write_text("\n".join(lines) + "\n")
    (directory / "points.json").write_text(f'{{"delta": {CLI_DELTA!r}}}\n')
    trial_seed = int(rng.integers(2**31 - 1))
    (directory / "verify.json").write_text(
        '{"function": "rosenbrock", "kind": "mfn", "n": 2, "p": 4, '
        f'"delta": 0.1, "seed": {trial_seed}}}\n'
    )
    model = fit_model(ModelKind.MFN, SampleSet(points, CLI_DELTA), values).model
    return CliInputs(
        directory=directory,
        center=center,
        exact_max=float(max_abs_on_ball(model, center, CLI_DELTA)[0]),
        lipschitz=lipschitz_on_ball(model, center, CLI_DELTA),
    )


@dataclass
class State:
    seed: int
    out_dir: Path
    sweep: Optional[Sweep] = None
    trial_seeds: Optional[np.random.Generator] = None
    cli_inputs: Optional[CliInputs] = None
    warmup: Optional["Measured"] = None

    def next_trial_seed(self) -> int:
        return int(self.trial_seeds.integers(2**31 - 1))


def prepare(workload: str, seed: int, out_dir: Path) -> State:
    """Make the inputs and warm first-use caches (the timed set-up)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    state = State(seed, out_dir)
    if workload == "cli_oneshot":
        state.cli_inputs = make_cli_inputs(seed, out_dir / "cli")
        return state
    sweep = SWEEPS[workload]
    state.sweep = sweep
    state.trial_seeds = np.random.default_rng(seed)
    # Warm-up: the Rosenbrock Lipschitz scan and one trial per (kind, n, p).
    for _, n, _ in sweep.kinds:
        for name in sweep.functions:
            resolve_function(name, n)
    warm_seed = int(np.random.default_rng([seed, 2]).integers(2**31 - 1))
    warm = sweep.trials(warm_seed)[:: len(sweep.functions) * len(sweep.deltas)]
    failed, problems = gates.campaign_problems(run_campaign(warm), sweep.lambda_max)
    state.warmup = Measured(attempted=len(warm), failed=failed, problems=[f"warm-up: {p}" for p in problems])
    return state


@dataclass
class Measured:
    """Outcome of one measured pass.

    An operation is a trial on the campaign workloads and a CLI call on
    ``cli_oneshot``.  ``latencies`` holds one sample per sweep round (its
    mean trial time) or per CLI call: whole rounds keep every sample's mix
    of configs equal, where single trials of a mixed sweep have a
    multimodal distribution whose median jumps between configs.  Latencies
    and ``scaled`` are at reference host speed (see ``hostspeed``); ``ops``
    and ``scaled`` count each round once, with its fastest execution.
    """

    ops: int = 0
    wall: float = 0.0  # summed wall time of every timed call
    scaled: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rounds: list = field(default_factory=list)  # trial seeds, for replay
    rss_kb: list = field(default_factory=list)
    per_command: dict = field(default_factory=dict)

    def end_to_end(self) -> dict:
        return {
            "ops_per_s": self.ops / self.scaled,
            "op_s_p50": statistics.median(self.latencies),
        }


def merged(passes) -> "Measured":
    """Counts and problems of several passes; timings of the last one."""
    passes = [p for p in passes if p is not None]
    return Measured(
        ops=passes[-1].ops,
        wall=passes[-1].wall,
        scaled=passes[-1].scaled,
        latencies=passes[-1].latencies,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=[problem for p in passes for problem in p.problems],
        rss_kb=passes[-1].rss_kb,
    )


def campaign_pass(
    state: State,
    seconds: Optional[float] = None,
    replay: Optional[list] = None,
    tracer: Optional[Tracer] = None,
    tag: str = "untraced",
    repeats: int = 1,
) -> Measured:
    """Run sweep rounds until ``seconds`` elapse, or replay given rounds.

    Each round runs ``repeats`` times, with the reference work timed
    between executions; all of them are checked.
    """
    m = Measured()
    start = time.perf_counter()
    index = 0
    while True:
        if replay is None:
            if index and time.perf_counter() - start >= seconds:
                break
            trial_seed = state.next_trial_seed()
        elif index < len(replay):
            trial_seed = replay[index]
        else:
            break
        trials = state.sweep.trials(trial_seed)
        before = hostspeed.reference_s()
        best = math.inf
        for _ in range(repeats):
            progress = None
            if tracer is not None:
                trial_ids = itertools.count(m.ops)

                def progress(_message):
                    tracer.trial = next(trial_ids)

                root = tracer.open("campaign")
            t0 = time.perf_counter()
            report = run_campaign(
                trials, csv_path=state.out_dir / f"{tag}-{index}.csv", progress=progress
            )
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
                tracer.trial = None
            after = hostspeed.reference_s()
            best = min(best, hostspeed.scaled(elapsed, before, after))
            before = after
            m.wall += elapsed
            m.attempted += len(trials)
            failed, problems = gates.campaign_problems(report, state.sweep.lambda_max)
            m.failed += failed
            m.problems.extend(f"round {index} (seed {trial_seed}): {p}" for p in problems)
        m.ops += len(trials)
        m.scaled += best
        m.latencies.append(best / len(trials))
        m.rounds.append(trial_seed)
        index += 1
    return m


def cold_call(argv: list, out_dir: Path, env: dict) -> tuple:
    """One ``python -m dfobounds.cli`` process: (code, stdout, s, max RSS kB).

    A hung child is killed after CALL_TIMEOUT_S.
    """
    out_path, err_path = out_dir / "call.stdout", out_dir / "call.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, seconds, usage = timed_child(
            [sys.executable, "-m", "dfobounds.cli", *argv], CALL_TIMEOUT_S,
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
    return code, out_path.read_text(), seconds, usage.ru_maxrss


def warm_call(argv: list, tracer: Optional[Tracer] = None) -> tuple:
    """One in-process ``cli.main(argv)``: (code, stdout, s, None)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        root = tracer.open("cli.main") if tracer is not None else None
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    return code, out.getvalue(), seconds, None


def cli_pass(
    inputs: CliInputs,
    call: Callable,
    seconds: Optional[float] = None,
    sequences: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    reference: Optional[Callable] = None,
) -> Measured:
    """Whole CLI sequences until ``seconds`` elapse or ``sequences`` ran.

    With a ``reference`` (seconds of a cold reference process) one is timed
    before every call and the latencies are scaled to reference host speed
    by the median of the pass: single reference times are too noisy to pair
    with single calls.  Otherwise latencies are wall times.
    A call that fails its gate ends the pass: later calls need its output.
    """
    m = Measured()
    references = []
    start = time.perf_counter()
    done = 0
    while not m.problems:
        if sequences is not None and done >= sequences:
            break
        if sequences is None and done and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.trial = done
        lam = None
        for command in CLI_COMMANDS:
            if reference is not None:
                references.append(reference())
            code, stdout, elapsed, rss = call(inputs.argv(command, lam))
            problems, payload = gates.cli_problems(command, code, stdout)
            if command == "poisedness" and payload is not None:
                lam = payload["lambda"]
            if command == "oracle" and payload is not None:
                problems += gates.oracle_problems(
                    payload["max_abs"], inputs.exact_max, inputs.lipschitz, CLI_RESOLUTION
                )
            m.ops += 1
            m.wall += elapsed
            m.latencies.append(elapsed)
            m.per_command.setdefault(command, []).append(elapsed)
            if rss is not None:
                m.rss_kb.append(rss)
            m.attempted += 1
            if problems:
                m.failed += 1
                m.problems.extend(f"sequence {done}: {p}" for p in problems)
                break
        done += 1
    if tracer is not None:
        tracer.trial = None
    m.rounds = list(range(done))
    factor = 1.0
    if reference is not None:
        factor = hostspeed.CHILD_REF_S / statistics.median(references)
    m.latencies = [latency * factor for latency in m.latencies]
    m.scaled = m.wall * factor
    return m


def measure(state: State, seconds: float) -> tuple:
    """Untraced run: (end-to-end metrics without set-up, Measured)."""
    if state.cli_inputs is not None:
        env = child_env()
        m = cli_pass(
            state.cli_inputs,
            lambda argv: cold_call(argv, state.out_dir, env),
            seconds=seconds,
            reference=lambda: hostspeed.child_reference_s(env),
        )
        peak_kb = max(m.rss_kb)
    else:
        m = campaign_pass(state, seconds=seconds, repeats=state.sweep.repeats)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = m.end_to_end()
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    return metrics, merged([state.warmup, m])


def _cli_warm(inputs: CliInputs, seconds=None, sequences=None) -> tuple:
    """Warm in-process CLI sequences: a warm-up, an untraced pass, then a
    traced pass of as many sequences.  Returns (metrics, passes, tracer)."""
    warmup = cli_pass(inputs, warm_call, sequences=1)
    untraced = cli_pass(inputs, warm_call, seconds=seconds, sequences=sequences)
    tracer = Tracer()
    with tracer:
        traced = cli_pass(
            inputs, lambda argv: warm_call(argv, tracer),
            sequences=len(untraced.rounds), tracer=tracer,
        )
    metrics = layer_metrics(tracer.spans, trials=len(traced.rounds), absent=tracer.absent_layers())
    metrics.update(
        (f"cli.main_s.{command}", statistics.median(times))
        for command, times in untraced.per_command.items()
    )
    return metrics, [warmup, untraced, traced], tracer


def trace(state: State, seconds: float) -> tuple:
    """Traced run: (per-layer metrics, Measured of all passes, tracers).

    The traced pass replays exactly the work of an untraced pass of half the
    run, so their outputs can be compared byte for byte and their wall times
    give the tracing overhead.  Campaign workloads add a few warm CLI
    sequences for the ``cli`` and ``fileio`` layers, which campaigns do not
    reach.
    """
    if state.cli_inputs is not None:
        metrics, passes, tracer = _cli_warm(state.cli_inputs, seconds=seconds / 2)
        _, untraced, traced = passes
        tracers = {"cli": tracer}
    else:
        untraced = campaign_pass(state, seconds=seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = campaign_pass(state, replay=untraced.rounds, tracer=tracer, tag="traced")
        for index in range(len(untraced.rounds)):
            traced.problems += gates.csv_problems(
                (state.out_dir / f"untraced-{index}.csv").read_bytes(),
                (state.out_dir / f"traced-{index}.csv").read_bytes(),
                f"round {index}",
            )
        metrics = layer_metrics(tracer.spans, trials=traced.attempted, absent=tracer.absent_layers())
        inputs = make_cli_inputs(state.seed, state.out_dir / "cli")
        cli_metrics, cli_passes, cli_tracer = _cli_warm(inputs, sequences=CLI_WARM_SEQUENCES)
        metrics.update(
            (name, value) for name, value in cli_metrics.items()
            if name.startswith(("cli.", "fileio."))
        )
        passes = [*cli_passes, untraced, traced]
        tracers = {"campaign": tracer, "cli": cli_tracer}
    metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    metrics["host.reference_s"] = statistics.median(
        hostspeed.reference_s() for _ in range(HOST_REFERENCES)
    )
    return metrics, merged([state.warmup, *passes]), tracers
