"""Configuration-driven experiment runner.

Configs are flat "key = value" text files ('#' starts a comment).  Every run
writes its CSV outputs plus a manifest listing the config echo, per-file
checksums and wall-clock duration.  Exit codes: 0 success, 1 validation error,
2 runtime error, 3 lemma-counterexample fatal diagnostic.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import __version__
from .estimators import (
    Observable,
    default_fit_floor,
    estimate_persistence,
    estimate_relaxation,
    fit_exponential,
    replica_batches,
)
from .lattice import (
    Configuration,
    Delta,
    MeasureSpec,
    ModelParams,
    ProductBernoulli,
    Site,
    Window,
)
from .streams import STREAM_VERSION
from .theory import certify_paths, compute_constants, fk_cascade_probe, oriented_path_check


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field_name = field_name


class LemmaCounterexampleError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict[str, str]
    params: Optional[ModelParams] = None
    window: Optional[Window] = None
    exterior: int = 1
    measure: Optional[MeasureSpec] = None
    times: tuple[float, ...] = ()
    n: int = 1000
    n_outer: int = 200
    n_inner: int = 100
    seed: int = 0
    out_dir: str = "out"
    horizon: float = 0.0
    site: Optional[Site] = None
    alpha: float = 0.2
    t: float = 10.0
    gamma: float = 1.0
    delta_const: float = 0.5
    c_const: float = 0.1
    lambda_n: int = 12
    n_values: tuple[int, ...] = ()


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split())


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.split())


def _convert(raw: dict[str, str], key: str, conv, default: Optional[str] = None):
    """``conv`` of the key's value, or of ``default``; a ValueError names the key."""
    try:
        return conv(raw.get(key, default))
    except ValueError as e:
        raise ConfigError(key, str(e))


def _parse_measure(value: str, config: ExperimentConfig) -> MeasureSpec:
    """Raises ValueError (LatticeError included) on a value it cannot honour."""
    name, *args = value.split() or [""]
    if name == "bernoulli":
        if len(args) != 1:
            raise ValueError("expected 'bernoulli <q>'")
        return ProductBernoulli(float(args[0]), config.exterior)
    if name == "delta-zeros":
        if config.window is None:
            raise ValueError("delta-zeros requires window_lower/window_upper")
        d = config.window.d
        coords = [int(v) for v in args]
        if len(coords) % d != 0:
            raise ValueError(f"zero sites must come in groups of {d} coordinates")
        zeros = [tuple(coords[i : i + d]) for i in range(0, len(coords), d)]
        cfg = Configuration.with_zeros(config.window, zeros, exterior=config.exterior)
        return Delta(cfg)
    raise ValueError(f"unknown measure {name!r} (use bernoulli | delta-zeros)")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a flat key=value config."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in first_line:
            raise ConfigError(key, f"given twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        raw[key] = value

    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("kind", "missing (required)")
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}")
    spec = KINDS[kind]
    for key in raw:
        if key not in spec.keys and key not in _COMMON_KEYS:
            valid = ", ".join(sorted(spec.keys | _COMMON_KEYS))
            raise ConfigError(key, f"not read by kind {kind!r}; valid keys: {valid}")
    config = ExperimentConfig(kind=kind, raw=dict(raw))

    d = _convert(raw, "d", int, "1")
    p = _convert(raw, "p", float, "0.5")
    if not (0.0 < p < 1.0):
        raise ConfigError("p", f"must lie in (0,1), got {p}")
    if d < 1:
        raise ConfigError("d", f"must be >= 1, got {d}")
    config.params = ModelParams(d, p)

    if "exterior" in raw:
        if raw["exterior"] not in ("0", "1"):
            raise ConfigError("exterior", f"must be 0 or 1, got {raw['exterior']!r}")
        config.exterior = int(raw["exterior"])

    if "window_lower" in raw or "window_upper" in raw:
        if not ("window_lower" in raw and "window_upper" in raw):
            raise ConfigError("window", "both window_lower and window_upper are required")
        try:
            lower = _parse_ints(raw["window_lower"])
            upper = _parse_ints(raw["window_upper"])
            config.window = Window(lower, upper)
        except ValueError as e:
            raise ConfigError("window", str(e))
        if config.window.d != config.params.d:
            raise ConfigError("window", "window dimension does not match d")

    if "measure" in raw:
        try:
            config.measure = _parse_measure(raw["measure"], config)
        except ValueError as e:
            raise ConfigError("measure", str(e))

    for key, attr, conv in (
        ("times", "times", _parse_floats),
        ("n", "n", int),
        ("n_outer", "n_outer", int),
        ("n_inner", "n_inner", int),
        ("seed", "seed", int),
        ("horizon", "horizon", float),
        ("alpha", "alpha", float),
        ("t", "t", float),
        ("gamma", "gamma", float),
        ("delta", "delta_const", float),
        ("c", "c_const", float),
        ("lambda_N", "lambda_n", int),
        ("N", "n_values", _parse_ints),
        ("site", "site", _parse_ints),
        ("out", "out_dir", str),
    ):
        if key in raw:
            setattr(config, attr, _convert(raw, key, conv))

    for key, lengths in (("N", config.n_values), ("lambda_N", (config.lambda_n,))):
        if key in raw:  # only the kinds that solve read these keys, and load the exact engine
            from .exact import MAX_GAP_SITES

            if not all(1 <= n <= MAX_GAP_SITES for n in lengths):
                raise ConfigError(key, f"chain lengths must lie in 1..{MAX_GAP_SITES}, got {raw[key]}")

    for key in ("times", "t", "alpha", "horizon", "gamma", "delta", "c"):
        if key in raw and not all(math.isfinite(v) for v in _parse_floats(raw[key])):
            raise ConfigError(key, f"must be finite, got {raw[key]}")
    for key, values in (("times", config.times), ("t", (config.t,)), ("alpha", (config.alpha,))):
        if min(values, default=0.0) < 0:
            raise ConfigError(key, f"must be >= 0, got {raw[key]}")
    if config.gamma <= 0:
        raise ConfigError("gamma", f"must be > 0, got {raw['gamma']}")
    if not 0 < config.delta_const < 1:
        raise ConfigError("delta", f"must lie in (0, 1), got {raw['delta']}")
    if config.c_const <= 0:
        raise ConfigError("c", f"must be > 0, got {raw['c']}")

    if config.site is not None and len(config.site) != config.params.d:
        raise ConfigError("site", f"expected {config.params.d} coordinates")

    for name in spec.required:
        present, problem = _REQUIRED[name]
        if not present(config):
            raise ConfigError(name, f"{problem} (required for kind {kind!r})")
    if config.site is not None and config.window is not None and config.site not in config.window:
        raise ConfigError("site", f"site {config.site} outside window")
    for key in ("n", "n_outer", "n_inner"):
        if getattr(config, key) <= 0:
            raise ConfigError(key, f"sample count must be positive, got {raw[key]}")
    return config


@dataclass
class RunManifest:
    """A run's record: the files it wrote with their checksums, its kind's
    notes, and, once it ends, its status and duration."""

    out_dir: str
    config_echo: dict[str, str]
    checksums: dict[str, str] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    status: str = "ok"
    duration_s: float = 0.0

    def write(self, name: str, text: str) -> None:
        """Write an output file into ``out_dir`` and record its bytes' sha256."""
        data = text.encode()
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()

    def to_text(self) -> str:
        lines = [
            f"version = {__version__}",
            f"stream_version = {STREAM_VERSION}",
            f"status = {self.status}",
        ]
        for k in sorted(self.config_echo):
            lines.append(f"config.{k} = {self.config_echo[k]}")
        for k in sorted(self.notes):
            lines.append(f"{k} = {self.notes[k]}")
        for name in sorted(self.checksums):
            lines.append(f"sha256.{name} = {self.checksums[name]}")
        lines.append(f"duration_s = {self.duration_s:.3f}")
        return "\n".join(lines) + "\n"


def _series_manifest(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "seed": config.seed,
        "n": config.n,
        "window_lower": list(config.window.lower) if config.window else None,
        "window_upper": list(config.window.upper) if config.window else None,
        "measure": config.raw.get("measure"),
    }


def _write_fit(manifest: RunManifest, name: str, series) -> None:
    try:
        fit = fit_exponential(series, default_fit_floor(series))
        manifest.write(name, fit.summary_line() + "\n")
    except ValueError:
        manifest.write(name, "fit_failed=too_few_points\n")


def _run_simulate(config: ExperimentConfig, manifest: RunManifest) -> None:
    batches = replica_batches(config.params, config.measure, config.window, config.horizon,
                              config.seed, "simulate", 1)
    manifest.write("events.csv", next(batches)[1].to_csv(0))


def _run_persistence(config: ExperimentConfig, manifest: RunManifest) -> None:
    series = estimate_persistence(
        config.params, config.measure, config.site, config.times, config.n,
        config.window, config.seed, manifest.notes,
    )
    manifest.write("persistence.csv", series.to_csv(_series_manifest(config)))
    _write_fit(manifest, "persistence_fit.txt", series)


def _run_relaxation(config: ExperimentConfig, manifest: RunManifest) -> None:
    series = estimate_relaxation(
        config.params, config.measure, Observable.spin(config.site), config.times,
        config.n_outer, config.n_inner, config.window, config.seed, config.gamma,
    )
    manifest.write("relaxation.csv", series.to_csv(_series_manifest(config)))
    _write_fit(manifest, "relaxation_fit.txt", series)


def _run_gap(config: ExperimentConfig, manifest: RunManifest) -> None:
    from .exact import east1d_gap

    lines = ["N,gap"]
    for N in config.n_values:
        lines.append(f"{N},{east1d_gap(config.params.p, N):.17g}")
    manifest.write("gap.csv", "\n".join(lines) + "\n")


def _run_constants(config: ExperimentConfig, manifest: RunManifest) -> None:
    from .exact import east1d_gap

    p, d = config.params.p, config.params.d
    lam = east1d_gap(p, config.lambda_n)
    lam_prev = east1d_gap(p, config.lambda_n - 1) if config.lambda_n > 1 else lam
    report = compute_constants(p, d, config.delta_const, config.c_const, lam)
    text = report.to_text() + f"lambda_pp_cauchy_increment = {abs(lam - lam_prev)!r}\n"
    manifest.write("constants.txt", text)


def _run_verify_lemma(config: ExperimentConfig, manifest: RunManifest) -> None:
    """One row per replica; a replica whose start site is not at zero
    initially does not meet the lemma's premise and is counted as not
    applicable.  The check reads [0, t/2] only, so runs stop at t/2."""
    rows = ["seed,t,alpha,hypothesis_held,found,path_length,applicable"]
    counterexample = False
    not_applicable = rings = legal_rings = n_batches = 0
    t, alpha, x = config.t, config.alpha, config.site
    constants = f"{t:.17g},{alpha:.17g}"
    batches = replica_batches(
        config.params, config.measure, config.window, t / 2, config.seed, "lemma", config.n
    )
    for _, batch in batches:
        check = oriented_path_check(batch, t, alpha, x)
        found, held = check.found, check.hypothesis_held
        wrong = (found & ~certify_paths(batch, t, alpha, x, check)) | (held & ~found)
        counterexample |= bool(wrong.any())
        not_applicable += int((~check.applicable).sum())
        rings += batch.times.size
        legal_rings += int(batch.legal.sum())
        n_batches += 1
        columns = (batch.seeds, held, found, check.length, check.applicable)
        rows += [f"{s},{constants},{h:d},{f:d},{n},{a:d}"
                 for s, h, f, n, a in zip(*(c.tolist() for c in columns))]
    manifest.notes.update({
        "lemma.batches": str(n_batches),
        "lemma.horizon": f"{t / 2:.17g}",
        "lemma.not_applicable": str(not_applicable),
        "lemma.rings": str(rings),
        "lemma.legal_rings": str(legal_rings),
    })
    manifest.write("lemma.csv", "\n".join(rows) + "\n")
    if counterexample:
        raise LemmaCounterexampleError(
            "oriented-path search failed on a hypothesis-holding log; "
            "this contradicts a proven statement (implementation bug)"
        )


def _run_fk_probe(config: ExperimentConfig, manifest: RunManifest) -> None:
    res = fk_cascade_probe(
        config.params, config.measure, config.site, config.delta_const,
        config.t, config.n, config.window, config.seed,
    )
    rows = ["step,site_from,site_to,probability,halfwidth"]
    for i in range(config.params.d):
        rows.append(
            f"{i + 1},{';'.join(map(str, res.sites[i]))},"
            f"{';'.join(map(str, res.sites[i + 1]))},"
            f"{res.probabilities[i]:.17g},{res.halfwidths[i]:.17g}"
        )
    manifest.write("fk_probe.csv", "\n".join(rows) + "\n")


class Kind(NamedTuple):
    """What a kind reads from a config, what it needs, and how it runs."""

    keys: frozenset[str]  # besides the common keys
    required: tuple[str, ...]  # names in _REQUIRED
    run: Callable[[ExperimentConfig, RunManifest], None]


_COMMON_KEYS = frozenset({"kind", "seed", "out"})
_MODEL = frozenset({"d", "p"})
_SPACE = _MODEL | {"window_lower", "window_upper", "exterior", "measure"}
_REQUIRED = {
    "window": (lambda c: c.window is not None, "missing"),
    "measure": (lambda c: c.measure is not None, "missing"),
    "site": (lambda c: c.site is not None, "missing"),
    "times": (lambda c: bool(c.times), "time grid must be non-empty"),
    "horizon": (lambda c: c.horizon > 0, "must be positive"),
    "N": (lambda c: bool(c.n_values), "missing"),
}
KINDS = {
    "simulate": Kind(_SPACE | {"horizon"}, ("window", "measure", "horizon"), _run_simulate),
    "persistence": Kind(
        _SPACE | {"site", "times", "n"}, ("window", "measure", "site", "times"), _run_persistence
    ),
    "relaxation": Kind(
        _SPACE | {"site", "times", "n_outer", "n_inner", "gamma"},
        ("window", "measure", "site", "times"),
        _run_relaxation,
    ),
    "gap": Kind(frozenset({"p", "N"}), ("N",), _run_gap),
    "constants": Kind(_MODEL | {"delta", "c", "lambda_N"}, (), _run_constants),
    "verify-lemma": Kind(
        _SPACE | {"site", "t", "alpha", "n"}, ("window", "measure", "site"), _run_verify_lemma
    ),
    "fk-probe": Kind(
        _SPACE | {"site", "delta", "t", "n"}, ("window", "measure", "site"), _run_fk_probe
    ),
}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Dispatch, write outputs, and always leave a manifest behind."""
    os.makedirs(config.out_dir, exist_ok=True)
    start = time.monotonic()
    manifest = RunManifest(config.out_dir, dict(config.raw))
    err: Optional[BaseException] = None
    try:
        KINDS[config.kind].run(config, manifest)
    except LemmaCounterexampleError as e:
        manifest.status = "lemma-counterexample"
        err = e
    except Exception as e:  # noqa: BLE001 - manifest must record handled errors
        manifest.status = "error: " + str(e).encode("unicode_escape").decode("ascii")  # one line
        err = e
    manifest.duration_s = time.monotonic() - start
    with open(os.path.join(config.out_dir, "manifest.txt"), "w", newline="\n") as fh:
        fh.write(manifest.to_text())
    if err is not None:
        raise err
    return manifest


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="east-lab", description="East model simulation and verification harness"
    )
    parser.add_argument("config", help="path to a flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1

    try:
        config = parse_config(text)
    except ConfigError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 1

    if args.seed is not None:
        config.seed = args.seed
        config.raw["seed"] = str(args.seed)
    if args.out is not None:
        config.out_dir = args.out
        config.raw["out"] = args.out

    try:
        run_experiment(config)
    except LemmaCounterexampleError as e:
        print(f"fatal diagnostic: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
