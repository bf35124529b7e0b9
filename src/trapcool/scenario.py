"""Scenario files: the flat key=value configuration shared by all commands.

A scenario is a plain text file, one `key = value` per line, with '#'
starting a comment. The fourteen fields of ScenarioConfig are the keys;
every key is optional and falls back to the default scenario, which is
the headline cooling example in kHz units (chi = 4, kappa = 40,
gamma_h = 0.01, eta = 0.9, nu = 1000, g = 0.375, phi = -pi/2, n0 = 10).
The command line, not the scenario, owns --out and --format.
"""
import dataclasses
import difflib
import math

from .errors import ConfigError
from .hilbert import FockBasisSpec
from .models import SystemParams
from .sme import IntegratorConfig


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved scenario: physics, basis and run controls.

    The fields are exactly the fourteen file keys, in serialization
    order. SystemParams validates chi through n0, FockBasisSpec n_trunc
    and tail_tolerance, IntegratorConfig dt, t_final and seed; their
    messages surface as ConfigError. Only n_traj is checked here.
    """

    chi: float = 4.0
    kappa: float = 40.0
    gamma_h: float = 0.01
    eta: float = 0.9
    nu: float = 1000.0
    g: float = 0.375
    phi: float = -math.pi / 2.0
    n0: float = 10.0
    n_trunc: int = 160
    tail_tolerance: float = 1e-6
    dt: float = 2e-5
    t_final: float = 0.05
    n_traj: int = 2
    seed: int = 12345

    def __post_init__(self):
        if self.n_traj < 1:
            raise ConfigError("n_traj must be a positive integer")
        try:
            self.system_params()
            self.basis_spec()
            self.integrator_config()
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def system_params(self) -> SystemParams:
        return SystemParams(
            chi=self.chi,
            kappa=self.kappa,
            gamma_h=self.gamma_h,
            eta=self.eta,
            nu=self.nu,
            g=self.g,
            phi=self.phi,
            n0=self.n0,
        )

    def basis_spec(self) -> FockBasisSpec:
        return FockBasisSpec(n_trunc=self.n_trunc, tail_tolerance=self.tail_tolerance)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(
            dt=self.dt,
            t_final=self.t_final,
            seed=self.seed,
            tail_guard=self.tail_tolerance,
        )

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


# canonical order, also the serialization order
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
INT_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.type is int)


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def _parse_value(key, token, line_no):
    where = f"line {line_no}: "
    if key in INT_KEYS:
        try:
            return int(token)
        except ValueError:
            raise ConfigError(
                f"{where}{key} must be an integer, got {token!r}"
            ) from None
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"{where}{key} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}{key} must be finite, got {token!r}")
    return value


def parse_config(text: str, *, base: ScenarioConfig = None) -> ScenarioConfig:
    """Parse key=value text into a scenario, layered over `base` (defaults).

    Unknown keys are rejected with a nearest-match suggestion, duplicate
    keys are rejected as ambiguous, and every value error reports the
    offending key and line.
    """
    overrides = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, _, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        if key not in CONFIG_KEYS:
            hint = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"line {line_no}: unknown key {key!r}{suffix}")
        if key in overrides:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not token:
            raise ConfigError(f"line {line_no}: {key} has no value")
        overrides[key] = _parse_value(key, token, line_no)
    start = base if base is not None else default_config()
    return start.replace(**overrides)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return parse_config(text)


def format_config(cfg: ScenarioConfig) -> str:
    """Serialize the fourteen file keys; parse(format(cfg)) reproduces cfg."""
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(cfg, key)
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"
