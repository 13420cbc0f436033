"""Plain-text key-value configuration for models, grids and suites.

The format is INI-flavoured: ``[section]`` headers, ``key = value`` lines,
``#`` or ``;`` comments.  Parsing is done by hand so every validation
failure can point at the exact file and line.  Unknown sections or keys
are rejected; all values are validated into a :class:`RunConfig`.
"""

from dataclasses import dataclass

from .errors import ConfigError
from .fields import Bump2D, Gaussian2D
from .fock import RapidityGrid
from .locality import ORDER_DEFAULT, WINDOW_DEFAULT
from .nuclearity import NODES_DEFAULT
from .sfunction import ScatteringFunction, build_model

DEFAULT_SEED = 0xD15EA5E

_KNOWN_SECTIONS = {
    "model", "grid", "locality", "algebra", "smatrix", "nuclearity",
    "partition", "output",
}


@dataclass
class _Entry:
    value: str
    line: int


def _parse_sections(path):
    """Raw section -> {key -> (value, line)} mapping with line anchors."""
    sections = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            base = name.split(".")[0]
            if base not in _KNOWN_SECTIONS and not name.startswith("testfunction"):
                raise ConfigError(f"unknown section [{name}]", path, lineno)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
        if current is None:
            raise ConfigError("entry outside of any [section]", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", path, lineno)
        current[key] = _Entry(value.strip(), lineno)
    return sections


class _Section:
    """Typed accessors over one raw section, with line-anchored errors."""

    def __init__(self, path, name, entries):
        self.path = path
        self.name = name
        self.entries = dict(entries)
        self.seen = set()

    def _take(self, key):
        self.seen.add(key)
        return self.entries.get(key)

    def has(self, key):
        return key in self.entries

    def string(self, key, default=None):
        e = self._take(key)
        return default if e is None else e.value

    def floatval(self, key, default=None):
        e = self._take(key)
        if e is None:
            return default
        try:
            return float(e.value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {e.value!r}",
                              self.path, e.line)

    def intval(self, key, default=None):
        e = self._take(key)
        if e is None:
            return default
        try:
            return int(e.value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {e.value!r}",
                              self.path, e.line)

    def boolval(self, key, default=None):
        e = self._take(key)
        if e is None:
            return default
        v = e.value.lower()
        if v in ("true", "yes", "on", "1"):
            return True
        if v in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {e.value!r}",
                          self.path, e.line)

    def floats(self, key, default=()):
        e = self._take(key)
        if e is None or not e.value:
            return list(default)
        try:
            return [float(x) for x in e.value.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"{key} must be a list of numbers, got {e.value!r}",
                              self.path, e.line)

    def complex_pairs(self, key):
        """Semicolon-separated re,im pairs; empty value means empty list."""
        e = self._take(key)
        if e is None or not e.value:
            return []
        out = []
        for chunk in e.value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [p for p in chunk.replace(",", " ").split() if p]
            if len(parts) != 2:
                raise ConfigError(
                    f"{key} entries must be 're,im' pairs, got {chunk!r}",
                    self.path, e.line)
            try:
                out.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ConfigError(f"cannot parse pair {chunk!r}", self.path, e.line)
        return out

    def line_of(self, key):
        e = self.entries.get(key)
        return None if e is None else e.line

    def reject_unknown(self):
        extra = set(self.entries) - self.seen
        if extra:
            key = sorted(extra)[0]
            raise ConfigError(f"unknown key {key!r} in [{self.name}]",
                              self.path, self.entries[key].line)


@dataclass
class LocalitySettings:
    grid_count: int
    window: float
    order: int
    spectator_samples: int
    contour_tol: float
    operator_tol: float
    f_name: str
    g_name: str


@dataclass
class AlgebraSettings:
    tol: float
    trials: int
    dn_max: int
    grid_count: int


@dataclass
class SMatrixSettings:
    trials: int
    n_values: tuple
    tol: float


@dataclass
class NuclearitySettings:
    kappa: float             # None: half the model's analyticity margin
    s_lo: float
    s_hi: float
    steps: int
    nodes: int


@dataclass
class PartitionSettings:
    r: float
    beta_lo: float
    beta_hi: float
    steps: int
    improved: bool


@dataclass
class RunConfig:
    path: str
    model_name: str
    model: ScatteringFunction
    grid: RapidityGrid
    n_max: int
    testfunctions: dict
    locality: LocalitySettings
    algebra: AlgebraSettings
    smatrix: SMatrixSettings
    nuclearity: NuclearitySettings
    partition: PartitionSettings
    out_format: str
    echo: dict

    def testfunction(self, name):
        if name not in self.testfunctions:
            raise ConfigError(f"no [testfunction.{name}] block in config",
                              path=self.path)
        return self.testfunctions[name]


def _parse_testfunction(path, name, sec):
    kind = (sec.string("kind") or "").lower()
    if kind == "gaussian":
        center = sec.floats("center", (0.0, 0.0))
        if len(center) != 2:
            raise ConfigError("gaussian center needs two components",
                              path, sec.line_of("center"))
        sigma = sec.floatval("sigma", 1.0)
        if sigma <= 0:
            raise ConfigError("sigma must be positive", path, sec.line_of("sigma"))
        q = sec.floats("q", (0.0, 0.0))
        if len(q) != 2:
            raise ConfigError("gaussian q needs two components",
                              path, sec.line_of("q"))
        amp = sec.floatval("amplitude", 1.0)
        tf = Gaussian2D.isotropic(center, sigma, q=q, amplitude=amp)
    elif kind == "bump":
        box = sec.floats("box")
        if len(box) != 4:
            raise ConfigError("bump box needs four numbers a0,b0,a1,b1",
                              path, sec.line_of("box"))
        a0, b0, a1, b1 = box
        if not (b0 > a0 and b1 > a1):
            raise ConfigError(f"degenerate bump box {box}", path,
                              sec.line_of("box"))
        amp = sec.floatval("amplitude", 1.0)
        order = sec.intval("order", 64)
        tf = Bump2D((a0, b0, a1, b1), amplitude=amp, order=order)
    else:
        raise ConfigError(
            f"testfunction kind must be 'gaussian' or 'bump', got {kind!r}",
            path, sec.line_of("kind"))
    sec.reject_unknown()
    return tf


def load_config(path, overrides=()):
    """Parse, apply ``section.key=value`` overrides, validate."""
    raw = _parse_sections(path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form "
                              "section.key=value", path=path)
        dotted, _, value = item.partition("=")
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be dotted "
                              "section.key", path=path)
        sec_name, _, key = dotted.strip().lower().rpartition(".")
        raw.setdefault(sec_name, {})[key] = _Entry(value.strip(), 0)

    def section(name):
        return _Section(path, name, raw.get(name, {}))

    msec = section("model")
    if "model" not in raw:
        raise ConfigError("missing required [model] section", path=path)
    epsilon = msec.intval("epsilon")
    if epsilon is None:
        raise ConfigError("model requires epsilon = +1 or -1", path=path)
    if epsilon not in (1, -1):
        raise ConfigError(f"epsilon must be +1 or -1, got {epsilon}",
                          path, msec.line_of("epsilon"))
    a = msec.floatval("a", 0.0)
    if a < 0:
        raise ConfigError("a must be >= 0", path, msec.line_of("a"))
    mass = msec.floatval("mass", 1.0)
    if mass <= 0:
        raise ConfigError("mass must be positive", path, msec.line_of("mass"))
    zeros = msec.complex_pairs("zeros")
    auto_mirror = msec.boolval("auto_mirror", True)
    allow_unpaired = msec.boolval("allow_unpaired", False)
    name = msec.string("name", "model")
    try:
        if allow_unpaired:
            # negative-control escape hatch: skip mirror-pair validation so
            # a deliberately broken model can be fed to the suites
            model = ScatteringFunction(epsilon=epsilon, a=a,
                                       zeros=tuple(zeros), mass=mass)
        else:
            model = build_model(epsilon, a=a, zeros=zeros, m=mass,
                                auto_mirror=auto_mirror)
    except Exception as exc:
        raise ConfigError(str(exc), path, msec.line_of("zeros"))
    msec.reject_unknown()

    gsec = section("grid")
    theta_max = gsec.floatval("theta_max", 6.0)
    count = gsec.intval("count", 41)
    n_max = gsec.intval("n_max", 3)
    try:
        grid = RapidityGrid(theta_max, count)
    except Exception as exc:
        raise ConfigError(str(exc), path, gsec.line_of("count"))
    if not (1 <= n_max <= 6):
        raise ConfigError("n_max must lie in 1..6", path, gsec.line_of("n_max"))
    gsec.reject_unknown()

    testfunctions = {}
    for sec_name in raw:
        if sec_name.startswith("testfunction"):
            parts = sec_name.split(".", 1)
            tf_name = parts[1] if len(parts) == 2 else "f"
            testfunctions[tf_name] = _parse_testfunction(
                path, tf_name, section(sec_name))

    lsec = section("locality")
    locality = LocalitySettings(
        grid_count=lsec.intval("grid_count", 81),
        window=lsec.floatval("window", WINDOW_DEFAULT),
        order=lsec.intval("order", ORDER_DEFAULT),
        spectator_samples=lsec.intval("spectators", 3),
        contour_tol=lsec.floatval("contour_tol", 1e-6),
        operator_tol=lsec.floatval("operator_tol", 1e-4),
        f_name=lsec.string("f", "f"),
        g_name=lsec.string("g", "g"))
    lsec.reject_unknown()

    asec = section("algebra")
    algebra = AlgebraSettings(tol=asec.floatval("tol", 1e-12),
                              trials=asec.intval("trials", 5),
                              dn_max=asec.intval("dn_max", 3),
                              grid_count=asec.intval("grid_count", 21))
    asec.reject_unknown()

    ssec = section("smatrix")
    n_values = tuple(int(x) for x in ssec.floats("n_values", (2, 3)))
    smatrix = SMatrixSettings(trials=ssec.intval("trials", 5),
                              n_values=n_values,
                              tol=ssec.floatval("tol", 1e-10))
    ssec.reject_unknown()

    nsec = section("nuclearity")
    nuclearity = NuclearitySettings(
        kappa=nsec.floatval("kappa"),
        s_lo=nsec.floatval("s_min", 0.5),
        s_hi=nsec.floatval("s_max", 5.0),
        steps=nsec.intval("steps", 5),
        nodes=nsec.intval("nodes", NODES_DEFAULT))
    nsec.reject_unknown()

    psec = section("partition")
    partition = PartitionSettings(
        r=psec.floatval("r", 1.0),
        beta_lo=psec.floatval("beta_min", 0.1),
        beta_hi=psec.floatval("beta_max", 1.0),
        steps=psec.intval("steps", 6),
        improved=psec.boolval("improved", False))
    psec.reject_unknown()

    osec = section("output")
    out_format = (osec.string("format") or "json").lower()
    if out_format not in ("json", "csv"):
        raise ConfigError("output format must be json or csv", path,
                          osec.line_of("format"))
    osec.reject_unknown()

    echo = {s: {k: e.value for k, e in entries.items()}
            for s, entries in raw.items()}
    return RunConfig(path=str(path), model_name=name, model=model, grid=grid,
                     n_max=n_max, testfunctions=testfunctions,
                     locality=locality, algebra=algebra, smatrix=smatrix,
                     nuclearity=nuclearity, partition=partition,
                     out_format=out_format, echo=echo)
