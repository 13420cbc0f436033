"""Plain-text key-value configuration for models, grids and suites.

The format is INI-flavoured: ``[section]`` headers, ``key = value`` lines,
``#`` or ``;`` comments.  :data:`SCHEMA` declares every section and key
with its parser and default; :func:`load_config` checks a file against it.
Unknown sections or keys are rejected, and every failure points at the
file and line, or at the ``--tol-override`` or shortcut flag, that
caused it.
"""

from collections import namedtuple
from dataclasses import dataclass
import importlib.resources
from types import SimpleNamespace

from .errors import ConfigError, ModelError
from .fields import ORDER_CAP, Bump2D
from .fock import MAX_TENSOR_ELEMENTS, N_HARD_CAP, RapidityGrid
from .locality import ORDER_DEFAULT, WINDOW_DEFAULT
from .nuclearity import MAX_NODES, NODES_DEFAULT
from .sfunction import ScatteringFunction, build_model, kappa

DEFAULT_SEED = 0xD15EA5E

REQUIRED = object()     # the default of a key that must be given


@dataclass(frozen=True)
class _Parser:
    """Text to value; ``what`` completes "must be ..." in the error."""

    what: str
    convert: object
    ok: object = None

    def __call__(self, text):
        value = self.convert(text)
        if self.ok is not None and not self.ok(value):
            raise ValueError(text)
        return value


def _split(text):
    return text.replace(",", " ").split()


def _integer(least, most=None, odd=False):
    what = (f"an integer in {least}..{most}" if most else
            f"an {'odd ' * odd}integer >= {least}")
    return _Parser(what, int, lambda v: (least <= v <= (most or v)
                                         and (v % 2 == 1 or not odd)))


def _floats(text):
    return tuple(float(x) for x in _split(text))


def _choice(*options):
    return _Parser(" or ".join(map(repr, options)), str.lower,
                   lambda v: v in options)


def _pairs(text):
    """Semicolon-separated re,im pairs; an empty value is no pair."""
    out = []
    for chunk in filter(str.strip, text.split(";")):
        x, y = _split(chunk)
        out.append(complex(float(x), float(y)))
    return tuple(out)


NUMBER = _Parser("a number", float)
POSITIVE = _Parser("a positive number", float, lambda v: v > 0)
_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}
BOOLEAN = _Parser("a boolean", lambda t: _BOOLS.get(t.lower()),
                  lambda v: v is not None)
TEXT = _Parser("text", str)
COUNT = _integer(1)

# section -> key -> (parser, default); each [testfunction.NAME] block is
# checked against SCHEMA["testfunction"] and built as a Bump2D
SCHEMA = {
    "model": {
        "name": (TEXT, "model"),
        "epsilon": (_Parser("+1 or -1", int, lambda v: v in (1, -1)),
                    REQUIRED),
        "a": (_Parser("a number >= 0", float, lambda v: v >= 0), 0.0),
        "mass": (POSITIVE, 1.0),
        "zeros": (_Parser("'re,im' pairs separated by ';'", _pairs), ()),
        "auto_mirror": (BOOLEAN, True),
        # negative-control escape hatch: skip mirror-pair validation so a
        # deliberately broken model can be fed to the suites
        "allow_unpaired": (BOOLEAN, False),
    },
    "grid": {
        "theta_max": (POSITIVE, 6.0),
        "count": (_integer(3, odd=True), 41),
        # verify-algebra probes the exchange relations on two levels and
        # draws Psi one level above n_max, under the rank cap
        "n_max": (_integer(2, most=N_HARD_CAP - 1), 3),
    },
    "locality": {
        "grid_count": (_integer(3, odd=True), 81),
        "window": (POSITIVE, WINDOW_DEFAULT),
        # the refinement study runs at order // 8; the bump transforms'
        # largest rule caps it (a rule and each line integral cost O(order))
        "order": (_integer(8, most=ORDER_CAP), ORDER_DEFAULT),
        "spectators": (COUNT, 3),
        "contour_tol": (NUMBER, 1e-6), "operator_tol": (NUMBER, 1e-4),
        # the names of the two wedge test-function blocks
        "f": (TEXT, "f"), "g": (TEXT, "g"),
    },
    "algebra": {
        "tol": (NUMBER, 1e-12),
        "trials": (COUNT, 5),
        # the D_n laws start at n = 2 and end at the rank cap
        "dn_max": (_integer(2, most=N_HARD_CAP), 3),
        "grid_count": (_integer(3, odd=True), 21),
    },
    "smatrix": {
        "trials": (COUNT, 5),
        # n separated blocks of 4+ nodes need 4n nodes, and at n = 6 the
        # dense rank-6 budget holds at most 17
        "n_values": (_Parser(f"non-empty integers in 1..{N_HARD_CAP - 1}",
                             lambda t: tuple(map(int, _split(t))),
                             lambda v: bool(v) and all(
                                 1 <= n < N_HARD_CAP for n in v)),
                     (2, 3)),
        "tol": (NUMBER, 1e-10),
    },
    "nuclearity": {
        # None: load_config sets half the model's analyticity margin
        "kappa": (NUMBER, None),
        "s_min": (POSITIVE, 0.5), "s_max": (POSITIVE, 5.0),
        "steps": (COUNT, 5),
        # one Nystrom SVD at the budget fills most of a 768 MiB cap
        "nodes": (_integer(1, most=MAX_NODES), NODES_DEFAULT),
    },
    "partition": {
        "r": (POSITIVE, 1.0),
        "beta_min": (POSITIVE, 0.1), "beta_max": (POSITIVE, 1.0),
        "steps": (COUNT, 6),
        "improved": (BOOLEAN, False),
    },
    "output": {"format": (_choice("json", "csv"), "json")},
    "testfunction": {
        "kind": (_choice("bump"), REQUIRED),
        "box": (_Parser("four numbers a0,b0,a1,b1 with b0 > a0 and b1 > a1",
                        _floats, lambda v: len(v) == 4 and v[1] > v[0]
                        and v[3] > v[2]), REQUIRED),
        "amplitude": (NUMBER, 1.0),
    },
}


# a raw value with its anchor: a file line, or the command-line text it came from
_Entry = namedtuple("_Entry", "value line source", defaults=(None,))


def _error(path, entry, message):
    """A ConfigError anchored at the line, or the command line, of ``entry``."""
    if entry.source is not None:
        return ConfigError(f"{entry.source}: {message}", path)
    return ConfigError(message, path, entry.line)


def _known(section):
    base, _, label = section.partition(".")
    return bool(label) if base == "testfunction" else section in SCHEMA


def resolve_config_path(arg):
    """A plain path, or ``catalogue:NAME`` for a shipped model config."""
    if arg.startswith("catalogue:"):
        name = arg.split(":", 1)[1]
        ref = importlib.resources.files("wedgeqft") / "catalogue" / f"{name}.cfg"
        if not ref.is_file():
            raise ConfigError(f"no catalogue config named {name!r}", path=arg)
        return str(ref)
    return arg


def _parse_sections(path):
    """Raw section -> {key -> entry} mapping with line anchors."""
    sections = {}
    current = None
    try:
        with open(resolve_config_path(path), "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not _known(name):
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


def _parse(path, section, schema, entries):
    """{key: value} for every key of ``schema``; no other key is allowed.
    Values are checked first (``kind`` before a block's other keys), then
    unknown keys, then missing required ones (a misspelt key is unknown)."""
    values = {}
    for key, (parse, default) in schema.items():
        entry = entries.get(key)
        try:
            values[key] = default if entry is None else parse(entry.value)
        except ValueError:
            raise _error(path, entry, f"{section}.{key} must be {parse.what}, "
                                      f"got {entry.value!r}")
    for key, entry in entries.items():
        if key not in schema:
            raise _error(path, entry, f"unknown key {key!r} in [{section}]")
    for key, value in values.items():
        if value is REQUIRED:
            raise ConfigError(f"{section}.{key} is required", path)
    return values


class RunConfig(SimpleNamespace):
    """A checked config: one namespace per SCHEMA section, its keys as
    attributes (``cfg.nuclearity.s_min``), except that ``model`` and
    ``grid`` are the objects built from theirs (with ``model_name`` and
    ``n_max`` beside them), and ``nuclearity.kappa`` is always a number.
    ``path`` is the config as given, ``echo`` its raw entries and
    ``testfunctions`` the built blocks by name."""

    def testfunction(self, name):
        if name not in self.testfunctions:
            raise ConfigError(f"no [testfunction.{name}] block in config",
                              path=self.path)
        return self.testfunctions[name]


def load_config(path, overrides=()):
    """Parse ``path`` or ``catalogue:NAME``, apply ``section.key=value``
    overrides, and check every entry against :data:`SCHEMA`.  An override
    is that text, or a pair (text, source) whose errors name ``source``.
    A missing ``nuclearity.kappa`` is set here to half of ``kappa(model)``."""
    path = str(path)
    raw = _parse_sections(path)
    for item in overrides:
        item, source = ((item, f"--tol-override {item}")
                        if isinstance(item, str) else item)
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.strip().lower().rpartition(".")
        entry = _Entry(value.strip(), None, source)
        if not (eq and dot):
            raise _error(path, entry, "expected section.key=value")
        if not _known(section):
            raise _error(path, entry, f"unknown section [{section}]")
        raw.setdefault(section, {})[key] = entry

    settings = {name: _parse(path, name, keys, raw.get(name, {}))
                for name, keys in SCHEMA.items() if name != "testfunction"}
    testfunctions = {}
    for section, entries in raw.items():
        if section.startswith("testfunction."):
            values = _parse(path, section, SCHEMA["testfunction"], entries)
            testfunctions[section.partition(".")[2]] = Bump2D(
                values["box"], values["amplitude"])
    def applied_last(*names):
        """The given entry among the ``section.key`` ``names`` applied
        last: the command line (the first named there), else the last line."""
        given = filter(None, (raw.get(section, {}).get(key) for section, key
                              in (name.split(".") for name in names)))
        return max(given, key=lambda e: (e.source is not None, e.line or 0))

    # checks across entries, each naming the entry applied last.  A curve
    # of more than one step needs a non-empty range.
    for name, lo, hi in (("nuclearity", "s_min", "s_max"),
                         ("partition", "beta_min", "beta_max")):
        values = settings[name]
        if values["steps"] > 1 and values[lo] >= values[hi]:
            last = applied_last(f"{name}.{lo}", f"{name}.{hi}", f"{name}.steps")
            raise _error(path, last, f"{name}.{lo} must be below {name}.{hi} "
                         f"when {name}.steps > 1, got {values[lo]} and "
                         f"{values[hi]}")
    # smatrix lays n packets on separated blocks of 4+ nodes of the grid,
    # and verify-algebra draws tensors up to rank max(dn_max, n_max + 1);
    # every tensor must fit the dense budget
    count = settings["grid"]["count"]
    for n in settings["smatrix"]["n_values"]:
        if 4 * n > count or count ** n > MAX_TENSOR_ELEMENTS:
            raise _error(path, applied_last("smatrix.n_values", "grid.count"),
                         f"smatrix.n_values holds {n}, which needs "
                         f"grid.count >= {4 * n} and grid.count^{n} <= "
                         f"{MAX_TENSOR_ELEMENTS}, got grid.count {count}")
    algebra = settings["algebra"]
    rank = max(algebra["dn_max"], settings["grid"]["n_max"] + 1)
    if algebra["grid_count"] ** rank > MAX_TENSOR_ELEMENTS:
        raise _error(path, applied_last("algebra.grid_count", "algebra.dn_max",
                                        "grid.n_max"),
                     f"algebra.grid_count^{rank} must be at most "
                     f"{MAX_TENSOR_ELEMENTS} for rank {rank} = max("
                     f"algebra.dn_max, grid.n_max + 1), got algebra.grid_count "
                     f"{algebra['grid_count']}")

    m, grid = settings["model"], settings["grid"]
    try:
        if m["allow_unpaired"]:
            model = ScatteringFunction(epsilon=m["epsilon"], a=m["a"],
                                       zeros=m["zeros"], mass=m["mass"])
        else:
            model = build_model(m["epsilon"], a=m["a"], zeros=m["zeros"],
                                m=m["mass"], auto_mirror=m["auto_mirror"])
    except ModelError as exc:
        raise _error(path, raw["model"]["zeros"], str(exc))
    kap, margin = settings["nuclearity"]["kappa"], kappa(model)
    if kap is None:
        settings["nuclearity"]["kappa"] = margin / 2
    elif not 0.0 < kap < margin:
        raise _error(path, raw["nuclearity"]["kappa"],
                     f"nuclearity.kappa must lie in (0, {margin}), the "
                     f"model's analyticity margin, got {kap}")

    echo = {s: {k: e.value for k, e in entries.items()}
            for s, entries in raw.items()}
    namespaces = {name: SimpleNamespace(**values)
                  for name, values in settings.items()}
    return RunConfig(**{
        **namespaces, "path": path, "echo": echo, "model": model,
        "model_name": m["name"], "n_max": grid["n_max"],
        "grid": RapidityGrid(grid["theta_max"], grid["count"]),
        "testfunctions": testfunctions})
