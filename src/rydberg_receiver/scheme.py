"""Atomic level schemes: parities, coupling architectures, channel counts.

A :class:`LevelScheme` describes the K-level manifold the receiver runs on:
level parities (for dipole selection rules), the RF transition graph of one
of the three coupling architectures, and the radiative decay channels. The
bundled six-level cesium scheme (see ``data/cesium_six_level.ini``) is the
default everywhere else in the package.

Units: angular frequencies in rad/us, time in us. Scheme files carry
ordinary frequencies with explicit unit suffixes and are read and
converted by :mod:`.config`'s INI reader.
"""

from __future__ import annotations

from enum import Enum
from importlib import resources

from .config import (
    ConfigError, Field, _key_table, _position, convert_section, read_file, read_ini, record,
    rule_breach,
)


class Architecture(Enum):
    """RF coupling topology over the Rydberg manifold."""

    CRS = "CRS"        # cascade: sequential adjacent transitions
    PRS = "PRS"        # parallel: star of transitions sharing one level
    HYBRID = "Hybrid"  # cascade plus the loop-closing branch


@record
class Level:
    """One atomic level; level k of a scheme is ``LevelScheme.levels[k - 1]``.

    Attributes
    ----------
    parity : int
        +1 or -1; electric-dipole transitions connect opposite parities only.
    label : str
        Free-text spectroscopic name, e.g. ``"60D5/2"``.
    """

    RULES = {"parity": Field("int", choices=(1, -1))}
    label: str = ""


@record
class RfTransition:
    """One RF-driven transition and its physical metadata.

    ``carrier_frequency`` and ``detuning`` are angular (rad/us); the dipole
    moment is in units of e*a0. Parity compatibility is checked at the
    scheme level where the levels are known.
    """

    RULES = {"lower": Field("int", sign=">"), "upper": Field("int", sign=">"),
             "carrier_frequency": Field("angular_frequency", sign=">"),
             "dipole_moment": Field(sign=">"), "detuning": Field("angular_frequency", 0.0)}
    application_band: str = ""

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"RfTransition: lower < upper required, got ({self.lower}, {self.upper})")


#: The rule of a decay rate (rad/us), in a scheme file's ``[decay]`` sections too.
_DECAY_RATE = Field("angular_frequency", sign=">=")

#: Canonical hybrid six-level RF graph: cascade 3-4-5-6 plus the 3-6 branch.
HYBRID_SIX_EDGES = ((3, 4), (4, 5), (5, 6), (3, 6))


@record
class LevelScheme:
    """Immutable K-level manifold description.

    Attributes
    ----------
    levels : tuple of Level
        Level k is entry k (1-based), so levels are numbered by position.
    architecture : Architecture
    rf_transitions : tuple of RfTransition
        RF channel n is entry n; a six-level hybrid lists exactly
        :data:`HYBRID_SIX_EDGES` in that order (checked here).
    decay_channels : tuple of (int, int, float)
        ``(from_level, to_level, rate)`` with nonnegative rates in rad/us.
    """

    levels: tuple
    architecture: Architecture
    rf_transitions: tuple
    decay_channels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "rf_transitions", tuple(self.rf_transitions))
        object.__setattr__(self, "decay_channels", tuple(tuple(ch) for ch in self.decay_channels))
        k = self.size
        for n, tr in enumerate(self.rf_transitions, 1):
            _position(f"LevelScheme: transition {n} upper", tr.upper, k)
        for (src, dst, rate) in self.decay_channels:
            owner = f"LevelScheme: decay ({src},{dst})"
            if not _position(owner, dst, k) < _position(owner, src, k):
                raise ValueError(f"{owner} must go downward")
            if breach := rule_breach(_DECAY_RATE, rate):
                raise ValueError(f"LevelScheme: decay rate for {src}->{dst} {breach}")
        if self.architecture is Architecture.HYBRID and k == 6:
            edges = tuple((tr.lower, tr.upper) for tr in self.rf_transitions)
            if edges != HYBRID_SIX_EDGES:
                raise ValueError(
                    "LevelScheme: six-level hybrid must carry exactly the RF edges "
                    f"{HYBRID_SIX_EDGES} as transitions 1..4, got {edges}"
                )

    @property
    def size(self):
        """Number of levels K."""
        return len(self.levels)

    def level(self, k):
        """Level ``k`` (1-based)."""
        return self.levels[_position("LevelScheme.level", k, self.size)]

    def transition(self, n):
        """RF transition number ``n`` (1-based, in scheme order)."""
        return self.rf_transitions[_position("LevelScheme.transition", n, len(self.rf_transitions))]

    def decay_rate(self, src, dst):
        """Decay rate of channel ``src -> dst`` (rad/us); 0.0 if absent."""
        for (s, d, rate) in self.decay_channels:
            if (s, d) == (src, dst):
                return rate
        return 0.0


def channel_count(architecture, k):
    """Number of simultaneously accessible RF channels for K levels.

    Cascade gives ``K - 3``, parallel ``floor((K - 2) / 2)``, and the hybrid
    combination ``(K - 3) + floor((K - 4) / 2)``.

    Raises
    ------
    ValueError
        If ``K`` is below the architecture's smallest feasible manifold
        (4 for CRS/PRS; 6 for hybrid, since a 5-level hybrid would need a
        parity-forbidden triangular loop).
    """
    arch = Architecture(architecture)
    if arch is Architecture.HYBRID:
        if k < 6:
            raise ValueError(
                f"hybrid coupling is infeasible at K={k}: the loop branch would close "
                "a parity-forbidden triangle; smallest feasible configuration occurs at K=6"
            )
        return (k - 3) + (k - 4) // 2
    if k < 4:
        raise ValueError(f"{arch.value} architecture requires K >= 4, got {k}")
    if arch is Architecture.CRS:
        return k - 3
    return (k - 2) // 2


@record
class ValidationReport:
    """Outcome of :func:`validate_scheme`.

    ``parity_violations`` holds one message per offending transition;
    ``odd_loops`` holds one representative cycle (tuple of level numbers)
    per detected odd-length RF loop. An empty report means the scheme is
    realizable.
    """

    parity_violations: tuple = ()
    odd_loops: tuple = ()

    @property
    def valid(self):
        return not self.parity_violations and not self.odd_loops

    def summary(self):
        if self.valid:
            return "scheme valid: parity rules satisfied, no odd RF loops"
        lines = [f"parity violation: {msg}" for msg in self.parity_violations]
        lines += [f"odd-length RF loop (parity-infeasible): {'-'.join(map(str, loop))}"
                  for loop in self.odd_loops]
        return "\n".join(lines)


def _odd_cycles(k, edges):
    """One representative odd cycle per violating edge, via 2-coloring: an
    edge (u, v) between equal colors closes the tree path from u up to the
    lowest common ancestor of u and v and down to v. Each cycle starts at
    its smallest index, and one is kept per vertex set."""
    adj = {i: [] for i in range(1, k + 1)}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    color, parent, cycles, seen = {}, {}, [], set()

    def path_up(x):  # x and its tree ancestors, bottom up
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    for root in range(1, k + 1):
        if root in color or not adj[root]:
            continue
        color[root] = 0
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    stack.append(v)
                elif color[v] == color[u]:
                    up, down = path_up(u), path_up(v)
                    top = next(x for x in up if x in down)
                    cycle = tuple(up[: up.index(top) + 1] + down[: down.index(top)][::-1])
                    if frozenset(cycle) not in seen:
                        seen.add(frozenset(cycle))
                        start = cycle.index(min(cycle))
                        cycles.append(cycle[start:] + cycle[:start])
    return tuple(cycles)


def validate_scheme(scheme):
    """Check parity selection rules and RF-loop parity feasibility.

    Report-style: never raises on physics violations, lists them all. A
    transition between equal parities violates the electric-dipole rule;
    any odd-length loop in the RF graph is infeasible outright because
    parities two-color the graph.
    """
    edges = [(tr.lower, tr.upper) for tr in scheme.rf_transitions]
    parities = [(a, b, scheme.level(a).parity, scheme.level(b).parity) for a, b in edges]
    violations = tuple(f"transition {a}-{b} connects equal parities ({pa:+d}, {pb:+d})"
                       for a, b, pa, pb in parities if pa == pb)
    return ValidationReport(violations, _odd_cycles(scheme.size, edges))


def require_hybrid_six(scheme):
    """Raise ValueError unless ``scheme`` is the six-level hybrid.

    The master-equation engine simulates only that scheme. Its RF channel
    order is already checked by :class:`LevelScheme`.
    """
    if scheme.architecture is not Architecture.HYBRID or scheme.size != 6:
        raise ValueError(
            "only the six-level hybrid scheme can be simulated; got "
            f"{scheme.architecture.value} with K={scheme.size} and "
            f"{len(scheme.rf_transitions)} RF transitions"
        )


# ----------------------------------------------------------------------
# Scheme files


#: Keys of each kind of scheme-file section; a None default marks a
#: required key.
_SECTION_FIELDS = {
    "scheme": {"architecture": Field("str", None, choices=tuple(a.value for a in Architecture))},
    "level": {"parity": Level.RULES["parity"], "label": Field("str", "")},
    "transition": {
        "lower": RfTransition.RULES["lower"], "upper": RfTransition.RULES["upper"],
        "carrier": RfTransition.RULES["carrier_frequency"],
        "dipole_ea0": RfTransition.RULES["dipole_moment"],
        "detuning": RfTransition.RULES["detuning"], "band": Field("str", ""),
    },
    "decay": {"rate": _DECAY_RATE},
}


def _classify(name, origin):
    """Kind and number of a section: ``[scheme]`` has (), ``[level.N]`` and
    ``[transition.N]`` have N, ``[decay.S-D]`` has (S, D)."""
    kind, dot, tail = name.partition(".")
    arity = {"scheme": 0, "level": 1, "transition": 1, "decay": 2}.get(kind)
    digits = tail.split("-") if dot else []
    if arity is None or len(digits) != arity or not all(d.isdecimal() for d in digits):
        raise ConfigError(f"{origin}: unknown section [{name}]")
    numbers = tuple(int(d) for d in digits)
    return kind, numbers[0] if arity == 1 else numbers


def parse_scheme(text, origin="<string>"):
    """Parse a level-scheme definition from INI text.

    Layout: a ``[scheme]`` section with ``architecture``; one ``[level.N]``
    section per level with ``parity`` and optional ``label``; one
    ``[transition.N]`` per RF transition with ``lower``, ``upper``,
    ``carrier_<unit>``, ``dipole_ea0``, optional ``detuning_<unit>`` and
    ``band``; one ``[decay.S-D]`` per decay channel with ``rate_<unit>``.
    All frequencies are ordinary (not angular) and converted on load, by
    the same reader and rules as run configs (:mod:`.config`).

    Level k is section ``[level.k]`` and RF channel N is section
    ``[transition.N]``: each kind is numbered 1..K (or 1..T) with no gap,
    and no two sections share a number. A six-level hybrid numbers its
    transitions 3-4, 4-5, 5-6, 3-6 (the loop branch is channel 4); any
    other numbering is rejected.
    """
    where = f"{origin}:"  # prefix of a ValueError from the scheme's own classes
    try:
        sections = read_ini(text, origin)
        sections.setdefault("scheme", {})
        parts = {kind: {} for kind in _SECTION_FIELDS}
        for name, items in sections.items():
            where = f"{origin}: [{name}]"
            kind, number = _classify(name, origin)
            if number in parts[kind]:
                raise ConfigError(f"{where} repeats an earlier section's number")
            fields = _SECTION_FIELDS[kind]
            v = convert_section(fields, name, items, origin)
            for key, value in v.items():
                if value is None:
                    unit = "" if key in _key_table(fields) else "_<unit>"
                    raise ConfigError(f"{where} missing key '{key}{unit}'")
            if kind == "scheme":
                part = Architecture(v["architecture"])
            elif kind == "level":
                part = Level(v["parity"], v["label"])
            elif kind == "transition":
                part = RfTransition(v["lower"], v["upper"], v["carrier"], v["dipole_ea0"],
                                    v["detuning"], v["band"])
            else:
                part = (*number, v["rate"])
            parts[kind][number] = part
        where = f"{origin}:"
        for kind in ("level", "transition"):
            numbers = sorted(parts[kind])
            if numbers != list(range(1, len(numbers) + 1)):
                raise ConfigError(f"{where} [{kind}.N] must be numbered 1..{len(numbers)}, "
                                  f"got {numbers}")
            parts[kind] = tuple(parts[kind][n] for n in numbers)
        return LevelScheme(
            levels=parts["level"],
            architecture=parts["scheme"][()],
            rf_transitions=parts["transition"],
            decay_channels=tuple(parts["decay"].values()),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def load_scheme(path):
    """Load a :class:`LevelScheme` from a scheme file on disk."""
    return parse_scheme(read_file(path, "scheme"), origin=str(path))


def cesium_scheme():
    """The bundled six-level cesium hybrid scheme (the package default)."""
    text = resources.files("rydberg_receiver").joinpath("data/cesium_six_level.ini").read_text()
    return parse_scheme(text, origin="cesium_six_level.ini")
