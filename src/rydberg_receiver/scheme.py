"""Atomic level schemes: parities, coupling architectures, channel counts.

A :class:`LevelScheme` describes the K-level manifold the receiver runs on:
level parities (for dipole selection rules), the RF transition graph of one
of the three coupling architectures, and the radiative decay channels. The
bundled six-level cesium scheme (see ``data/cesium_six_level.ini``) is the
default everywhere else in the package.

Units: angular frequencies in rad/us, time in us. Scheme files carry
ordinary frequencies with explicit unit suffixes and are converted on load.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .config import ANGULAR_FREQUENCY_SUFFIXES

__all__ = [
    "Architecture",
    "Level",
    "RfTransition",
    "LevelScheme",
    "ValidationReport",
    "channel_count",
    "validate_scheme",
    "closed_loop_detuning",
    "load_scheme",
    "cesium_scheme",
]


class Architecture(Enum):
    """RF coupling topology over the Rydberg manifold."""

    CRS = "CRS"        # cascade: sequential adjacent transitions
    PRS = "PRS"        # parallel: star of transitions sharing one level
    HYBRID = "Hybrid"  # cascade plus the loop-closing branch


@dataclass(frozen=True)
class Level:
    """One atomic level.

    Attributes
    ----------
    index : int
        1-based position in the ladder; indices in a scheme are contiguous.
    parity : int
        +1 or -1; electric-dipole transitions connect opposite parities only.
    label : str
        Free-text spectroscopic name, e.g. ``"60D5/2"``.
    """

    index: int
    parity: int
    label: str = ""

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"Level: index must be >= 1, got {self.index}")
        if self.parity not in (1, -1):
            raise ValueError(f"Level {self.index}: parity must be +1 or -1, got {self.parity}")


@dataclass(frozen=True)
class RfTransition:
    """One RF-driven transition and its physical metadata.

    ``carrier_frequency`` and ``detuning`` are angular (rad/us); the dipole
    moment is in units of e*a0. Parity compatibility is checked at the
    scheme level where the levels are known.
    """

    lower: int
    upper: int
    carrier_frequency: float
    dipole_moment: float
    detuning: float = 0.0
    application_band: str = ""

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"RfTransition: lower < upper required, got ({self.lower}, {self.upper})"
            )


#: Canonical hybrid six-level RF graph: cascade 3-4-5-6 plus the 3-6 branch.
HYBRID_SIX_EDGES = ((3, 4), (4, 5), (5, 6), (3, 6))


@dataclass(frozen=True)
class LevelScheme:
    """Immutable K-level manifold description.

    Attributes
    ----------
    levels : tuple of Level
        Unique, contiguous indices starting at 1.
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
        indices = sorted(lv.index for lv in self.levels)
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError(f"LevelScheme: level indices must be 1..K contiguous, got {indices}")
        k = len(indices)
        for tr in self.rf_transitions:
            if tr.upper > k:
                raise ValueError(f"LevelScheme: transition ({tr.lower},{tr.upper}) exceeds K={k}")
        for (src, dst, rate) in self.decay_channels:
            if not (1 <= dst < src <= k):
                raise ValueError(f"LevelScheme: decay ({src},{dst}) must go downward within 1..{k}")
            if rate < 0:
                raise ValueError(
                    f"LevelScheme: decay rate for {src}->{dst} is negative ({rate} rad/us)"
                )
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

    def level(self, index):
        """Level with the given 1-based index."""
        for lv in self.levels:
            if lv.index == index:
                return lv
        raise KeyError(f"no level with index {index}")

    def transition(self, n):
        """RF transition number ``n`` (1-based, in scheme order)."""
        return self.rf_transitions[n - 1]

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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_scheme`.

    ``parity_violations`` holds one message per offending transition;
    ``odd_loops`` holds one representative cycle (tuple of level indices)
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
        lines = []
        for msg in self.parity_violations:
            lines.append(f"parity violation: {msg}")
        for loop in self.odd_loops:
            lines.append(f"odd-length RF loop (parity-infeasible): {'-'.join(map(str, loop))}")
        return "\n".join(lines)


def _odd_cycles(k, edges):
    """One representative odd cycle per violating edge, via 2-coloring."""
    adj = {i: [] for i in range(1, k + 1)}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    color = {}
    parent = {}
    cycles = []
    seen_edges = set()
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
                elif color[v] == color[u] and frozenset((u, v)) not in seen_edges:
                    seen_edges.add(frozenset((u, v)))
                    # Reconstruct the cycle through the tree paths to the
                    # lowest common ancestor of u and v.
                    pu, pv = [u], [v]
                    su, sv = {u}, {v}
                    cu, cv = u, v
                    while True:
                        if parent[cu] is not None:
                            cu = parent[cu]
                            if cu in sv:
                                idx = pv.index(cu)
                                cycles.append(tuple(reversed(pu + [cu])) + tuple(reversed(pv[:idx])))
                                break
                            pu.append(cu)
                            su.add(cu)
                        if parent[cv] is not None:
                            cv = parent[cv]
                            if cv in su:
                                idx = pu.index(cv)
                                cycles.append(tuple(pu[: idx + 1]) + tuple(reversed(pv)))
                                break
                            pv.append(cv)
                            sv.add(cv)
                        if parent[cu] is None and parent[cv] is None:
                            break
    # Normalize: smallest index first, deduplicate by vertex set.
    out, seen = [], set()
    for cyc in cycles:
        key = frozenset(cyc)
        if key not in seen:
            seen.add(key)
            start = cyc.index(min(cyc))
            out.append(cyc[start:] + cyc[:start])
    return tuple(out)


def validate_scheme(scheme):
    """Check parity selection rules and RF-loop parity feasibility.

    Report-style: never raises on physics violations, lists them all. A
    transition between equal parities violates the electric-dipole rule;
    any odd-length loop in the RF graph is infeasible outright because
    parities two-color the graph.
    """
    violations = []
    for tr in scheme.rf_transitions:
        pl = scheme.level(tr.lower).parity
        pu = scheme.level(tr.upper).parity
        if pl * pu != -1:
            violations.append(
                f"transition {tr.lower}-{tr.upper} connects equal parities ({pl:+d}, {pu:+d})"
            )
    edges = [(tr.lower, tr.upper) for tr in scheme.rf_transitions]
    loops = _odd_cycles(scheme.size, edges)
    return ValidationReport(parity_violations=tuple(violations), odd_loops=loops)


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


def closed_loop_detuning(scheme):
    """Net detuning around the RF loop 3-4-5-6-3 (rad/us).

    The loop branch detuning minus the sum of the cascade detunings. Zero
    is required for a time-independent rotating frame to exist.

    Raises
    ------
    ValueError
        For anything but the six-level hybrid scheme.
    """
    require_hybrid_six(scheme)
    d1, d2, d3, d4 = (tr.detuning for tr in scheme.rf_transitions)
    return d4 - (d1 + d2 + d3)


# ----------------------------------------------------------------------
# Scheme files


class SchemeFileError(ValueError):
    """Malformed scheme file; the message names the offending section/key."""


def _freq_value(section, items, prefix, where):
    """Read exactly one ``<prefix>_<unit>`` key and convert to rad/us."""
    units = ANGULAR_FREQUENCY_SUFFIXES
    hits = [k for k in items if k == prefix or (k.startswith(prefix + "_") and k[len(prefix) + 1 :] in units)]
    if not hits:
        raise SchemeFileError(f"{where}: missing key '{prefix}_<unit>' (unit in {sorted(units)})")
    if len(hits) > 1:
        raise SchemeFileError(f"{where}: duplicate frequency keys {hits}")
    key = hits[0]
    if key == prefix:
        raise SchemeFileError(f"{where}: key '{prefix}' needs an explicit unit suffix")
    try:
        value = float(items[key])
    except ValueError:
        raise SchemeFileError(f"{where}: key '{key}' is not a number: {items[key]!r}") from None
    return value * units[key[len(prefix) + 1 :]]


def parse_scheme(text, origin="<string>"):
    """Parse a level-scheme definition from INI text.

    Layout: a ``[scheme]`` section with ``architecture``; one ``[level.N]``
    section per level with ``parity`` and optional ``label``; one
    ``[transition.N]`` per RF transition with ``lower``, ``upper``,
    ``carrier_<unit>``, ``dipole_ea0``, optional ``detuning_<unit>`` and
    ``band``; one ``[decay.S-D]`` per decay channel with ``rate_<unit>``.
    All frequencies are ordinary (not angular) and converted on load.

    RF channel N is section ``[transition.N]``. A six-level hybrid numbers
    its transitions 3-4, 4-5, 5-6, 3-6 (the loop branch is channel 4); any
    other numbering is rejected.
    """
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SchemeFileError(f"{origin}: {exc}") from None
    if "scheme" not in cp:
        raise SchemeFileError(f"{origin}: missing [scheme] section")
    arch_name = cp["scheme"].get("architecture")
    if arch_name is None:
        raise SchemeFileError(f"{origin}: [scheme] missing 'architecture'")
    try:
        arch = Architecture(arch_name)
    except ValueError:
        raise SchemeFileError(
            f"{origin}: unknown architecture {arch_name!r} "
            f"(expected one of {[a.value for a in Architecture]})"
        ) from None

    levels, transitions, decays = [], [], []
    for name in cp.sections():
        if name == "scheme":
            continue
        items = dict(cp[name])
        if name.startswith("level."):
            idx = _int_tail(name, "level.", origin)
            if "parity" not in items:
                raise SchemeFileError(f"{origin}: [{name}] missing 'parity'")
            try:
                parity = int(items["parity"])
            except ValueError:
                raise SchemeFileError(f"{origin}: [{name}] parity is not an integer") from None
            try:
                levels.append(Level(index=idx, parity=parity, label=items.get("label", "")))
            except ValueError as exc:
                raise SchemeFileError(f"{origin}: [{name}] {exc}") from None
            _reject_unknown(items, {"parity", "label"}, name, origin)
        elif name.startswith("transition."):
            n = _int_tail(name, "transition.", origin)
            for req in ("lower", "upper", "dipole_ea0"):
                if req not in items:
                    raise SchemeFileError(f"{origin}: [{name}] missing '{req}'")
            carrier = _freq_value(name, items, "carrier", f"{origin}: [{name}]")
            detuning = 0.0
            if any(k.startswith("detuning") for k in items):
                detuning = _freq_value(name, items, "detuning", f"{origin}: [{name}]")
            try:
                transition = RfTransition(
                    lower=int(items["lower"]),
                    upper=int(items["upper"]),
                    carrier_frequency=carrier,
                    dipole_moment=float(items["dipole_ea0"]),
                    detuning=detuning,
                    application_band=items.get("band", ""),
                )
            except ValueError as exc:
                raise SchemeFileError(f"{origin}: [{name}] {exc}") from None
            transitions.append((n, transition))
        elif name.startswith("decay."):
            pair = name[len("decay.") :]
            try:
                src, dst = (int(p) for p in pair.split("-"))
            except ValueError:
                raise SchemeFileError(f"{origin}: bad decay section name [{name}]") from None
            rate = _freq_value(name, items, "rate", f"{origin}: [{name}]")
            decays.append((src, dst, rate))
        else:
            raise SchemeFileError(f"{origin}: unknown section [{name}]")

    levels.sort(key=lambda lv: lv.index)
    transitions.sort(key=lambda pair: pair[0])
    try:
        return LevelScheme(
            levels=tuple(levels),
            architecture=arch,
            rf_transitions=tuple(tr for (_n, tr) in transitions),
            decay_channels=tuple(decays),
        )
    except ValueError as exc:
        raise SchemeFileError(f"{origin}: {exc}") from None


def _int_tail(name, prefix, origin):
    try:
        return int(name[len(prefix) :])
    except ValueError:
        raise SchemeFileError(f"{origin}: bad section name [{name}]") from None


def _reject_unknown(items, known, section, origin):
    unknown = set(items) - known
    if unknown:
        raise SchemeFileError(f"{origin}: [{section}] unknown keys {sorted(unknown)}")


def load_scheme(path):
    """Load a :class:`LevelScheme` from a scheme file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read(), origin=str(path))


def cesium_scheme():
    """The bundled six-level cesium hybrid scheme (the package default)."""
    text = resources.files("rydberg_receiver").joinpath("data/cesium_six_level.ini").read_text()
    return parse_scheme(text, origin="cesium_six_level.ini")
