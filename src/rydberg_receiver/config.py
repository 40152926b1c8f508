"""Strict INI configuration parsing with unit-suffixed keys, and the
package's physical constants and unit tables.

Dimensioned values never appear bare: the key carries the unit as a
suffix (``omega_p_mhz = 5.7``, ``duration_us = 200``) and the parser
converts to package-internal canonical units (angular frequencies in
rad/us, ordinary frequencies in MHz, times in us, powers in W, SI for
everything else). Unknown sections, unknown keys, duplicate unit variants
of the same key, and unparseable values are all hard errors naming the
offending location, so a typo never silently falls back to a default.
Run configs and level-scheme files (:mod:`.scheme`) share this reader:
:func:`read_file`, :func:`read_ini`, then :func:`convert_section`.

This module holds the package's SI constants (CODATA 2022 values:
``hbar``, ``epsilon_0``, ``c_light``, ``k_B``, :data:`EA0`) and unit
conversions; the other modules take them from here.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import TWO_PI

#: SI constants, CODATA 2022.
hbar = 1.0545718176461565e-34  # J s
epsilon_0 = 8.8541878188e-12  # F/m
c_light = 299792458.0  # m/s
e_charge = 1.602176634e-19  # C
k_B = 1.380649e-23  # J/K
BOHR_RADIUS = 5.29177210544e-11  # m

#: One atomic dipole unit e*a0 in C*m.
EA0 = e_charge * BOHR_RADIUS


class ConfigError(ValueError):
    """Malformed configuration content."""


def dbm_to_watts(dbm):
    """Convert dBm to watts."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


#: kind -> {suffix: factor or callable} mapping raw values to canonical
#: units. Angular frequencies land in rad/us (the 2 pi is in the factor),
#: ordinary frequencies in MHz, times in us, the rest in SI.
_SUFFIXES = {
    "angular_frequency": {
        "ghz": TWO_PI * 1e3, "mhz": TWO_PI, "khz": TWO_PI * 1e-3, "hz": TWO_PI * 1e-9
    },
    "ordinary_frequency": {"ghz": 1e3, "mhz": 1.0, "khz": 1e-3, "hz": 1e-6},
    "time": {"us": 1.0, "ms": 1e3, "s": 1e6},
    "power": {"dbm": dbm_to_watts, "mw": 1e-3, "w": 1.0},
    "temperature": {"k": 1.0},
    "length": {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "density": {"per_cm3": 1e6, "per_m3": 1.0},
    "dipole": {"ea0": EA0},
    "responsivity": {"a_per_w": 1.0},
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}

#: plain kind -> (converter, noun, plural noun) of its error messages. A kind
#: of :data:`_SUFFIXES` reads as a float with a unit suffix, and ``<kind>_list``
#: is a comma-separated list of ``<kind>``.
_KINDS = {
    "float": (float, "a number", "numbers"),
    "int": (int, "an integer", "integers"),
    "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean", "booleans"),
    "str": (str, None, None),
}


def record(cls=None, *, eq=True):
    """Declare ``cls`` a frozen dataclass (``eq=False``: equal only to itself) whose
    fields are its ``RULES`` in order, each defaulting to its :class:`Field`'s
    ``default`` (None: required), then the names the class body annotates.
    :func:`check_fields` runs before the class's own ``__post_init__``."""
    if cls is None:
        return functools.partial(record, eq=eq)
    rules = vars(cls).get("RULES", {})
    cls.__annotations__ = {**dict.fromkeys(rules, "object"), **vars(cls).get("__annotations__", {})}
    for name, rule in rules.items():
        if rule.default is not None:
            setattr(cls, name, rule.default)
    if rules:
        own = vars(cls).get("__post_init__")
        def __post_init__(self):
            check_fields(self)
            own(self)
        cls.__post_init__ = __post_init__ if own else check_fields
    return dataclass(frozen=True, eq=eq)(cls)


@record
class Field:
    """The rule of a config key, record field or function argument, declared once at import.

    ``kind`` selects the converter (and, for dimensioned kinds, the set of
    accepted unit suffixes); ``default`` is the value of an absent key and the
    default of a record field, where None makes the field required. The
    rest is the rule, which the reader checks on every value it reads (not
    defaults), :func:`check_fields` on a record's ``RULES`` and :func:`check_args`
    on arguments: every number must be finite, and an ``int`` kind's an integer;
    ``sign`` (``">"`` or ``">="``) bounds the value, or each entry, against 0;
    ``counts`` lists the allowed numbers of entries; ``choices`` the allowed values.
    """

    kind: str = "float"
    default: object = None
    sign: str | None = None
    counts: tuple | None = None
    choices: tuple | None = None


def _apply(factor, value):
    if factor is None:
        return value
    return factor(value) if callable(factor) else factor * value


def _kind(field):
    """``field``'s kind by the ``_list`` rule, as (plain kind, whether a list,
    {unit suffix: factor}); a plain kind's one suffix is "" with no factor."""
    kind = field.kind
    base = kind.removesuffix("_list")
    if base in _SUFFIXES:
        return "float", base != kind, _SUFFIXES[base]
    if base in _KINDS:
        return base, base != kind, {"": None}
    raise TypeError(f"Field has unknown kind {kind!r}")


def _key_table(section_schema):
    """Map every acceptable raw key of a section to (base, (plain kind, whether a list), factor)."""
    table = {}
    for base, field in section_schema.items():
        plain, is_list, units = _kind(field)
        for suffix, factor in units.items():
            table[f"{base}_{suffix}" if suffix else base] = (base, (plain, is_list), factor)
    return table


def read_file(path, what="config"):
    """The UTF-8 text of the file at ``path``; ConfigError if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"{path}: cannot read {what} ({reason})") from None


def read_ini(text, origin):
    """Split INI ``text`` into ``{section: {raw key: raw value}}``.

    Interpolation is off, so ``%`` is literal; a repeated section or key and
    a ``[DEFAULT]`` section are errors.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"{origin}: [DEFAULT] section is not supported")
    return {name: dict(parser.items(name)) for name in parser.sections()}


def rule_breach(field, value):
    """How ``value`` (a number, a tuple, a list or an array) breaks ``field``'s rule,
    as ``"must ..."`` text, or None if it keeps it. An array is checked by
    numpy as a whole; an integer is compared as it is, never converted to float."""
    array = isinstance(value, np.ndarray)
    entries = value if array or isinstance(value, (tuple, list)) else (value,)
    if not (np.isfinite(value).all() if array
            else all(math.isfinite(v) for v in entries if isinstance(v, (float, np.floating)))):
        return f"must be finite, got {value}"
    if _kind(field)[0] == "int" and not all(isinstance(v, (int, np.integer)) for v in entries):
        return f"must be an integer, got {value}"
    if field.counts and len(value) not in field.counts:
        return f"must have {' or '.join(str(n) for n in field.counts)} entries"
    if field.sign:
        low = value.min(initial=math.inf) if array else min(entries)
        if not (low > 0 if field.sign == ">" else low >= 0):
            return f"must be {field.sign} 0"
    if field.choices and value not in field.choices:
        return f"must be one of {', '.join(map(str, field.choices))}"


def check_args(owner, rules, **values):
    """ValueError naming ``owner.name`` for the first value that breaks its rule in ``rules``."""
    for name, value in values.items():
        if breach := rule_breach(rules[name], value):
            raise ValueError(f"{owner}.{name} {breach}")


def _position(owner, number, count):
    """0-based position of the 1-based ``number``; ValueError naming ``owner`` unless an
    integer in 1..count, and not ``True``."""
    if number is True or not (isinstance(number, (int, np.integer)) and 1 <= number <= count):
        raise ValueError(f"{owner}: {number} is not in 1..{count}")
    return number - 1


def check_fields(record):
    """Hold each non-integer field in the frozen ``record``'s ``RULES`` as floats (a tuple if its
    rule counts entries, an array as it is); ValueError naming ``Record.field`` if one breaks it."""
    for name, rule in record.RULES.items():
        value = getattr(record, name)
        if _kind(rule)[0] != "int" and (rule.counts or not isinstance(value, np.ndarray)):
            value = tuple(float(v) for v in value) if rule.counts else float(value)
            object.__setattr__(record, name, value)
        check_args(type(record).__name__, record.RULES, **{name: value})


def convert_section(section_schema, section, items, origin):
    """Convert one section's raw ``items`` against ``section_schema``.

    Each value is converted to canonical units and checked against its
    :class:`Field`'s rule as it is read. Returns {base key: value} with
    every schema key present, absent keys at their defaults.
    """
    table = _key_table(section_schema)
    values = {}
    seen_raw = {}
    for raw_key, raw_value in items.items():
        if raw_key not in table:
            suffixed = [key for key, (base, _, _) in table.items() if base == raw_key]
            hint = f" (needs a unit suffix: {', '.join(suffixed)})" if suffixed else ""
            raise ConfigError(f"{origin}: [{section}] unknown key {raw_key!r}{hint}")
        base, (plain, is_list), factor = table[raw_key]
        if base in values:
            raise ConfigError(
                f"{origin}: [{section}] keys {seen_raw[base]!r} and "
                f"{raw_key!r} both set {base!r}"
            )
        where = f"{origin}: [{section}] {raw_key}"
        convert, noun, nouns = _KINDS[plain]
        raw = raw_value.strip()
        parts = [p.strip() for p in raw.split(",")] if is_list else [raw]
        if parts == [""] and is_list:
            raise ConfigError(f"{where}: empty list")
        try:
            value = tuple(_apply(factor, convert(p)) for p in parts)
        except (KeyError, ValueError):
            expected = f"comma-separated {nouns}" if is_list else noun
            raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from None
        except OverflowError:
            raise ConfigError(f"{where}: {raw!r} is out of range") from None
        value = value if is_list else value[0]
        if breach := rule_breach(section_schema[base], value):
            raise ConfigError(f"{origin}: [{section}] {base} {breach}")
        values[base] = value
        seen_raw[base] = raw_key
    for base, field in section_schema.items():
        values.setdefault(base, field.default)
    return values


def parse_config(text, schema, origin="<config>"):
    """Parse INI ``text`` against ``schema``.

    ``schema`` maps section name -> {base key -> :class:`Field`}. Returns
    {section: {base key: converted value}} with every schema key present
    (defaults filled in). Sections absent from the file are returned as
    pure defaults.
    """
    sections = read_ini(text, origin)
    for section in sections:
        if section not in schema:
            raise ConfigError(f"{origin}: unknown section [{section}]")
    return {
        section: convert_section(section_schema, section, sections.get(section, {}), origin)
        for section, section_schema in schema.items()
    }


def load_config(path, schema):
    """Parse the INI file at ``path`` against ``schema``."""
    return parse_config(read_file(path), schema, origin=str(path))
