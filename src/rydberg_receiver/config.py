"""Strict INI configuration parsing with unit-suffixed keys, and the
package's physical constants and unit tables.

Dimensioned values never appear bare: the key carries the unit as a
suffix (``omega_p_mhz = 5.7``, ``duration_us = 200``) and the parser
converts to package-internal canonical units (angular frequencies in
rad/us, ordinary frequencies in MHz, times in us, powers in W, SI for
everything else). Unknown sections, unknown keys, duplicate unit variants
of the same key, and unparseable values are all hard errors naming the
offending location, so a typo never silently falls back to a default.

This is the one module that reads :mod:`scipy.constants`; the others take
their SI constants (``hbar``, ``epsilon_0``, ``c_light``, ``k_B``,
:data:`EA0`) and unit conversions from here.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from scipy.constants import c as c_light
from scipy.constants import e as e_charge
from scipy.constants import epsilon_0, hbar, physical_constants
from scipy.constants import k as k_B

from .numerics import TWO_PI

__all__ = ["ConfigError", "Field", "parse_config", "load_config"]

#: One atomic dipole unit e*a0 in C*m.
EA0 = e_charge * physical_constants["Bohr radius"][0]


class ConfigError(ValueError):
    """Malformed configuration content."""


def dbm_to_watts(dbm):
    """Convert dBm to watts."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


#: rad/us per unit of ordinary frequency, by unit suffix.
ANGULAR_FREQUENCY_SUFFIXES = {
    "ghz": TWO_PI * 1e3,
    "mhz": TWO_PI,
    "khz": TWO_PI * 1e-3,
    "hz": TWO_PI * 1e-9,
}

#: kind -> {suffix: factor or callable} mapping raw values to canonical
#: units. Angular frequencies land in rad/us (the 2 pi is in the factor),
#: ordinary frequencies in MHz, times in us, the rest in SI.
_SUFFIXES = {
    "angular_frequency": ANGULAR_FREQUENCY_SUFFIXES,
    "ordinary_frequency": {"ghz": 1e3, "mhz": 1.0, "khz": 1e-3, "hz": 1e-6},
    "time": {"us": 1.0, "ms": 1e3, "s": 1e6},
    "power": {"dbm": dbm_to_watts, "mw": 1e-3, "w": 1.0},
    "temperature": {"k": 1.0},
    "length": {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "density": {"per_cm3": 1e6, "per_m3": 1.0},
    "dipole": {"ea0": EA0},
    "responsivity": {"a_per_w": 1.0},
}

_LIST_KINDS = {
    "angular_frequency_list": "angular_frequency",
    "ordinary_frequency_list": "ordinary_frequency",
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class Field:
    """Schema entry for one config key.

    ``kind`` selects the converter (and, for dimensioned kinds, the set of
    accepted unit suffixes); ``default`` is the value of an absent key. The
    remaining fields are the key's rule, checked by the command line on
    every value but a default of None: ``sign`` (``">"`` or ``">="``) bounds
    the value, or each list entry, against 0; ``counts`` lists the allowed
    list lengths; ``choices`` lists the allowed strings.
    """

    kind: str
    default: object
    sign: str | None = None
    counts: tuple | None = None
    choices: tuple | None = None


def _apply(factor, value):
    return factor(value) if callable(factor) else factor * value


def _scalar(kind, raw, where):
    raw = raw.strip()
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if kind == "bool":
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    raise ConfigError(f"{where}: unsupported kind {kind!r}")


def _list(raw, where, convert):
    parts = [p.strip() for p in raw.split(",")]
    if parts == [""]:
        raise ConfigError(f"{where}: empty list")
    try:
        return tuple(convert(p) for p in parts)
    except ValueError:
        noun = "integers" if convert is int else "numbers"
        raise ConfigError(f"{where}: expected comma-separated {noun}, got {raw!r}") from None


def _key_table(section_schema, section, origin):
    """Map every acceptable raw key of a section to (base, kind, factor)."""
    table = {}
    for base, field in section_schema.items():
        kind = field.kind
        if kind in _SUFFIXES:
            for suffix, factor in _SUFFIXES[kind].items():
                table[f"{base}_{suffix}"] = (base, "float", factor)
        elif kind in _LIST_KINDS:
            for suffix, factor in _SUFFIXES[_LIST_KINDS[kind]].items():
                table[f"{base}_{suffix}"] = (base, "float_list", factor)
        elif kind in ("float", "int", "bool", "str"):
            table[base] = (base, kind, None)
        elif kind == "float_list":
            table[base] = (base, "float_list", None)
        elif kind == "int_list":
            table[base] = (base, "int_list", None)
        else:
            raise ConfigError(
                f"{origin}: schema for [{section}] {base} has unknown kind {kind!r}"
            )
    return table


def parse_config(text, schema, origin="<config>"):
    """Parse INI ``text`` against ``schema``.

    ``schema`` maps section name -> {base key -> :class:`Field`}. Returns
    {section: {base key: converted value}} with every schema key present
    (defaults filled in). Sections absent from the file are returned as
    pure defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"{origin}: [DEFAULT] section is not supported")

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"{origin}: unknown section [{section}]")

    out = {}
    for section, section_schema in schema.items():
        table = _key_table(section_schema, section, origin)
        values = {}
        seen_raw = {}
        if parser.has_section(section):
            for raw_key, raw_value in parser.items(section):
                if raw_key not in table:
                    raise ConfigError(f"{origin}: [{section}] unknown key {raw_key!r}")
                base, mode, factor = table[raw_key]
                if base in values:
                    raise ConfigError(
                        f"{origin}: [{section}] keys {seen_raw[base]!r} and "
                        f"{raw_key!r} both set {base!r}"
                    )
                where = f"{origin}: [{section}] {raw_key}"
                if mode == "float_list":
                    vals = _list(raw_value, where, float)
                    values[base] = (
                        tuple(_apply(factor, v) for v in vals) if factor is not None else vals
                    )
                elif mode == "int_list":
                    values[base] = _list(raw_value, where, int)
                elif factor is not None:
                    try:
                        values[base] = _apply(factor, _scalar("float", raw_value, where))
                    except OverflowError:
                        raise ConfigError(f"{where}: {raw_value.strip()!r} is out of range") from None
                else:
                    values[base] = _scalar(mode, raw_value, where)
                seen_raw[base] = raw_key
        for base, field in section_schema.items():
            values.setdefault(base, field.default)
        out[section] = values
    return out


def load_config(path, schema):
    """Parse the INI file at ``path`` against ``schema``."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from None
    return parse_config(text, schema, origin=str(path))
