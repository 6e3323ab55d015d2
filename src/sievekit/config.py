"""The checks every config decode shares: ``strict_int`` and
``require_keys`` on JSON values, and ``admit``, the one size check.  It
imports no other layer."""

# the most elements a window may hold, and the most objects a csp or
# bijection job may predict, before ``admit`` refuses it
MAX_OBJECTS = 400_000


def admit(count: int, what: str) -> None:
    """Refuse a job whose ``count`` of ``what`` (window elements, objects,
    round trips), known before any is built, passes MAX_OBJECTS."""
    if count > MAX_OBJECTS:
        raise ValueError(f"{count} {what}, above the cap of {MAX_OBJECTS}")


def strict_int(value, what: str) -> int:
    """The value itself if it is a true int; floats, strings and bools raise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def require_keys(cfg, allowed: set[str], required: set[str], where: str) -> None:
    """Refuse a config that is not an object, has a key outside ``allowed``
    or lacks one of ``required``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where}: expected an object, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")
