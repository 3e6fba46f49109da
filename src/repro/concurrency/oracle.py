"""The shadow oracle every multi-op driver checks a table against.

Drivers apply each write's outcome in linearization order (commit order
for contention, flush order for serving, program order for the mixed
runner), check each read at its linearization point and diff the final
contents — the linearization-point check that guards what optimistic
version/fingerprint reads may return. Failures accumulate as messages;
callers decide whether one is fatal.
"""

from __future__ import annotations


def _hex(value: bytes | None) -> str | None:
    return value.hex() if value else None


class ShadowOracle:
    """A dict model of the table plus the failures it witnessed.

    ``failed_ops`` counts writes that legitimately failed (insert into
    a full table, update or delete of a dead key); ``lost_updates``
    counts live keys whose update or final value the table lost."""

    def __init__(self, contents) -> None:
        self.shadow: dict[bytes, bytes] = dict(contents)
        self.failed_ops = 0
        self.lost_updates = 0
        self.failures: list[str] = []

    def apply(self, kind: str, key: bytes, value: bytes | None, ok: bool) -> None:
        """Apply one "insert" / "update" / "delete" the table answered
        ``ok``, checking the table agreed with the model."""
        shadow = self.shadow
        live = key in shadow
        if kind == "insert":
            if ok:
                if live:
                    self.failures.append(f"insert of live key {key.hex()} succeeded")
                shadow[key] = value
            else:
                self.failed_ops += 1
        elif kind == "update":
            if live:
                if ok:
                    shadow[key] = value
                else:
                    self.lost_updates += 1
                    self.failures.append(f"update lost live key {key.hex()}")
            else:
                if ok:
                    self.failures.append(f"update of dead key {key.hex()} succeeded")
                self.failed_ops += 1
        elif kind == "delete":
            if ok != live:
                self.failures.append(
                    f"delete of key {key.hex()} disagrees with the shadow "
                    f"(deleted={ok}, live={live})"
                )
            if ok and live:
                del shadow[key]
            if not ok:
                self.failed_ops += 1
        else:
            raise ValueError(f"unknown write kind {kind!r}")

    def check_read(self, client: int, what: str, key: bytes, found) -> bool:
        """Check that a read (``what`` names its path) returned the
        model's value; False, with a failure recorded, when not."""
        expected = self.shadow.get(key)
        if found != expected:
            self.failures.append(
                f"client {client} {what} {key.hex()}: got {_hex(found)}, "
                f"shadow says {_hex(expected)}"
            )
        return found == expected

    def diff(self, items) -> None:
        """Final-state check: the table's ``items`` must equal the model;
        anything else is a lost update or a phantom."""
        final = dict(items)
        for key, value in self.shadow.items():
            got = final.get(key)
            if got != value:
                self.lost_updates += 1
                self.failures.append(
                    f"final state lost key {key.hex()}: expected "
                    f"{value.hex()}, found {_hex(got)}"
                )
        for key in final:
            if key not in self.shadow:
                self.failures.append(f"final state has phantom key {key.hex()}")
