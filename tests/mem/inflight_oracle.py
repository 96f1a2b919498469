"""Reference premature-access checks: the chain walk (test oracles).

``SpecMemory`` finds the writer that makes an access premature in its
in-flight index. This is the definition the index must match: the first
writer in the line's chain that is earlier than the accessor and, by its
own ``still_executing()``, has not finished yet.
"""

from repro.errors import SimulationError
from repro.mem import SpecMemory


class ChainWalkMemory(SpecMemory):
    """``SpecMemory`` with the premature-access check done by chain walk."""

    def _abort_if_earlier_writer_running(self, owner, line, key):
        for w in self._line_writers.get(line) or ():
            if w is not owner and w.order_key < key and w.still_executing():
                finish = (getattr(w, "dispatch_time", 0)
                          + getattr(w, "duration", 0))
                owner.retry_after = max(getattr(owner, "retry_after", 0),
                                        finish)
                self.n_true_conflicts += 1
                if self.bus:
                    self._emit_conflict("premature-access", w, [owner], line)
                self._abort([owner], "access during earlier writer")
                return


class CheckedMemory(SpecMemory):
    """``SpecMemory`` that checks its in-flight index against the chain
    walk at every premature-access check and raises on a mismatch: the
    line's in-flight writers must be exactly the chain's executing ones,
    in chain order."""

    def _abort_if_earlier_writer_running(self, owner, line, key):
        oracle = [w for w in self._line_writers.get(line) or ()
                  if w.still_executing()]
        running = self._line_in_flight.get(line) or []
        if oracle != running:
            raise SimulationError(
                f"in-flight index of line {line} is {running} but the "
                f"chain's executing writers are {oracle} "
                f"(access by {owner!r})")
        super()._abort_if_earlier_writer_running(owner, line, key)
