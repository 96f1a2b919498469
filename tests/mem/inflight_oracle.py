"""Reference premature-access check: the chain walk (test oracle).

``SpecMemory`` finds the writer that makes an access premature in its
in-flight index. This is the definition the index must match: the first
writer in the line's chain that is earlier than the accessor and, by its
own ``still_executing()``, has not finished yet.
"""

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
