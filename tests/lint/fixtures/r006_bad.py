"""R006 fixture: an allocate(now_s) override, which would receive a ControlContext."""

from repro.control.policies import AllocationPolicy


class StaleAllocationPolicy(AllocationPolicy):
    def allocate(self, now_s):
        return None
