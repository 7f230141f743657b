"""R006 fixture: an allocate override with the one (ctx) signature."""

from repro.control.policies import AllocationPolicy


class FreshAllocationPolicy(AllocationPolicy):
    def allocate(self, ctx):
        return None
