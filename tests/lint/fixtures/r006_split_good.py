"""R006 fixture: split overrides that bind split(workers, demand_qps)."""

from repro.control.routing import TrafficSplitPolicy


class TwoArgumentSplit(TrafficSplitPolicy):
    def split(self, workers, demand_qps):
        return [0.0] * len(workers)


class OptionalExtraSplit(TrafficSplitPolicy):
    def split(self, workers, demand_qps, floor=0.0, *, cap=None):
        return [floor] * len(workers)


class VariadicSplit(TrafficSplitPolicy):
    def split(self, *args):
        return [0.0] * len(args[0])
