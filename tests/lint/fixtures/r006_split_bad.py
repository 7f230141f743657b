"""R006 fixture: split overrides the two-argument traversal call cannot bind."""

from repro.control.routing import TrafficSplitPolicy


class ViewSplit(TrafficSplitPolicy):
    def split(self, workers, demand_qps, view):
        return [0.0] * len(workers)


class KeywordSplit(TrafficSplitPolicy):
    def split(self, workers, demand_qps, *, view):
        return [0.0] * len(workers)


class OneArgumentSplit(TrafficSplitPolicy):
    def split(self, workers):
        return [0.0] * len(workers)
