"""Fixture: registered backends whose hook overrides are near-miss names.

The silent-degradation bug: a method that *almost* overrides a ``Backend``
hook overrides nothing, and the base-class full-recompute default runs.
"""


@register_backend("broken")
class BrokenBackend(Backend):
    def default_cluster(self, num_workers):
        return None

    def plan(self, model, graph, config):
        return None

    def execute(self, plan, metrics):
        return None

    def apply_deltas(self, plan, delta):
        return plan

    def execute_incremenal(self, plan, metrics, feature_dirty, topo_dirty):
        return None

    def relase(self, plan):
        return None
