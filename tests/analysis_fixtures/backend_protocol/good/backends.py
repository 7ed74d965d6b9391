"""Counter-fixture: exactly-spelled hook overrides and unrelated helpers."""


@register_backend("complete")
class CompleteBackend(Backend):
    def default_cluster(self, num_workers):
        return None

    def plan(self, model, graph, config):
        return None

    def execute(self, plan, metrics):
        return None

    def apply_delta(self, plan, delta):
        return plan

    def execute_incremental(self, plan, metrics, feature_dirty, topo_dirty):
        return None

    def release(self, plan):
        return None

    def describe(self):
        return "complete"

    def _apply_deltas(self, plan, deltas):
        return plan


class NotRegistered:
    def apply_deltas(self, plan, delta):
        return plan
