"""Pluggable prefetcher-control policies (see DESIGN.md §13).

The public surface: the :class:`Policy` protocol and its reference
implementations, the :class:`PolicyController` daemon adapter, feature
extraction, offline training, and head-to-head comparison studies.
The policy registry that :func:`policy_from_dict` dispatches on fills
as policy modules load; :func:`policy_from_dict` loads the built-in
kinds itself before it calls a kind unknown.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bandit": ("EpsilonGreedyBanditPolicy", "policy_rng", "policy_seed"),
    "base": (
        "DEFAULT_PREFETCHERS", "POLICY_SCHEMA_VERSION", "HysteresisPolicy",
        "Policy", "PolicyController", "SingleThresholdPolicy",
        "policy_digest", "policy_from_dict", "policy_from_spec",
        "register_policy",
    ),
    "compare": (
        "COMPARE_SCHEMA_VERSION", "PolicyComparison", "comparison_digest",
    ),
    "features": (
        "FEATURE_NAMES", "FEATURE_SCHEMA_VERSION", "FeatureExtractor",
        "feature_vector",
    ),
    "metrics": ("PolicyMetrics", "collect_policy_metrics"),
    "trainer": (
        "load_policy", "prefetcher_stats", "save_policy",
        "train_decision_tree_policy", "training_rows",
    ),
    "tree": (
        "DecisionTreePolicy", "predict_tree", "train_tree", "tree_depth",
        "tree_leaves",
    ),
})
