"""Language-community crawler for rate-limited social graphs.

Core pieces: a typed record model, an append-friendly JSON Lines store, a
budget-aware scheduler with delta-guided timeline walks, a threshold
classifier for language communities, graph extraction, per-user feature
vectors, and a deterministic simulated network to run it all against.
"""

from .apiface import Budget, Endpoint, Granted, RateLimiter, RetryAfter
from .model import Tweet, UserClass, UserSnapshot, validate_tweet
from .store import Store
from .vectorize import FEATURE_FIELDS, Vectorizer

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "Endpoint",
    "FEATURE_FIELDS",
    "Granted",
    "RateLimiter",
    "RetryAfter",
    "Store",
    "Tweet",
    "UserClass",
    "UserSnapshot",
    "Vectorizer",
    "validate_tweet",
    "__version__",
]
