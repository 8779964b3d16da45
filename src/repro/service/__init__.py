"""The request-lifecycle service layer (DESIGN.md §12).

One typed request/response pair, one straight-line lifecycle (admit →
set up → classify → execute → record → flush → feed admission), one
front door: :class:`ReproService`.
"""

from repro.service.lifecycle import AnswerResponse, BatchResult
from repro.service.service import ReproService

__all__ = ["AnswerResponse", "BatchResult", "ReproService"]
