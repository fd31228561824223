"""Operator tools: journal timelines, ASCII charts, CSV export.

Public surface:

- :func:`render_journal`, :func:`journal_summary`,
  :func:`journal_html` — the dependability-journal observatory
- :func:`profile_to_csv`, :func:`policy_to_csv`,
  :func:`scores_to_csv` — data export for external plotting
- :func:`render_series` — an ASCII bar chart of a time series
"""

from repro.tools.export import (
    policy_to_csv,
    profile_to_csv,
    render_series,
    scores_to_csv,
)
from repro.tools.observatory import (
    JOURNAL_TAGS,
    journal_html,
    journal_summary,
    render_journal,
)

__all__ = [
    "JOURNAL_TAGS",
    "journal_html",
    "journal_summary",
    "policy_to_csv",
    "profile_to_csv",
    "render_journal",
    "render_series",
    "scores_to_csv",
]
