"""The tracker's end-marker test: substrings for literals, else the regex.

``SessionTracker`` searches every record's message for its end markers.
When every marker is a literal (no regex metacharacter), the search is
a plain loop of substring tests; any other configuration keeps the
compiled regex.  The hypothesis test holds the substring loop to the
regex search (``SessionTracker._marker``) on random literal markers —
spaces, ``-``, ``#``, ``&`` and ``~`` included, which ``re.escape``
escapes but which mean nothing in a flagless pattern — and random
messages, some holding a marker mid-text.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parsing.records import LogRecord
from repro.stream import SessionTracker, TrackerConfig
from repro.stream.tracker import DEFAULT_END_MARKERS

_TEXT = st.text(alphabet="abcAB -#&~_:/09é", max_size=12)


@settings(max_examples=400, deadline=None)
@given(
    markers=st.lists(_TEXT, min_size=1, max_size=4).map(tuple),
    messages=st.lists(
        st.tuples(_TEXT, st.integers(0, 3), _TEXT), min_size=1, max_size=8
    ),
    plain=st.lists(_TEXT, max_size=4),
)
def test_substring_loop_agrees_with_the_regex(markers, messages, plain):
    tracker = SessionTracker(TrackerConfig(end_markers=markers))
    assert tracker._is_end != tracker._marker.search
    candidates = list(plain) + [
        head + markers[i % len(markers)] + tail
        for head, i, tail in messages
    ]
    for message in candidates:
        assert bool(tracker._is_end(message)) == bool(
            tracker._marker.search(message)
        ), (markers, message)


def test_default_markers_are_literal():
    tracker = SessionTracker()
    assert tracker._is_end != tracker._marker.search
    assert tracker._is_end("INFO util.ShutdownHookManager: Deleting directory")
    assert not tracker._is_end("Deleting files")


def test_a_regex_marker_keeps_the_regex():
    config = TrackerConfig(end_markers=("Job end", r"shutdown.*complete"))
    tracker = SessionTracker(config)
    assert tracker._is_end == tracker._marker.search
    record = LogRecord(timestamp=1.0, level="INFO", source="X",
                       message="metrics shutdown is now complete",
                       session_id="c1")
    [closed] = tracker.observe(record)
    assert closed.reason == "end_marker"
    # The literal reading of the same marker would not close it.
    assert "shutdown.*complete" not in record.message


def test_no_markers_never_close():
    tracker = SessionTracker(TrackerConfig(end_markers=()))
    assert tracker._is_end is None
    record = LogRecord(timestamp=1.0, level="INFO", source="X",
                       message=DEFAULT_END_MARKERS[0], session_id="c1")
    assert tracker.observe(record) == []
