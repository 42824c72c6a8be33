"""Clock and duration parsing tests."""

import pytest

from repro.common.timesource import (
    DAYS,
    HOURS,
    MINUTES,
    SECONDS,
    ManualClock,
    SystemClock,
    format_duration_ms,
    parse_duration_ms,
)


class TestManualClock:
    def test_starts_at_given_time(self):
        assert ManualClock(start_ms=42).now() == 42

    def test_advance_returns_new_time(self):
        clock = ManualClock()
        assert clock.advance(100) == 100
        assert clock.now() == 100

    def test_advance_accumulates(self):
        clock = ManualClock(10)
        clock.advance(5)
        clock.advance(5)
        assert clock.now() == 20

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            ManualClock(start_ms=-1)

    def test_negative_advance_rejected(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_set_jumps_forward(self):
        clock = ManualClock()
        clock.set(500)
        assert clock.now() == 500

    def test_set_backwards_rejected(self):
        clock = ManualClock(100)
        with pytest.raises(ValueError):
            clock.set(99)

    def test_now_seconds(self):
        assert ManualClock(1500).now_seconds() == 1.5


class TestSystemClock:
    def test_monotone_nonnegative(self):
        clock = SystemClock()
        first = clock.now()
        second = clock.now()
        assert first > 0
        assert second >= first


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5 minutes", 5 * MINUTES),
            ("1 minute", 1 * MINUTES),
            ("30s", 30 * SECONDS),
            ("30 seconds", 30 * SECONDS),
            ("1 hour", 1 * HOURS),
            ("2h", 2 * HOURS),
            ("7 days", 7 * DAYS),
            ("1 week", 7 * DAYS),
            ("250ms", 250),
            ("1.5 seconds", 1500),
            ("0.5h", 30 * MINUTES),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_duration_ms(text) == expected

    def test_case_insensitive(self):
        assert parse_duration_ms("5 MINUTES") == 5 * MINUTES

    @pytest.mark.parametrize("bad", ["", "minutes", "5 parsecs", "5", "-3s", "0s"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_duration_ms(bad)


class TestFormatDuration:
    @pytest.mark.parametrize(
        "ms,expected",
        [
            (5 * MINUTES, "5m"),
            (90 * SECONDS, "90s"),
            (1 * HOURS, "1h"),
            (3 * DAYS, "3d"),
            (1234, "1234ms"),
        ],
    )
    def test_formats(self, ms, expected):
        assert format_duration_ms(ms) == expected

    def test_roundtrip_through_parse(self):
        for ms in (250, 30 * SECONDS, 5 * MINUTES, 2 * HOURS, 7 * DAYS):
            assert parse_duration_ms(format_duration_ms(ms)) == ms
