"""Window specification semantics."""

import pytest

from repro.common.timesource import MINUTES, SECONDS
from repro.windows import WindowKind, WindowSpec


class TestValidation:
    def test_sliding_needs_size(self):
        with pytest.raises(ValueError):
            WindowSpec(WindowKind.SLIDING, None)

    def test_infinite_takes_no_size(self):
        with pytest.raises(ValueError):
            WindowSpec(WindowKind.INFINITE, 1000)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(WindowKind.SLIDING, 1000, delay_ms=-1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(WindowKind.TUMBLING, 0)


class TestSlidingBoundaries:
    def test_contains_arriving_event(self):
        spec = WindowSpec(WindowKind.SLIDING, 5 * MINUTES)
        assert spec.contains(event_ts=1000, eval_ts=1000)

    def test_figure1_semantics(self):
        # e1 at minute 0.5, e5 at minute 5.48 -> within 5 minutes: included.
        spec = WindowSpec(WindowKind.SLIDING, 5 * MINUTES)
        e1, e5 = 30 * SECONDS, 329 * SECONDS
        assert e5 - e1 < 5 * MINUTES
        assert spec.contains(e1, eval_ts=e5)

    def test_exact_boundary_excluded(self):
        spec = WindowSpec(WindowKind.SLIDING, 1000)
        assert not spec.contains(event_ts=0, eval_ts=1000)
        assert spec.contains(event_ts=1, eval_ts=1000)

    def test_limits(self):
        spec = WindowSpec(WindowKind.SLIDING, 1000)
        assert spec.head_limit(5000) == 5000
        assert spec.tail_limit(5000) == 4000


class TestDelayedWindows:
    def test_delay_shifts_both_bounds(self):
        spec = WindowSpec(WindowKind.SLIDING, 1000, delay_ms=500)
        assert spec.head_limit(5000) == 4500
        assert spec.tail_limit(5000) == 3500
        assert spec.contains(4000, eval_ts=5000)
        assert not spec.contains(4800, eval_ts=5000)  # too new: still delayed

    def test_delayed_infinite(self):
        spec = WindowSpec(WindowKind.INFINITE, None, delay_ms=1000)
        assert spec.head_limit(5000) == 4000
        assert spec.tail_limit(5000) is None
        assert spec.contains(0, eval_ts=5000)
        assert not spec.contains(4500, eval_ts=5000)


class TestTumblingBoundaries:
    def test_bucket_contents(self):
        spec = WindowSpec(WindowKind.TUMBLING, 1000)
        # Evaluation at 2500: bucket [2000, 2500].
        assert spec.contains(2000, eval_ts=2500)
        assert spec.contains(2500, eval_ts=2500)
        assert not spec.contains(1999, eval_ts=2500)

    def test_tail_limit_is_bucket_start_minus_one(self):
        spec = WindowSpec(WindowKind.TUMBLING, 1000)
        assert spec.tail_limit(2500) == 1999
        assert spec.tail_limit(2000) == 1999
        assert spec.tail_limit(2999) == 1999
        assert spec.tail_limit(3000) == 2999


class TestInfinite:
    def test_never_expires(self):
        spec = WindowSpec(WindowKind.INFINITE)
        assert spec.tail_limit(10**15) is None
        assert spec.contains(0, eval_ts=10**15)
        assert spec.tail_share_key() is None


class TestSharing:
    def test_heads_share_by_delay_across_sizes(self):
        one_min = WindowSpec(WindowKind.SLIDING, 1 * MINUTES)
        five_min = WindowSpec(WindowKind.SLIDING, 5 * MINUTES)
        assert one_min.head_share_key() == five_min.head_share_key()

    def test_heads_differ_by_delay(self):
        plain = WindowSpec(WindowKind.SLIDING, 1000)
        delayed = WindowSpec(WindowKind.SLIDING, 1000, delay_ms=1)
        assert plain.head_share_key() != delayed.head_share_key()

    def test_tails_share_only_exact_spec(self):
        a = WindowSpec(WindowKind.SLIDING, 1000)
        b = WindowSpec(WindowKind.SLIDING, 1000)
        c = WindowSpec(WindowKind.SLIDING, 2000)
        d = WindowSpec(WindowKind.TUMBLING, 1000)
        assert a.tail_share_key() == b.tail_share_key()
        assert a.tail_share_key() != c.tail_share_key()
        assert a.tail_share_key() != d.tail_share_key()

    def test_aligned_sliding_and_tumbling_share_head(self):
        sliding = WindowSpec(WindowKind.SLIDING, 1000)
        tumbling = WindowSpec(WindowKind.TUMBLING, 2000)
        assert sliding.head_share_key() == tumbling.head_share_key()


class TestDescribe:
    @pytest.mark.parametrize(
        "spec,text",
        [
            (WindowSpec(WindowKind.SLIDING, 5 * MINUTES), "sliding 5m"),
            (WindowSpec(WindowKind.TUMBLING, 1000), "tumbling 1s"),
            (WindowSpec(WindowKind.INFINITE), "infinite"),
            (
                WindowSpec(WindowKind.SLIDING, 1000, delay_ms=30 * SECONDS),
                "sliding 1s delayed by 30s",
            ),
        ],
    )
    def test_describe(self, spec, text):
        assert spec.describe() == text
