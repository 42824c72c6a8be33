"""Query language (Figure 4 grammar) parser tests."""

import pytest

from repro.common.errors import QueryError
from repro.common.timesource import DAYS, HOURS, MINUTES, SECONDS
from repro.query import parse_query
from repro.windows import WindowKind


class TestSelectClause:
    def test_single_aggregation(self):
        query = parse_query("SELECT sum(amount) FROM s OVER infinite")
        assert query.metric_names() == ["sum(amount)"]
        assert query.aggregations[0].field == "amount"

    def test_multiple_aggregations(self):
        query = parse_query(
            "SELECT sum(a), count(*), avg(b) FROM s OVER sliding 1 minute"
        )
        assert query.metric_names() == ["sum(a)", "count(*)", "avg(b)"]

    def test_count_star(self):
        query = parse_query("SELECT count(*) FROM s OVER infinite")
        assert query.aggregations[0].field is None

    def test_star_only_for_count(self):
        with pytest.raises(QueryError):
            parse_query("SELECT sum(*) FROM s OVER infinite")

    @pytest.mark.parametrize(
        "name",
        ["count", "sum", "avg", "stdDev", "max", "min", "last", "prev", "countDistinct"],
    )
    def test_all_figure4_aggregations(self, name):
        query = parse_query(f"SELECT {name}(f) FROM s OVER infinite")
        assert query.aggregations[0].name == name

    def test_aggregation_names_case_insensitive(self):
        query = parse_query("SELECT COUNTDISTINCT(f) FROM s OVER infinite")
        assert query.aggregations[0].name == "countDistinct"

    def test_unknown_aggregation(self):
        with pytest.raises(QueryError, match="unknown aggregation"):
            parse_query("SELECT median(f) FROM s OVER infinite")


class TestWhereClause:
    def test_filter_parsed(self):
        query = parse_query(
            "SELECT count(*) FROM s WHERE amount > 10 && flag OVER infinite"
        )
        assert query.where is not None
        assert query.where.referenced_fields() == {"amount", "flag"}

    def test_no_filter_is_none(self):
        assert parse_query("SELECT count(*) FROM s OVER infinite").where is None

    def test_filter_with_parens_and_strings(self):
        query = parse_query(
            "SELECT count(*) FROM s WHERE (channel == 'ecom' || channel == 'pos') "
            "GROUP BY cardId OVER sliding 5 minutes"
        )
        assert query.where is not None
        assert query.group_by == ("cardId",)


class TestGroupBy:
    def test_single_field(self):
        query = parse_query("SELECT count(*) FROM s GROUP BY cardId OVER infinite")
        assert query.group_by == ("cardId",)

    def test_multiple_fields(self):
        query = parse_query(
            "SELECT count(*) FROM s GROUP BY cardId, merchantId OVER infinite"
        )
        assert query.group_by == ("cardId", "merchantId")

    def test_missing_by_keyword(self):
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s GROUP cardId OVER infinite")


class TestWindowClause:
    @pytest.mark.parametrize(
        "text,kind,size",
        [
            ("sliding 5 minutes", WindowKind.SLIDING, 5 * MINUTES),
            ("sliding 30 seconds", WindowKind.SLIDING, 30 * SECONDS),
            ("tumbling 1 hour", WindowKind.TUMBLING, 1 * HOURS),
            ("sliding 7 days", WindowKind.SLIDING, 7 * DAYS),
        ],
    )
    def test_window_kinds(self, text, kind, size):
        query = parse_query(f"SELECT count(*) FROM s OVER {text}")
        assert query.window.kind is kind
        assert query.window.size_ms == size

    def test_infinite(self):
        query = parse_query("SELECT count(*) FROM s OVER infinite")
        assert query.window.kind is WindowKind.INFINITE
        assert query.window.size_ms is None

    def test_delayed(self):
        query = parse_query(
            "SELECT count(*) FROM s OVER sliding 5 minutes delayed by 30 seconds"
        )
        assert query.window.delay_ms == 30 * SECONDS

    def test_delayed_infinite(self):
        query = parse_query("SELECT count(*) FROM s OVER infinite delayed by 1 minute")
        assert query.window.kind is WindowKind.INFINITE
        assert query.window.delay_ms == 1 * MINUTES

    def test_hopping_not_supported(self):
        # Railgun deliberately has no hopping windows (§3.4).
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s OVER hopping 5 minutes")

    def test_missing_window_size(self):
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s OVER sliding")

    def test_bad_duration_unit(self):
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s OVER sliding 5 parsecs")


class TestClauseOrder:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT count(*) OVER infinite FROM s",
            "SELECT count(*) FROM s GROUP BY a WHERE x > 1 OVER infinite",
            "SELECT count(*) FROM s OVER infinite GROUP BY a",
            "FROM s SELECT count(*) OVER infinite",
        ],
    )
    def test_strict_order_enforced(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s OVER infinite LIMIT 5")

    def test_missing_over_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT count(*) FROM s")


class TestKeywordsCaseInsensitive:
    def test_lowercase_statement(self):
        query = parse_query(
            "select sum(a) from s where a > 1 group by k over sliding 1 minute"
        )
        assert query.stream == "s"
        assert query.group_by == ("k",)


class TestDescribe:
    def test_describe_roundtrips_structure(self):
        text = (
            "SELECT sum(amount), count(*) FROM payments WHERE amount > 0 "
            "GROUP BY cardId OVER sliding 5 minutes"
        )
        description = parse_query(text).describe()
        assert "sum(amount)" in description
        assert "GROUP BY cardId" in description
        assert "sliding 5m" in description

    def test_raw_text_preserved(self):
        text = "SELECT count(*) FROM s OVER infinite"
        assert parse_query(text).raw_text == text
