"""The Figure 1 fraud rule: why hopping windows are not enough.

Business rule (§2.1): "if the number of transactions of a card in the
last 5 minutes is higher than 4, then block the transaction". A
fraudster spreads 5 transactions across almost 5 minutes, phased to
straddle hop boundaries. Railgun's real-time sliding window fires on the
5th event; a hopping window (any hop) has no pane containing all five.

Run with::

    python examples/fraud_rules.py
"""

from repro.baselines.hopping import HoppingWindowEngine
from repro.common.timesource import MINUTES, SECONDS
from repro.engine import RailgunCluster

WINDOW = 5 * MINUTES


def main() -> None:
    cluster = RailgunCluster(nodes=1, processor_units=1)
    cluster.create_stream(
        "payments",
        partitioners=["cardId"],
        partitions=2,
        schema=[("cardId", "string"), ("amount", "float")],
    )
    rule_metric = cluster.create_metric(
        "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
    )

    hopping = HoppingWindowEngine(WINDOW, 1 * MINUTES)

    # The Figure 1 timeline: e1..e5 inside one 5-minute span, crossing
    # hop boundaries (timestamps in seconds 30, 90, 150, 210, 329).
    attack = [30, 90, 150, 210, 329]
    base = 10 * MINUTES  # start mid-stream, away from t=0 alignment

    print("the attack: 5 card-X transactions within 299 seconds\n")
    blocked_by_railgun = False
    blocked_by_hopping = False
    for index, offset_s in enumerate(attack, start=1):
        timestamp = base + offset_s * SECONDS
        reply = cluster.send(
            "payments", {"cardId": "card-X", "amount": 99.0}, timestamp=timestamp
        )
        sliding_count = reply.value(rule_metric, "count(*)")
        hopping.on_event("card-X", timestamp, 99.0)
        hopping_count = hopping.max_live_count("card-X")
        sliding_fires = sliding_count > 4
        hopping_fires = hopping_count > 4
        blocked_by_railgun |= sliding_fires
        blocked_by_hopping |= hopping_fires
        print(
            f"  e{index} at t={offset_s:>3}s: sliding count={sliding_count} "
            f"{'BLOCK' if sliding_fires else 'allow'} | "
            f"hopping best pane={hopping_count} "
            f"{'BLOCK' if hopping_fires else 'allow'}"
        )

    print()
    print(f"railgun (real-time sliding window) blocked the attack: {blocked_by_railgun}")
    print(f"hopping window (1-min hop) blocked the attack:        {blocked_by_hopping}")
    print(
        "\nno single hopping pane ever contains all 5 events — the window"
        "\nboundaries are quantized to the hop grid (Figure 1's h1..h6)."
    )


if __name__ == "__main__":
    main()
