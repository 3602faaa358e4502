"""Reproduce paper Table 5: tinySDR cost breakdown at 1000 units."""

from _report import format_table, publish

from repro.platforms.cost import (
    BILL_OF_MATERIALS,
    cost_by_group,
    cost_without,
    total_cost_usd,
)


def build_table5() -> list[list[str]]:
    rows = [[line.group, line.component, f"${line.unit_price_usd:.2f}"]
            for line in BILL_OF_MATERIALS]
    rows.append(["Total", "-", f"${total_cost_usd():.2f}"])
    return rows


def test_table5_cost_breakdown(benchmark):
    rows = benchmark(build_table5)
    publish("table5_cost", format_table(
        "Table 5: TinySDR Cost Breakdown for 1000 Units",
        ["Group", "Component", "Price"], rows))
    assert total_cost_usd() == 54.53
    groups = cost_by_group()
    # Production (fab + assembly) is the single largest group.
    assert groups["Production"] == max(groups.values())
    # Ablation the BOM model supports: dropping the external PAs and
    # switch (a TX<=14 dBm build) saves the RF group's $6.40.
    assert abs(total_cost_usd() - cost_without(("RF",)) - 6.40) < 1e-9
