"""Figure reproductions.

The paper has a single figure — Figure 1, the block diagram of the
trust-aware RMS.  :func:`reproduce_figure1` builds the *actual* component
graph from a live system (grid + agent fleet + scheduler wiring), verifies
the connections the diagram shows, and renders an ASCII block diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

from repro.grid.agents import AgentFleet
from repro.grid.topology import Grid

__all__ = ["Figure1", "reproduce_figure1"]


@dataclass
class Figure1:
    """The reconstructed Figure-1 component graph.

    Attributes:
        graph: directed graph of RMS components; edge ``u -> v`` means "u
            reads from / reports to v" as drawn in the paper.
        rendering: ASCII block diagram.
    """

    graph: "nx.DiGraph"
    rendering: str

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.rendering


def reproduce_figure1(grid: Grid | None = None) -> Figure1:
    """Build and verify the Figure-1 architecture from a live system.

    If ``grid`` is omitted, a small representative grid (2 CDs, 2 RDs) is
    constructed.  The graph contains: the Grid domains with their virtual
    CD/RD projections, one monitoring agent per domain, the shared trust
    level table, and the TRM scheduler — wired exactly as the block diagram
    shows (agents monitor transactions and read/update the table; the
    scheduler reads the table and allocates resources).

    Requires :mod:`networkx` (an optional dependency used only here).
    """
    import networkx as nx

    if grid is None:
        from repro.workloads.scenario import ScenarioSpec, materialize

        grid = materialize(
            ScenarioSpec(cd_range=(2, 2), rd_range=(2, 2)), seed=0
        ).grid

    fleet = AgentFleet.for_table(grid.trust_table)
    g = nx.DiGraph()
    g.add_node("trust-level-table", kind="table")
    g.add_node("trm-scheduler", kind="scheduler")
    g.add_edge("trm-scheduler", "trust-level-table", relation="reads")

    for cd in grid.client_domains:
        node = f"CD{cd.index}"
        agent = f"agent:{node}"
        g.add_node(node, kind="client-domain", grid_domain=cd.grid_domain.name)
        g.add_node(agent, kind="agent")
        g.add_edge(agent, node, relation="monitors")
        g.add_edge(agent, "trust-level-table", relation="updates")
        g.add_edge(node, "trm-scheduler", relation="submits-requests")
    for rd in grid.resource_domains:
        node = f"RD{rd.index}"
        agent = f"agent:{node}"
        g.add_node(node, kind="resource-domain", grid_domain=rd.grid_domain.name)
        g.add_node(agent, kind="agent")
        g.add_edge(agent, node, relation="monitors")
        g.add_edge(agent, "trust-level-table", relation="updates")
        g.add_edge("trm-scheduler", node, relation="allocates")

    # Sanity: every agent in the fleet corresponds to a domain node.
    assert len(fleet.cd_agents) == len(grid.client_domains)
    assert len(fleet.rd_agents) == len(grid.resource_domains)

    lines = [
        "Figure 1. Components of a Grid resource management trust model.",
        "",
        "  clients                               resources",
    ]
    cds = "  ".join(f"[CD{cd.index}]" for cd in grid.client_domains)
    rds = "  ".join(f"[RD{rd.index}]" for rd in grid.resource_domains)
    lines.append(f"  {cds:<30s}        {rds}")
    agents_c = "  ".join("(agent)" for _ in grid.client_domains)
    agents_r = "  ".join("(agent)" for _ in grid.resource_domains)
    lines.append(f"  {agents_c:<30s}        {agents_r}")
    lines.append("       \\            |            /")
    lines.append("        +----[ trust level table ]----+")
    lines.append("                     |")
    lines.append("             [ TRM scheduler ]")
    lines.append("          (requests in -> allocations out)")
    return Figure1(graph=g, rendering="\n".join(lines))

