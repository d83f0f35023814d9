"""Tests for the Figure-1 reproduction."""

import networkx as nx

from repro.experiments.figures import reproduce_figure1
from repro.workloads.scenario import ScenarioSpec, materialize


class TestFigure1:
    def test_component_graph_wiring(self):
        fig = reproduce_figure1()
        g = fig.graph
        assert "trust-level-table" in g
        assert "trm-scheduler" in g
        # The scheduler reads the table.
        assert g.has_edge("trm-scheduler", "trust-level-table")

    def test_every_domain_has_an_agent_updating_the_table(self):
        grid = materialize(ScenarioSpec(cd_range=(3, 3), rd_range=(2, 2)), seed=1).grid
        g = reproduce_figure1(grid).graph
        for i in range(3):
            assert g.has_edge(f"agent:CD{i}", "trust-level-table")
            assert g.has_edge(f"agent:CD{i}", f"CD{i}")
        for j in range(2):
            assert g.has_edge(f"agent:RD{j}", "trust-level-table")

    def test_clients_submit_and_scheduler_allocates(self):
        fig = reproduce_figure1()
        g = fig.graph
        cd_edges = [e for e in g.edges(data=True) if e[2].get("relation") == "submits-requests"]
        rd_edges = [e for e in g.edges(data=True) if e[2].get("relation") == "allocates"]
        assert cd_edges and rd_edges
        assert all(e[1] == "trm-scheduler" for e in cd_edges)
        assert all(e[0] == "trm-scheduler" for e in rd_edges)

    def test_rendering_mentions_components(self):
        text = reproduce_figure1().rendering
        assert "trust level table" in text
        assert "TRM scheduler" in text
        assert text.startswith("Figure 1.")

    def test_graph_is_dag(self):
        assert nx.is_directed_acyclic_graph(reproduce_figure1().graph)

