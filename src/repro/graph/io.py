"""Graph serialisation: save/load graphs and warehouse tables as ``.npz`` files.

The paper's pipeline reads node/edge tables from a data warehouse; this module
provides the file-based equivalent so trained-model signatures and graphs can
be shipped between the training and inference steps (and so experiments can
cache generated graphs).
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.tables import EdgeTable, NodeTable, graph_to_tables, tables_to_graph


def save_graph(graph: Graph, path: str) -> None:
    """Save a graph to a single ``.npz`` file (features/labels included)."""
    payload = {
        "src": graph.src,
        "dst": graph.dst,
        "num_nodes": np.asarray([graph.num_nodes], dtype=np.int64),
    }
    if graph.node_features is not None:
        payload["node_features"] = graph.node_features
    if graph.edge_features is not None:
        payload["edge_features"] = graph.edge_features
    if graph.labels is not None:
        payload["labels"] = graph.labels
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savez_compressed(path, **payload)


def load_graph(path: str) -> Graph:
    """Load a graph previously written by :func:`save_graph`."""
    archive = np.load(path if path.endswith(".npz") else path + ".npz")
    return Graph(
        src=archive["src"],
        dst=archive["dst"],
        node_features=archive["node_features"] if "node_features" in archive else None,
        edge_features=archive["edge_features"] if "edge_features" in archive else None,
        labels=archive["labels"] if "labels" in archive else None,
        num_nodes=int(archive["num_nodes"][0]),
    )


def save_tables(node_table: NodeTable, edge_table: EdgeTable, directory: str) -> None:
    """Save warehouse tables (node table + edge table) under a directory."""
    os.makedirs(directory, exist_ok=True)
    # Adjacency lists are ragged: store them flattened with an index pointer.
    lengths = np.asarray([len(nbrs) for nbrs in node_table.out_neighbors], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    flat_neighbors = (np.concatenate(node_table.out_neighbors)
                      if lengths.sum() else np.empty(0, dtype=np.int64))
    node_payload = {
        "node_ids": node_table.node_ids,
        "indptr": indptr,
        "flat_neighbors": flat_neighbors,
    }
    if node_table.features is not None:
        node_payload["features"] = node_table.features
    if node_table.labels is not None:
        node_payload["labels"] = node_table.labels
    np.savez_compressed(os.path.join(directory, "node_table.npz"), **node_payload)

    edge_payload = {"src": edge_table.src, "dst": edge_table.dst}
    if edge_table.features is not None:
        edge_payload["features"] = edge_table.features
    np.savez_compressed(os.path.join(directory, "edge_table.npz"), **edge_payload)


def load_tables(directory: str) -> Tuple[NodeTable, EdgeTable]:
    """Load warehouse tables previously written by :func:`save_tables`."""
    node_archive = np.load(os.path.join(directory, "node_table.npz"))
    indptr = node_archive["indptr"]
    flat = node_archive["flat_neighbors"]
    out_neighbors = [flat[indptr[i]:indptr[i + 1]] for i in range(len(indptr) - 1)]
    node_table = NodeTable(
        node_ids=node_archive["node_ids"],
        features=node_archive["features"] if "features" in node_archive else None,
        out_neighbors=out_neighbors,
        labels=node_archive["labels"] if "labels" in node_archive else None,
    )
    edge_archive = np.load(os.path.join(directory, "edge_table.npz"))
    edge_table = EdgeTable(
        src=edge_archive["src"],
        dst=edge_archive["dst"],
        features=edge_archive["features"] if "features" in edge_archive else None,
    )
    return node_table, edge_table


def export_graph_as_tables(graph: Graph, directory: str) -> None:
    """Convenience: convert a graph to tables and save both under ``directory``."""
    node_table, edge_table = graph_to_tables(graph)
    save_tables(node_table, edge_table, directory)


def import_graph_from_tables(directory: str) -> Graph:
    """Convenience: load tables from ``directory`` and rebuild the graph."""
    node_table, edge_table = load_tables(directory)
    return tables_to_graph(node_table, edge_table)
