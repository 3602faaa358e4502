"""A small synchronous-dataflow framework in the GNU Radio style.

The paper's conclusion lists easier prototyping as future work: "Future
versions can incorporate a pipeline to use high level synthesis tools or
integrate with GNUradio".  This module provides that programming model
over the repro DSP components: blocks with typed ports, a flow graph
that connects them, and a scheduler that streams sample chunks from
sources to sinks until the sources drain.

The execution model is deliberately simple (single-threaded, topological
chunk passing) - it exists so PHY pipelines can be composed and tested
declaratively, not to chase throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class Block:
    """Base class for flowgraph blocks.

    Subclasses declare ``num_inputs``/``num_outputs`` and implement
    :meth:`work`.  Sources (no inputs) return ``None`` from work when
    exhausted.
    """

    num_inputs = 1
    num_outputs = 1

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__

    def work(self, inputs: list[np.ndarray]) -> list[np.ndarray] | None:
        """Process one chunk per input; return one chunk per output.

        Sources return ``None`` to signal exhaustion.  Blocks may return
        empty arrays when they need more input before producing.
        """
        raise NotImplementedError

    def start(self) -> None:
        """Hook called once before streaming begins."""

    def finish(self) -> list[np.ndarray] | None:
        """Hook called once after sources drain; may flush tail output."""
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class Connection:
    """One directed edge between block ports."""

    source: Block
    source_port: int
    destination: Block
    destination_port: int


@dataclass
class _Edge:
    connection: Connection
    buffer: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.complex128))


class FlowGraph:
    """A directed acyclic graph of blocks plus its scheduler."""

    def __init__(self) -> None:
        self._blocks: list[Block] = []
        self._edges: list[_Edge] = []

    def add(self, block: Block) -> Block:
        """Register a block (connect() does this implicitly)."""
        if block not in self._blocks:
            self._blocks.append(block)
        return block

    def connect(self, source: Block, destination: Block,
                source_port: int = 0, destination_port: int = 0) -> None:
        """Wire ``source[source_port] -> destination[destination_port]``.

        Raises:
            ConfigurationError: for invalid ports, duplicate input
                connections, or self-loops.
        """
        if source is destination:
            raise ConfigurationError("self-loops are not supported")
        if not 0 <= source_port < source.num_outputs:
            raise ConfigurationError(
                f"{source} has no output port {source_port}")
        if not 0 <= destination_port < destination.num_inputs:
            raise ConfigurationError(
                f"{destination} has no input port {destination_port}")
        for edge in self._edges:
            c = edge.connection
            if (c.destination is destination
                    and c.destination_port == destination_port):
                raise ConfigurationError(
                    f"input {destination_port} of {destination} is already "
                    "connected")
        self.add(source)
        self.add(destination)
        self._edges.append(_Edge(Connection(
            source, source_port, destination, destination_port)))

    # -- scheduling --------------------------------------------------------

    def _validate(self) -> list[Block]:
        """Check port completeness and return a topological order.

        Raises:
            ConfigurationError: for unconnected inputs or cycles.
        """
        for block in self._blocks:
            connected = {e.connection.destination_port
                         for e in self._edges
                         if e.connection.destination is block}
            if len(connected) != block.num_inputs:
                missing = set(range(block.num_inputs)) - connected
                raise ConfigurationError(
                    f"{block} has unconnected inputs {sorted(missing)}")
        # Kahn's algorithm.
        order: list[Block] = []
        in_degree = {id(b): 0 for b in self._blocks}
        for edge in self._edges:
            in_degree[id(edge.connection.destination)] += 1
        ready = [b for b in self._blocks if in_degree[id(b)] == 0]
        while ready:
            block = ready.pop()
            order.append(block)
            for edge in self._edges:
                if edge.connection.source is block:
                    key = id(edge.connection.destination)
                    in_degree[key] -= 1
                    if in_degree[key] == 0:
                        ready.append(edge.connection.destination)
        if len(order) != len(self._blocks):
            raise ConfigurationError("flow graph contains a cycle")
        return order

    def _adjacency(self) -> tuple[dict[int, list[_Edge]],
                                  dict[int, list[_Edge]]]:
        """Per-block input/output edge lists, from one scan of the edges.

        The scheduler's inner loop runs once per block per iteration;
        rescanning every edge there made ``run()``
        O(iterations x blocks x edges).  Input lists come back sorted by
        destination port, matching the ``work()`` input convention.
        """
        inputs: dict[int, list[_Edge]] = {id(b): [] for b in self._blocks}
        outputs: dict[int, list[_Edge]] = {id(b): [] for b in self._blocks}
        for edge in self._edges:
            outputs[id(edge.connection.source)].append(edge)
            inputs[id(edge.connection.destination)].append(edge)
        for edges in inputs.values():
            edges.sort(key=lambda e: e.connection.destination_port)
        return inputs, outputs

    @staticmethod
    def _deliver(out_edges: list[_Edge],
                 outputs: list[np.ndarray]) -> None:
        for edge in out_edges:
            chunk = outputs[edge.connection.source_port]
            if chunk.size:
                edge.buffer = np.concatenate([edge.buffer, chunk])

    def run(self, max_iterations: int = 100_000) -> None:
        """Stream until every source is exhausted and buffers drain.

        Raises:
            ConfigurationError: on invalid graphs or iteration overrun
                (a block that never consumes its input).
        """
        order = self._validate()
        in_edges, out_edges = self._adjacency()
        for block in order:
            block.start()
        sources = [b for b in order if b.num_inputs == 0]
        exhausted: set[int] = set()
        for _ in range(max_iterations):
            progress = False
            for block in order:
                if block.num_inputs == 0:
                    if id(block) in exhausted:
                        continue
                    outputs = block.work([])
                    if outputs is None:
                        exhausted.add(id(block))
                        continue
                    self._deliver(out_edges[id(block)], outputs)
                    progress = True
                    continue
                edges = in_edges[id(block)]
                # Single-input blocks wait for data; multi-input blocks
                # run when anything arrives (they buffer internally), so
                # an early-draining source cannot starve them.
                if block.num_inputs == 1:
                    if edges[0].buffer.size == 0:
                        continue
                elif all(edge.buffer.size == 0 for edge in edges):
                    continue
                inputs = [edge.buffer for edge in edges]
                for edge in edges:
                    edge.buffer = np.zeros(0, dtype=np.complex128)
                outputs = block.work(inputs)
                if outputs is not None:
                    self._deliver(out_edges[id(block)], outputs)
                progress = True
            if not progress:
                if len(exhausted) == len(sources):
                    break
        else:
            raise ConfigurationError(
                f"flow graph did not settle in {max_iterations} iterations")
        # Blocks finish in topological order, each after consuming the
        # tails its upstream blocks flushed, so finish() sees the whole
        # input (a sink that flushes there misses nothing).
        for block in order:
            edges = in_edges[id(block)]
            if any(edge.buffer.size for edge in edges):
                inputs = [edge.buffer for edge in edges]
                for edge in edges:
                    edge.buffer = np.zeros(0, dtype=np.complex128)
                outputs = block.work(inputs)
                if outputs is not None:
                    self._deliver(out_edges[id(block)], outputs)
            tail = block.finish()
            if tail is not None:
                self._deliver(out_edges[id(block)], tail)
