"""GNU Radio-style flowgraph framework over the repro components.

:mod:`~repro.flowgraph.graph` holds the block base class and the
scheduler; :mod:`~repro.flowgraph.blocks` the blocks that run on it.
"""
