"""Discrete-state active inference agents that share beliefs over a wire protocol.

Layout:
    core          probability primitives and the generative model container
    inference     perception, Dirichlet learning, model evidence by enumeration
    planning      expected free energy and depth-limited recursive planning
    factor_graph  tree factor graphs and exact sum-product message passing
    net           belief messages: codec, evidence fusion, transports
    envs          T-maze and elephant-room environments plus matching models
    harness       seeded experiment loops, synchrony metrics, CSV logging
    cli           command-line entry point
"""

__version__ = "0.1.0"
