"""Graphviz DOT emission for the stride-space trellis.

Nodes are the 36 reachable cumulative-downsampling states (alpha, beta);
edges are the three downsampling moves. Staying put (stride (1,1)) is a
self-loop and is only drawn when a highlighted path uses it. The two golden
endpoints are drawn with a double ring and a gold fill.
"""

from __future__ import annotations

from .catalog import GOLDEN_GEMINI_FACTORS
from .strides import (
    NUM_STAGES,
    TrellisPath,
    downsampling_factors,
    enumerate_endpoints,
)

__all__ = ["trellis_dot"]

_PALETTE = ("crimson", "royalblue", "darkgreen", "darkorange", "purple", "teal")

_MOVES = (
    ((1, 0), "(2,1)"),
    ((0, 1), "(1,2)"),
    ((1, 1), "(2,2)"),
)


def _node_id(alpha_exp: int, beta_exp: int) -> str:
    return f"a{alpha_exp}b{beta_exp}"


def trellis_dot(paths: tuple[TrellisPath, ...] = ()) -> str:
    """Render the trellis grid, optionally overlaying stride-configuration
    paths as colored edge chains (self-loops included)."""
    golden = set(GOLDEN_GEMINI_FACTORS)
    lines = [
        "digraph trellis {",
        "  rankdir=TB;",
        '  node [shape=circle, fontsize=10, style=filled, fillcolor=white];',
    ]
    edges = []
    for endpoint in enumerate_endpoints():
        a, b = endpoint.exponents
        attrs = [f'label="({endpoint.alpha5},{endpoint.beta5})"', f'pos="{b},{-a}!"']
        if (endpoint.alpha5, endpoint.beta5) in golden:
            attrs += ["peripheries=2", "fillcolor=gold"]
        lines.append(f"  {_node_id(a, b)} [{', '.join(attrs)}];")
        edges += [f'  {_node_id(a, b)} -> {_node_id(a + da, b + db)} [label="{label}", color=gray60];'
                  for (da, db), label in _MOVES if max(a + da, b + db) <= NUM_STAGES]
    lines += edges
    for i, path in enumerate(paths):
        color = _PALETTE[i % len(_PALETTE)]
        prev = (0, 0)
        for step, (alpha, beta) in zip(path.steps, downsampling_factors(path)):
            node = (alpha.bit_length() - 1, beta.bit_length() - 1)
            lines.append(
                f"  {_node_id(*prev)} -> {_node_id(*node)} "
                f'[label="({step.time},{step.freq})", color={color}, penwidth=2.0, '
                f'fontcolor={color}, tooltip="{path.label}"];'
            )
            prev = node
    lines.append("}")
    return "\n".join(lines) + "\n"
