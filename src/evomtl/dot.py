"""DOT (graphviz) exporters for module architectures and routing graphs."""

from __future__ import annotations

from .diffcore import softmax
from .genome import SINK, SOURCE, ModuleGenome


def _q(s) -> str:
    return '"' + str(s).replace('"', r'\"') + '"'


def _gene_label(gene) -> str:
    if gene.kind == "conv2d":
        head = f"conv {gene.kernel_size}x{gene.kernel_size} f={gene.filters}"
    else:
        head = f"dense f={gene.filters}"
    return (f"{head}\\n{gene.activation} drop={gene.dropout_rate:.2f} "
            f"l2={gene.l2_strength:.1e}")


def module_dot(genome: ModuleGenome, name: str = "module") -> str:
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    lines.append(f'  {_q("in")} [shape=plaintext];')
    lines.append(f'  {_q("out")} [shape=plaintext];')
    tail = genome.final_layer
    tail_label = (f"tail conv {tail.kernel_size}x{tail.kernel_size}"
                  + (f"\\n{tail.activation} drop={tail.dropout_rate:.2f}"
                     if genome.cmtr_mode else " (linear)"))
    lines.append(f'  {_q("tail")} [shape=box, label={_q(tail_label)}];')
    for nid, gene in sorted(genome.nodes.items()):
        lines.append(f"  {_q(nid)} [shape=box, label={_q(_gene_label(gene))}];")
    for src, dst in sorted(genome.edges.values()):
        a = "in" if src == SOURCE else src
        b = "tail" if dst == SINK else dst
        lines.append(f"  {_q(a)} -> {_q(b)};")
    lines.append(f'  {_q("tail")} -> {_q("out")};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def routing_dot(graph, name: str = "routing") -> str:
    """Routing graph with post-softmax merge weights as edge labels."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for nid, node in sorted(graph.nodes.items()):
        if node.kind == "source":
            label, shape = "input", "plaintext"
        elif node.kind == "sink":
            label, shape = "decoder", "plaintext"
        elif node.kind == "adapter":
            label, shape = "pool 2x2", "ellipse"
        else:
            label, shape = f"module {node.module_index}", "box"
        lines.append(f"  {_q(nid)} [shape={shape}, label={_q(label)}];")
    for dst in sorted(graph.inbound):
        srcs = graph.inbound[dst]
        weights = None
        if len(srcs) > 1:
            weights = softmax(graph.scales[dst].value)
        for i, src in enumerate(srcs):
            if weights is None:
                lines.append(f"  {_q(src)} -> {_q(dst)};")
            else:
                lines.append(f"  {_q(src)} -> {_q(dst)} "
                             f"[label={_q(f'{weights[i]:.3f}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

