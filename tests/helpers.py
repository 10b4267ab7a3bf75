"""Test references that the package itself never calls: a finite-
difference gradient check, a PGM writer and a small PGM tree for
image-directory fixtures, the output divergence of two routing
individuals, the side of every routing node, a payload that only names
genomes, and the mutable state two objects share."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evomtl.assembly import empty_input
from evomtl.dataset import DirRef
from evomtl.diffcore import BatchForward, ParamBlock, backward, zero_grads
from evomtl.errors import StateError
from evomtl.genome import GlobalHyper
from evomtl.harness import CmPayload, CmsrPayload
from evomtl.routing import route
from evomtl.training import batched_forward


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str
    unreached: list[str]


def grad_check(builder, params, tolerance: float,
               epsilon: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `builder()` must construct the graph from scratch and return
    (graph, loss_node), closing over the Params it perturbs; it has to be
    deterministic (fixed dropout seed), which is verified by building
    twice. `params` are the Params the loss may depend on. One whose
    perturbation moves the loss but that `backward` does not reach (an op
    emitted no gradient for it) is listed in `unreached`, fails the check,
    and is finite-differenced against a zero analytic gradient, so the
    check sees a dropped gradient, not only a wrong one.
    """
    g1, l1 = builder()
    g2, l2 = builder()
    if not np.array_equal(l1.value, l2.value):
        raise StateError("grad_check builder is non-deterministic")

    reached = backward(g2, l2)
    r = np.random.default_rng(0)
    unreached = []
    for p in params:
        if any(p is q for q in reached + unreached):
            continue
        old = p.value.copy()
        p.value += 1e-3 * r.normal(size=old.shape)
        if not np.array_equal(builder()[1].value, l1.value):
            unreached.append(p)
        p.value[...] = old
    block = ParamBlock(reached + unreached)
    params = block.params
    zero_grads(block)
    backward(g1, l1)
    analytic = [p.grad.copy() for p in params]
    zero_grads(block)

    def objective():
        # The additive-gradient L2 term corresponds to a 0.5*l2*|v|^2
        # penalty, which the finite-difference objective must include.
        loss = float(builder()[1].value)
        penalty = sum(0.5 * p.l2_strength * float(np.sum(p.value ** 2))
                      for p in params if p.l2_strength)
        return loss + penalty

    max_err = 0.0
    worst = ""
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = objective()
            flat[i] = orig - epsilon
            f_minus = objective()
            flat[i] = orig
            num = (f_plus - f_minus) / (2 * epsilon)
            ana = float(a.reshape(-1)[i])
            scale = max(abs(ana), abs(num))
            err = abs(ana - num) if scale < 1e-6 else abs(ana - num) / scale
            if err > max_err:
                max_err = err
                worst = p.name
    return GradCheckReport(max_err, tolerance,
                           max_err <= tolerance and not unreached, worst,
                           [p.name for p in unreached])


def write_pgm(path: str, image: np.ndarray) -> None:
    """Emit a grayscale [0, 1] image as binary PGM."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    if img.ndim == 3:
        img = img[:, :, 0]
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.round(img * 255).astype(np.uint8).tobytes())


def pgm_tree(root, fill=0) -> DirRef:
    """root/task<t>/class<c>/<i>.pgm: 2 tasks of 2 classes x 6 images at
    side 8; `fill` shifts every pixel, so a rewrite changes the bytes."""
    r = np.random.default_rng(0)
    for t in range(2):
        for c in range(2):
            d = root / f"task{t}" / f"class{c}"
            d.mkdir(parents=True, exist_ok=True)
            for i in range(6):
                write_pgm(str(d / f"{i}.pgm"),
                          (r.random((8, 8)) + fill) % 1.0)
    return DirRef(str(root), 8, split_seed=3)


def output_divergence(a, b, modules, inputs) -> float:
    """Relative L2 divergence of two routing individuals' outputs over a
    batch of inputs: sqrt(sum |a_i - b_i|^2 / sum |a_i|^2). The batch
    aggregate is used because single random inputs can land near the
    untrained decoder's null space and make a per-input ratio
    meaningless."""
    va = batched_forward(lambda g, x: a.forward(g, modules, x), inputs)
    vb = batched_forward(lambda g, x: b.forward(g, modules, x), inputs)
    den = float(np.sum(va ** 2))
    return math.sqrt(float(np.sum((va - vb) ** 2)) / den) if den > 0 else 0.0


def node_sides(graph, modules, image_side: int) -> dict[int, int]:
    """Output side per routing node, from `route` on an empty batch."""
    vals = route(BatchForward(), graph, modules, empty_input(image_side))
    return {n: v.shape[0] for n, v in vals.items()}


def naming_payload(module_ids: list[int], blueprint_id: int | None = None):
    """A cm payload, or with `blueprint_id` a cmsr one, that names the
    genomes `module_ids` (and that blueprint) and holds nothing to
    evaluate; for fitness attribution tests."""
    cm = CmPayload(modules=[], module_ids=module_ids, hyper=GlobalHyper(),
                   hyper_id=0, dataset=None, seed=0, train_iters=0)
    if blueprint_id is None:
        return cm
    return CmsrPayload(**vars(cm), blueprint=None, blueprint_id=blueprint_id,
                       species_map={})


def mutables(obj) -> list:
    """Every mutable object reachable from `obj` through instance
    attributes and slots, dict keys and values, and list, set and tuple
    items. A tuple cannot change, so it is walked but not listed."""
    out, seen, stack = [], set(), [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (str, bytes, int, float, type(None), np.generic)) \
                or id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, tuple):
            stack.extend(o)
            continue
        out.append(o)
        if isinstance(o, dict):
            stack.extend([*o.keys(), *o.values()])
        elif isinstance(o, (list, set)):
            stack.extend(o)
        elif not isinstance(o, np.ndarray):
            stack.extend(vars(o).values() if hasattr(o, "__dict__") else ())
            stack.extend(getattr(o, s) for s in getattr(o, "__slots__", ())
                         if hasattr(o, s))
    return out


def shared_mutables(a, b) -> list:
    """The mutable objects reachable from both `a` and `b`: the same
    object, or arrays whose memory overlaps."""
    ours = mutables(a)
    ids = {id(o) for o in ours}
    arrays = [o for o in ours if isinstance(o, np.ndarray)]
    return [o for o in mutables(b) if id(o) in ids or (
        isinstance(o, np.ndarray)
        and any(np.shares_memory(o, x) for x in arrays))]
