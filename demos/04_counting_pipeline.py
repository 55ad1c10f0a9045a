"""End to end: a weighted instance, its triangle graph, and the randomized count."""

from fractions import Fraction

from spincount import (
    CspInstance,
    EstimatorConfig,
    binary,
    build_triangle_graph,
    count_pm_exact,
    estimate_pm,
    estimate_z_fpras,
    holant_fourier_form,
    lift_instance,
    parse,
    serialize,
    z_exact,
)

# A ferromagnetic triangle in the line format used by the CLI.
text = """\
fun f 2 2 1 1 2
con f x y
con f y z
con f z x
"""
inst = parse(text)
print("instance:")
print(serialize(inst), end="")
print("z_exact:", z_exact(inst))

# Step 1: one shared auxiliary variable lifts the binary function to a
# ternary one; the partition function exactly doubles.
lifted = lift_instance(inst)
print("lifted z:", z_exact(lifted), "(exactly twice the original)")

# Step 2: rewire to a holant instance over normalized Fourier tables; the
# tracked constant kappa restores the original value.
form = holant_fourier_form(lifted)
print("kappa:", form.kappa)

# Step 3: one triangle per constraint; perfect matchings now carry Z.
graph = build_triangle_graph(form.holant)
print("graph size:", len(graph.vertices), "vertices,", len(graph.edges), "edges")
print("kappa * pm / 2:", form.kappa * count_pm_exact(graph) / 2)

# The pipeline call answers instances of small elimination width exactly by
# variable elimination; wider ones go through the steps above and the chain.
f = binary(2, 1, 1, 2)
print("pipeline:", estimate_z_fpras(f, inst, EstimatorConfig()))

# The matching chain runs on graphs past EXACT_CAP (30) vertices.  A 7-ring's
# triangle graph has 36: estimate_pm telescopes it down to 30 vertices and
# counts those exactly.  The count is randomized but seeded, hence reproducible.
ring = CspInstance.build({"f": f}, [((f"x{i}", f"x{(i + 1) % 7}"), "f") for i in range(7)])
ring_form = holant_fourier_form(lift_instance(ring))
ring_graph = build_triangle_graph(ring_form.holant)
print("7-ring z:", z_exact(ring), "graph size:", len(ring_graph.vertices), "vertices")
cfg = EstimatorConfig(epsilon=Fraction(1, 10), seed=11)
print("sampled: ", ring_form.kappa * estimate_pm(ring_graph, cfg) / 2)
print("again:   ", ring_form.kappa * estimate_pm(ring_graph, cfg) / 2)

# A bigger random-looking instance, still exact through the pipeline.
big = CspInstance.build(
    {"f": f},
    [(("a", "b"), "f"), (("b", "c"), "f"), (("c", "d"), "f"), (("d", "a"), "f"), (("a", "c"), "f")],
)
print("5-edge z:", z_exact(big), "pipeline:", estimate_z_fpras(f, big, EstimatorConfig()))
