"""Trading ebits, length, and dimension: the propagation rules.

Three code-backed rules move along the entanglement axis:

  more entanglement  [[n,k,d;c]] -> [[n,k+i,d;c+i]]   (hull reduction)
  same entanglement  [[n,k,d;c]] -> [[n+1,k-1,d';c]]  (column extension)
  less entanglement  [[n,k,d;c]] -> [[n+1,k,d';c-1]]  (row+column extension)

plus the eight single-step parameter rules used for table bookkeeping.
Each code-backed step carries a replayable certificate.
"""

import numpy as np

from eaqecc import GF, LinearCode, hermitian_construct, propagate as prop, tables
from eaqecc.matrix import MatrixFq

F9 = GF(9)

print("== more entanglement ==")
M29, _ = MatrixFq.from_text(tables.load_data_text("g29_14_9.txt"))
C29 = LinearCode(F9, M29)
Q29 = hermitian_construct(C29, known_distance=11, known_pure=True)
print("base:", Q29, "(hull 14, so 14 trade-ins are available)")
for i in (1, 7, 14):
    Qi = prop.more_entanglement(Q29, i)
    print(f"  i={i:2d}:", Qi, "| net rate still", Qi.net_rate)

print("\n== same entanglement ==")
G5 = np.hstack([np.eye(4, dtype=np.uint8), np.full((4, 1), 2, np.uint8)])
C5 = LinearCode(F9, G5)
Q = hermitian_construct(C5.hermitian_dual())
print("base:", Q)
print("  plain extension: ", prop.same_entanglement(Q))
print("  searched extension:", prop.same_entanglement(Q, search=True), "(distance gained)")

print("\n== less entanglement ==")
M16, _ = MatrixFq.from_text(tables.load_data_text("g16_5_9.txt"))
C16 = LinearCode(F9, M16)
Q16 = hermitian_construct(C16.hermitian_dual())
print("base:", Q16, "| purity:", Q16.purity)
w15 = MatrixFq.from_text(tables.load_data_text("word16_w15.txt"))[0].array[0]
step = prop.less_entanglement_step(Q16, word=w15)
print("  good word (weight 15):", step.output_params)
w14 = MatrixFq.from_text(tables.load_data_text("word16_w14.txt"))[0].array[0]
print("  bad word  (weight 14):", prop.less_entanglement(Q16, word=w14), "(distance lost)")
print("  replaying the stored certificate:", prop.replay_step(step))

print("\n== the printed single-step rules ==")
rec = tables.CodeRecord(3, 6, 1, 5, 3, "pure", "constructed").to_params()
for rule in (1, 2, 3, 4, 8):
    print(f"  rule {rule} ({prop.SIMPLE_RULES[rule].name}):", prop.apply_simple_rule(rec, rule))

print("\n== entanglement searches ==")
tetra = LinearCode(F9, np.array([[1, 0, 1, 1], [0, 1, 1, 2]], dtype=np.uint8))
res = prop.min_entanglement_search(tetra)
print("self-orthogonal ingredient: c_min =", res.c_min, "at diagonal", res.diagonal)
space = prop.puncture_space(tetra)
found, vec, exhaustive = prop.find_all_nonzero_vector(space)
print("puncture space dim", space.rows, "| all-nonzero vector:", vec)
