"""Tour of the t-product algebra: products, transforms, t-SVD, ranks, norms.

Run:  python demos/01_tensor_algebra_tour.py
"""

import numpy as np

import tubal as tb

rng = np.random.default_rng(0)

print("== t-product vs. the block-circulant definition ==")
a = rng.standard_normal((3, 4, 5))
b = rng.standard_normal((4, 2, 5))
fast = tb.tprod(a, b)
slow = tb.fold(tb.bcirc(a) @ tb.unfold(b), 5)
print(f"fold(bcirc(a) @ unfold(b)) agrees with the Fourier path to "
      f"{np.max(np.abs(fast - slow)):.2e}")

print()
print("== t-SVD of a random 6 x 5 x 4 tensor ==")
x = rng.standard_normal((6, 5, 4))
f = tb.tsvd(x)
print(f"reconstruction error : {tb.fro_norm(f.compose() - x) / tb.fro_norm(x):.2e}")
print(f"u orthogonal         : {tb.is_orthogonal(f.u, 1e-8)}")
print(f"s f-diagonal         : {tb.is_fdiagonal(f.s, 1e-10)}")
print(f"singular spectrum    : {np.round(f.spectrum, 3)}")

print()
print("== ranks and norms ==")
low = tb.tprod(rng.standard_normal((6, 2, 4)), rng.standard_normal((2, 6, 4)))
print(f"tubal rank of a rank-2 factor product : {tb.tubal_rank(low)}")
print(f"average rank (rational)               : {tb.average_rank(low)}")
print(f"tensor nuclear norm                   : {tb.tnn(low):.4f}")
xf = np.fft.fft(low, axis=2)
bdiag_nuc = sum(np.linalg.svd(xf[:, :, k], compute_uv=False).sum() for k in range(4))
print(f"mean of Fourier-slice nuclear norms   : {bdiag_nuc / 4:.4f}  (same value)")

print()
print("== best rank-r truncation ==")
head, tail = tb.truncate(x, 2)
print(f"rank-2 head rank      : {tb.tubal_rank(head)}")
print(f"residual energy share : {tb.fro_norm(tail) ** 2 / tb.fro_norm(x) ** 2:.3f}")
parts = tb.restrict(x, [0, 1]) + tb.restrict(x, tb.complement_indices([0, 1], 5))
print(f"restrict partition    : {tb.fro_norm(parts - x) / tb.fro_norm(x):.2e}")
