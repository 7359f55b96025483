"""Generator matrices shared by the test modules.

Conventions for the permutation-like matrices: a matrix M acts on column
vectors, M e_j = column j.  The cyclic shift P below sends e_j to
e_{j-1}, so on coordinates it substitutes x_i -> x_{i-1} after the
inverse in the dual action.
"""

from fractions import Fraction

from cubicmoduli.cyclo import cyclo, root_of_unity

from helpers_math import Matrix

W = root_of_unity(3)
I4 = root_of_unity(4)
Z5 = root_of_unity(5)
Z6 = root_of_unity(6)
Z11 = root_of_unity(11)


def diag(*entries):
    return Matrix.diagonal([cyclo(e) for e in entries])


def from_cols(*cols):
    n = len(cols)
    return Matrix([[cyclo(cols[j][i]) for j in range(n)] for i in range(n)])


def permutation(images):
    """The permutation matrix sending e_j to e_images[j]."""
    return Matrix([[1 if images[j] == i else 0 for j in range(5)]
                   for i in range(5)])


def conjugated(gens, *scale):
    """The generators conjugated by diag(scale): entry (i, j) is
    multiplied by scale[i] / scale[j]."""
    t = diag(*scale)
    t_inv = diag(*(Fraction(1, v) for v in scale))
    return [t * g * t_inv for g in gens]


# order 11 diagonal symmetry of x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2
KLEIN_D = diag(Z11, Z11 ** 5, Z11 ** 3, Z11 ** 4, Z11 ** 9)

# cyclic shift e_j -> e_{j-1}
KLEIN_P = Matrix([
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0],
])

# alternating group on 4 letters: diag of order 3 plus a 3-cycle block
ALT4_A = from_cols(
    (W, 0, 0, 0, 0),
    (0, W ** 2, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0),
)
ALT4_B = diag(1, 1, 1, -1, -1)

# alternating group on 5 letters acting on the sum-zero hyperplane of the
# 6 points of the projective line over F_5, points ordered (0,1,2,3,4,oo),
# basis f_i = y_i - y_oo
ALT5_A = from_cols(  # z -> z+1, the 5-cycle f_i -> f_{i+1}
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0),
)
ALT5_B = from_cols(  # z -> -1/z, the permutation (0 oo)(1 4)
    (-1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 1),
    (-1, 0, 1, 0, 0),
    (-1, 0, 0, 1, 0),
    (-1, 1, 0, 0, 0),
)

# order 12 group: order-4 part swaps x3,x4 and scales x2 by i
Z3C4_A = from_cols(
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, I4, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0),
)
Z3C4_B = diag(1, 1, 1, W, W ** 2)

# diagonal group of order 9 with a split variable
FAM43_A = diag(1, W, 1, 1, W)
FAM43_B = diag(1, 1, W, W ** 2, W ** 2)

# small cyclic and dihedral models
C2_GEN = diag(-1, -1, 1, 1, 1)
C3_BALANCED = diag(1, W, W, W ** 2, W ** 2)
C3_DOUBLE = diag(W, W, 1, 1, 1)
C3_LINE_A = diag(W, 1, 1, 1, 1)
C3_LINE_B = diag(1, W, 1, 1, 1)
C5_REGULAR = diag(1, Z5, Z5 ** 2, Z5 ** 3, Z5 ** 4)
C6_GEN = diag(1, Z6, Z6 ** 2, Z6 ** 4, Z6 ** 5)
D12_FLIP = from_cols(
    (1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0),
    (0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0),
)
KLEIN_FOUR_A = diag(-1, -1, 1, 1, 1)
KLEIN_FOUR_B = diag(1, -1, -1, 1, 1)

# {diag(zeta_3^a) : sum a = 0 mod 3} x| S_5, order 9720, the projective
# automorphism group of the Fermat cubic
FERMAT_GENS = [diag(W, W ** 2, 1, 1, 1), permutation([1, 0, 2, 3, 4]),
               permutation([1, 2, 3, 4, 0])]
