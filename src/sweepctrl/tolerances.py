"""Every numerical tolerance of the package, one named constant per decision.

A leaf module: it imports nothing from the package, and every other module
takes its tolerances from here, so no other source file carries one.
"""

# Membership and contact
CONTROL_TOL = 1e-9  # a control (or a start) within this of U's bounds (or of the separation) counts as inside
CONTACT_TOL = 1e-7  # a pair whose gap is within this of 0, on either side, is in contact (`models.in_contact`)
MEMBERSHIP_TOL = 1e-9  # a point violating a polyhedron row by at most this is inside it, and the row is active

# Projection kernel
STEP_TOL = 1e-12  # a free catch-up step violating K(x) by no more than this is kept unprojected
LICQ_RTOL = 1e-10  # active normals are independent when the least singular value exceeds this times the largest
EMPTY_RTOL = 1e-10  # margin the least-distance normalizer d must keep over its rounding, or the set is empty

# Scale
SCALE_MAX = 1e100  # bound on a scenario's controls, reach |x0| + 2R n + T s |u| and horizon, and on reach / horizon

# Times
TIME_TOL = 1e-12  # two times this close are one (absolute; times max(1, T) when comparing two horizons)
GRID_MERGE_RTOL = 1e-11  # verification breakpoints closer than this times max(1, T) merge into one

# Verification
VERIFY_TOL = 1e-6  # residual bound of every optimality condition: the CLI default and every template's
ETA_SIGN_TOL = 1e-15  # a certificate multiplier down to minus this still counts as nonnegative
NONTRIVIAL_TOL = 1e-12  # lambda + |q(0)| + |p(T)| above this is nontrivial

# Reduced templates
ANGLE_TOL = 1e-9  # two headings (or cos and sin of one) this close are equal
DRIVE_TOL = 1e-12  # two pushed speeds s_i u^i this close are equal
TIE_TOL = 1e-9  # branch costs within this times max(1, cost) tie
BOUND_RTOL = 1e-9  # a control parameter r within this times max(1, |r|) of its bound sits at the bound

# Direct search
SEARCH_MIN_SPAN = 1e-12  # floor of a parameter range's width, so a zero-width range still steps
SEARCH_IMPROVE_TOL = 1e-14  # a candidate must lower the cost by more than this, in cost units, to be taken
SEARCH_MIN_STEP = 1e-4  # the constant search stops below this relative step
PIECEWISE_MIN_STEP = 1e-3  # the per-interval refinement stops below this relative step
