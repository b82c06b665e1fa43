"""Constants the CLI's help text names at import.

Each is defined here, apart from the module that enforces or runs it
(`oracle`, `codes`, `acceptance`), so that building the parser loads
none of those lazy modules (see the package docstring).
"""

# start rows x q^n of one oracle search: it keeps ~10 float64 arrays of this many entries
# (~80 MB at the cap) and a face-step stack (a few oracle.FACE_BYTES); the default 200
# restarts fit at oracle.SIZE_CAP
BATCH_CAP = 1 << 20
# (trial, codeword) pairs scored by one codes.mc_pe call
MC_PAIR_CAP = 1 << 28
# the acceptance criteria in run order, each acceptance.check_<name>: name -> what it checks
CRITERIA_ABOUT = {
    "theta": "zero-error constants and the cycle Lovasz number",
    "eps_bar": "junction threshold and figure-caption ratios",
    "oracle": "simplex minimizer against its certified lower bound L",
    "psd_boundary": "Gram matrix loses PSD exactly at rho_bar",
    "endpoints": "LP endpoint identities and the entropy identity",
    "counterexample": "coset bounds strictly beat the expurgated bound",
    "shift_laws": "rate-shift identities between channels",
    "envelope": "lower envelope never exceeds upper envelope",
    "simulator": "simulator ground truth on explicit codes",
    "fig7_ordering": "converse ordering at eps = 1/2, q = 5",
}
