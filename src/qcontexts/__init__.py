"""Measurement contexts, Born probabilities, and their certification machinery.

Submodules:
    linalg    -- tolerance policy, coercion, same-ray screen, unitarity check
    core      -- projectors (a unit vector each), contexts (an orthonormal basis
                 each), modalities, densities, measurement simulator
    gleason   -- frame-function validation, density reconstruction
    uhlhorn   -- ray-map certification and operator fitting
    partition -- {0,1} valuation search and parity certificates on vector systems
    topology  -- permutation paths in the unitary group
    jsonio    -- file formats for the CLI; the only document reader, with one
                 strict rule for every scalar
    sampling  -- seeded random domain objects, random ray maps included

Importing the package loads none of them, and so not numpy: the CLI sets
its BLAS thread policy before numpy is loaded.
"""

__version__ = "0.1.0"
