"""Verified distribution oracles and tolerant property arguments."""

__version__ = "0.1.0"

from .dist import (
    BucketHistogram,
    GrainDistribution,
    default_grains,
    exact_histogram,
    point_mass,
    tv_distance,
    uniform,
)
from .commitment import (
    Digest,
    HashKey,
    NodeLabel,
    OpeningProof,
    digest,
    extract,
    gen,
    open_element,
    verify_opening,
)
from .testers import (
    DSampler,
    IdentityResult,
    identity_test,
    uniformity_test,
)
from .protocol import (
    HonestProver,
    QueryGenerator,
    SessionResult,
    VerifierConfig,
    run_oracle_session,
)
from .properties import (
    GeneralProperty,
    LabelInvariantProperty,
    estimate_histogram,
    make_fixed_target,
    make_support_size,
    make_uniformity,
    run_label_invariant_argument,
)
from .argument import (
    FullRevealBackend,
    GeneralArgumentResult,
    SpotCheckBackend,
    run_general_argument,
)
from .representation import (
    RepresentationString,
    build_representation,
    hamming_block_distance,
    reconstruct_distribution,
)
from .constants import Constants, get_constants
