"""Balanced extractor graphs with verifiable congestion bounds and list amplification."""

from .errors import (
    BackendError,
    BalexError,
    CapacityError,
    FormatError,
    IndexRangeError,
    InvariantError,
    OracleRefusalError,
    ParameterError,
    ShapeError,
)
from .graphs import (
    BalanceParams,
    ExtractorGraph,
    PrefixView,
    deserialize,
    graph_digest,
    load_graph,
    save_graph,
    serialize,
)
from .gf2 import (
    AffineSpace,
    Field2s,
    Gf2Matrix,
    field_make,
    row_assemble,
    solve_affine,
)
from .lineargraph import (
    LinearFamily,
    PreimageList,
    SeedExpansion,
    build_linear_graph,
    delta_guarantee,
    derive_amplification,
    derive_dims,
    dump_to_table,
    left_neighbors_indexed,
    linear_graph,
    linearity_check,
)
from .listamp import (
    AmplifiedList,
    CongestionReport,
    amplify,
    bad_set,
    bad_bound_ok,
    classify_heavy,
    congestion_report,
    light_threshold,
    list_element,
    survival_fraction,
    survival_ok,
)
from .oracles import (
    BSet,
    ComplexityOracle,
    CompressorOracle,
    ExplicitOracle,
    ToyMachineOracle,
    bset,
    compressor_oracle,
    explicit_oracle,
    load_bset,
    save_bset,
    toy_complexity,
)
from .randgraph import (
    BalancedSearchError,
    SearchResult,
    VerifyReport,
    newman_shepp_bound,
    sample_table,
    search_balanced,
    stat_distance,
    verify_extractor_exact,
    verify_extractor_sampled,
    verify_min_degree,
)

__version__ = "0.1.0"
