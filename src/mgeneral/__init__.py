"""m-general sets in AG(n,q): verification oracles, bounds, constructions, search."""

__version__ = "0.1.0"

from .field import Field, make_field
from .affine import (
    PointSet,
    affine_rank,
    is_affinely_independent,
    is_m_general,
    add_point_preserves,
    read_point_set,
    write_point_set,
)
from .arithmetic import (
    CoeffVector,
    apply_form,
    is_bk,
    is_m_general_arithmetic,
    is_weak_bk,
    nonzero_sum_vectors,
    sum_zero_vectors,
    verify_ksum_injectivity,
    weakly_avoids,
)
from .constructions import (
    FunctionTable,
    cube_function,
    is_apn,
    lower_bound_4general,
    sidon_graph,
)
from .bounds import (
    BoundReport,
    bennett_bound,
    bound_main,
    bound_report,
    mu_upper_bennett,
    mu_upper_main,
    refined_bound,
)
from .search import (
    SearchCertificate,
    read_certificate,
    search_exact,
    search_greedy,
    verify_certificate,
    write_certificate,
)

__all__ = [
    "Field",
    "make_field",
    "PointSet",
    "affine_rank",
    "is_affinely_independent",
    "is_m_general",
    "add_point_preserves",
    "read_point_set",
    "write_point_set",
    "CoeffVector",
    "apply_form",
    "sum_zero_vectors",
    "nonzero_sum_vectors",
    "weakly_avoids",
    "is_m_general_arithmetic",
    "is_weak_bk",
    "is_bk",
    "verify_ksum_injectivity",
    "FunctionTable",
    "is_apn",
    "cube_function",
    "sidon_graph",
    "lower_bound_4general",
    "BoundReport",
    "bound_main",
    "refined_bound",
    "bennett_bound",
    "mu_upper_main",
    "mu_upper_bennett",
    "bound_report",
    "SearchCertificate",
    "search_exact",
    "search_greedy",
    "verify_certificate",
    "read_certificate",
    "write_certificate",
    "__version__",
]
