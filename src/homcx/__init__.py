"""homcx: containment graphs of simplicial complexes and the machinery
around them: neighborhood, clique, and multihomomorphism complexes,
collapse and nerve certificates, and integral homology.
"""

from .canon import label_key, render_label, sorted_labels
from .simplicial import (
    Poset,
    SimplicialComplex,
    barycentric_subdivision,
    complex_from_dict,
    complex_to_dict,
    euler_characteristic,
    load_complex,
    order_complex,
    save_complex,
)
from .graphs import (
    FoldStep,
    Graph,
    build_g_kx,
    clique_complex,
    common_neighborhood,
    complete_graph,
    diameter,
    find_fold,
    fold_reduce,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    neighborhood_complex,
    save_graph,
)
from .homology import (
    HomologyProfile,
    SNFResult,
    chain_homology,
    homology,
    profiles_equal,
    smith_normal_form,
    sparse_smith_normal_form,
)
from .collapse import (
    CollapseCertificate,
    CollapseStep,
    Filtration,
    StalledCollapse,
    certificate_to_dict,
    greedy_collapse,
    kl_filtration,
    replay_certificate,
    verify_kl_collapse_sequence,
)
from .nerve import (
    Cover,
    NerveHypothesesReport,
    cover_union,
    nerve_of_cover,
    star_cover,
    verify_nerve_theorem_hypotheses,
)
from .hom import (
    DEFAULT_CAP,
    CapExceeded,
    HomPoset,
    Multihom,
    QuillenReport,
    WitnessTrace,
    check_quillen_conditions,
    common_neighbor_witness,
    enumerate_hom,
    fiber_maximum,
    hom_homology,
    hom_order_complex,
    hom_poset_to_dict,
    is_multihom,
    multihom_to_dict,
    restriction_map,
)
from .fixtures import CORE_FIXTURE_NAMES, core_fixture, looped_edge_graph
from .verify import SUITE_NAMES, run_suite, suite_to_dict, suite_to_text

__version__ = "0.1.0"
