"""Statutory reasoning over Horn-clause statute annotations."""

from .model import (
    ArgumentLayer,
    Case,
    Money,
    Span,
    Subsection,
    TRUTH_KEY,
    Value,
    ValueMap,
    clusters_to_matrix,
    matrix_to_clusters,
    truth_of,
)
from .rules import (
    And,
    BodyExpr,
    DepTree,
    Not,
    Or,
    Program,
    Ref,
    Rule,
    build_dependency_tree,
    check_references,
    parse_program,
    parse_rule,
    print_rule,
)
from .engine import (
    EngineConfig,
    Resolver,
    ResolveRequest,
    SubsectionPlan,
    do_operation,
    evaluate_run,
    insert_values,
    instantiate_full,
    instantiate_single,
)
from .corpus import (
    Corpus,
    CorpusManifest,
    corpus_statistics,
    load_argument_layers,
    load_cases,
    load_corpus,
    load_statutes,
    validate_corpus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
