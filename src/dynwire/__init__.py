"""Compositional dynamical systems over wiring diagrams.

Diagrams are copresheaf instances over three fixed schemas (undirected
wiring diagrams, directed wiring diagrams, circular port graphs);
substitution nests them hierarchically; and four composition algebras
(continuous/discrete x directed/undirected) assign dynamics, with an
explicit-Euler map that commutes with composition.
"""

from .errors import (
    ArityError,
    ConfigError,
    DiagramError,
    DynwireError,
    ExprEvalError,
    ExprSyntaxError,
    GluingError,
    KindError,
    ModelSpecError,
    NaturalityError,
    SchemaError,
    SizeMismatchError,
)
from .finset import (
    Cospan,
    FinFunction,
    PushoutResult,
    canonical_cospan,
    compose,
    cospan_compose,
    identity,
    merge_classes,
    pullback_vec,
    pushforward_vec,
    pushout,
)
from .cset import (
    CPG_SCHEMA,
    DWD_FROM_CPG,
    DWD_SCHEMA,
    UWD_SCHEMA,
    CSetInstance,
    InstancePushout,
    Schema,
    SchemaFunctor,
    SchemaMorphism,
    Violation,
    compose_functors,
    identity_functor,
    instance_pushout,
    migrate,
    validate,
)
from .wiring import (
    CPGraph,
    DWDiagram,
    UWDiagram,
    canonical,
    cpg_to_dwd,
    grid,
    identity_cpg,
    identity_dwd,
    identity_uwd,
    ocompose_cpg,
    ocompose_cpg_at,
    ocompose_dwd,
    ocompose_dwd_at,
    ocompose_uwd,
    ocompose_uwd_at,
    to_dot,
)
from .dynam import (
    Machine,
    ResourceSharer,
    UndirectedLayout,
    euler_directed,
    euler_undirected,
    eval_dynamics,
    eval_readout,
    eval_sharer,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
    oapply_undirected_with_layout,
)
from .modelspec import (
    BUILTIN_MODELS,
    BinOp,
    Call,
    Expr,
    ModelSpec,
    Neg,
    Num,
    Var,
    builtin_model,
    compile_expr,
    eval_expr,
    format_expr,
    free_variables,
    instantiate,
    parse,
    spec_from_json,
    spec_to_json,
    spec_violations,
)

__version__ = "0.1.0"
