"""The public names of the package and of ``dynam`` and ``sim`` are pinned.

Adding or dropping a public name is an API change; update these sets only
together with a note saying why it changed.
"""

from __future__ import annotations

import types

import dynwire
import dynwire.dynam
import dynwire.sim

PACKAGE_NAMES = {
    "ArityError", "BUILTIN_MODELS", "BinOp", "CPG_SCHEMA", "CPGraph", "CSetInstance",
    "Call", "ConfigError", "Cospan", "DWD_FROM_CPG", "DWD_SCHEMA", "DWDiagram",
    "DiagramError", "DynwireError", "Expr", "ExprEvalError", "ExprSyntaxError",
    "FinFunction", "GluingError", "InstancePushout", "InternalShapeError", "KindError",
    "Machine", "ModelSpec", "ModelSpecError", "NaturalityError", "Neg", "Num",
    "PushoutResult", "ResourceSharer", "Schema", "SchemaError", "SchemaFunctor",
    "SchemaMorphism", "SizeMismatchError", "UWD_SCHEMA", "UWDiagram", "UndirectedLayout",
    "Var", "Violation", "builtin_model", "canonical", "canonical_cospan", "compile_expr",
    "compose", "compose_functors", "cospan_compose", "cpg_to_dwd", "euler_directed",
    "euler_undirected", "eval_dynamics", "eval_expr", "eval_readout", "eval_sharer",
    "format_expr", "free_variables", "grid", "identity", "identity_cpg", "identity_dwd",
    "identity_functor", "identity_uwd", "instance_pushout", "instantiate", "merge_classes",
    "migrate", "oapply_cpg", "oapply_directed", "oapply_undirected",
    "oapply_undirected_with_layout", "ocompose_cpg", "ocompose_cpg_at", "ocompose_dwd",
    "ocompose_dwd_at", "ocompose_uwd", "ocompose_uwd_at", "parse", "pullback_vec",
    "pushforward_vec", "pushout", "spec_from_json", "spec_to_json", "spec_violations",
    "to_dot", "validate",
}

DYNAM_ALL = {
    "Kind", "BatchKernel", "Machine", "ResourceSharer", "eval_dynamics", "eval_readout",
    "oapply_directed", "oapply_undirected", "oapply_undirected_with_layout",
    "UndirectedLayout", "oapply_cpg", "euler_directed", "euler_undirected",
}

SIM_ALL = {"ComposedSystem", "build_system", "run_trajectory", "rk4_step"}


def test_package_namespace_is_pinned():
    public = {
        name for name, value in vars(dynwire).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES


def test_module_all_lists_are_pinned_and_importable():
    for module, pinned in ((dynwire.dynam, DYNAM_ALL), (dynwire.sim, SIM_ALL)):
        assert len(module.__all__) == len(set(module.__all__))
        assert set(module.__all__) == pinned
        assert all(hasattr(module, name) for name in module.__all__)
