"""The public names of the package and of ``dynam`` and ``sim``, and the
fields of the two system types, are pinned.

Adding or dropping a public name or a field is an API change; update these
sets only together with a note saying why it changed.
"""

from __future__ import annotations

import dataclasses
import types

import dynwire
import dynwire.dynam
import dynwire.sim

PACKAGE_NAMES = {
    "ArityError", "BUILTIN_MODELS", "BinOp", "CPG_SCHEMA", "CPGraph", "CSetInstance",
    "Call", "ConfigError", "Cospan", "DWD_FROM_CPG", "DWD_SCHEMA", "DWDiagram",
    "DiagramError", "DynwireError", "Expr", "ExprEvalError", "ExprSyntaxError",
    "FinFunction", "GluingError", "InstancePushout", "KindError",
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

# ``eval_sharer`` was already public through the package; ``dynam.__all__``
# now lists it too, so ``from dynwire.dynam import *`` sees it.
# ``BatchKernel`` was dropped: a box's batch kernels are generated from its
# ``program`` (``_codegen.kernels``), so a box carries its equations once.
DYNAM_ALL = {
    "Kind", "Machine", "ResourceSharer", "eval_dynamics", "eval_readout",
    "eval_sharer", "oapply_directed", "oapply_undirected", "oapply_undirected_with_layout",
    "UndirectedLayout", "oapply_cpg", "euler_directed", "euler_undirected",
}

# ``InternalShapeError`` was dropped from the package: nothing raised it
# since its only raiser, an unreachable branch of ``ocompose_dwd``, went.

SIM_ALL = {"ComposedSystem", "build_system", "run_trajectory", "rk4_step"}

# The ``kernel`` field was dropped for the reason ``BatchKernel`` was, so
# ``program`` moved up one place: the 7th positional field of a machine and
# the 6th of a sharer.
MACHINE_FIELDS = ("n_inputs", "n_states", "n_outputs", "dynamics", "readout", "kind", "program")
SHARER_FIELDS = ("n_ports", "n_states", "portmap", "dynamics", "kind", "program")


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


def test_system_fields_are_pinned():
    for cls, pinned in ((dynwire.Machine, MACHINE_FIELDS), (dynwire.ResourceSharer, SHARER_FIELDS)):
        assert tuple(f.name for f in dataclasses.fields(cls)) == pinned
