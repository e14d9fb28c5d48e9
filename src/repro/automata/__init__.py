"""Path automata, the CoreXPath_NFA(*, loop) normal form, EPAs, and 2ATAs."""

from .nf import (
    Step,
    NFExpr,
    NFLabel,
    NFTop,
    NFNot,
    NFAnd,
    NFLoop,
    PathAutomaton,
    nf_size,
    nf_negate,
    nf_labels_used,
    nf_subexpressions,
    nf_render,
)
from .normalform import (
    to_normal_form,
    path_to_automaton,
    eliminate_skips,
    NormalFormError,
)
from .evaluate import NFEvaluator, possible_steps, loops_fixpoint
from .core import (
    AlphabetPartition,
    CompiledEval,
    FormulaTable,
    KernelCache,
    nf_true,
    nf_false,
    nf_not,
    nf_and,
    nf_or,
    nf_and_all,
    nf_or_all,
    nf_intern,
    nf_key,
    automaton_base_key,
)
from .twoata import TwoATA, build_twoata, accepts, closure
from .emptiness import EmptinessLimit, EmptinessResult, decide_emptiness
from .epa import (
    EPA,
    LetNF,
    Environment,
    FreshLabels,
    path_to_epa,
    node_to_let_nf,
    intersect_epas,
    nf_substitute_label,
)
from .letelim import eliminate_lets
from .toexpr import automaton_to_path, nf_to_expr, letnf_to_expr, epa_to_path

__all__ = [
    "Step", "NFExpr", "NFLabel", "NFTop", "NFNot", "NFAnd", "NFLoop",
    "PathAutomaton", "nf_size", "nf_negate", "nf_labels_used",
    "nf_subexpressions", "nf_render",
    "to_normal_form", "path_to_automaton", "eliminate_skips", "NormalFormError",
    "NFEvaluator", "possible_steps", "loops_fixpoint",
    "AlphabetPartition", "CompiledEval", "FormulaTable", "KernelCache",
    "nf_true", "nf_false", "nf_not",
    "nf_and", "nf_or", "nf_and_all", "nf_or_all", "nf_intern", "nf_key",
    "automaton_base_key",
    "TwoATA", "build_twoata", "accepts", "closure",
    "EmptinessLimit", "EmptinessResult", "decide_emptiness",
    "EPA", "LetNF", "Environment", "FreshLabels", "path_to_epa",
    "node_to_let_nf", "intersect_epas", "nf_substitute_label",
    "eliminate_lets",
    "automaton_to_path", "nf_to_expr", "letnf_to_expr", "epa_to_path",
]
