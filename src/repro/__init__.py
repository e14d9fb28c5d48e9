"""repro — a reproduction of ten Cate & Lutz, "The Complexity of Query
Containment in Expressive Fragments of XPath 2.0" (PODS 2007 / JACM 2009).

The package implements CoreXPath and its XPath 2.0-inspired extensions
(path equality ≈, path intersection ∩, path complementation −, for-loops,
and transitive closure *), the XML-tree and (E)DTD substrates, the paper's
decision procedures and translations, the §6/§7 hardness reductions, and
the §8 succinctness measurements.

Quickstart::

    from repro import parse_path, contains
    result = contains(parse_path("down/down[p]"), parse_path("down/down"))
    assert result.contained and result.conclusive

Subpackages: :mod:`repro.trees`, :mod:`repro.regexes`, :mod:`repro.edtd`,
:mod:`repro.xpath`, :mod:`repro.semantics`, :mod:`repro.games`,
:mod:`repro.automata`, :mod:`repro.analysis`, :mod:`repro.lowerbounds`,
:mod:`repro.succinctness`, :mod:`repro.obs` (observability: tracing,
counters, run records — see ``satisfiable(..., stats=True)``), and
:mod:`repro.parallel` (batch execution on a worker pool with engine
racing, timeouts, and a persistent verdict cache — see
``contains_many``/``satisfiable_many`` and ``python -m repro batch``).
"""

from . import obs
from .obs import RunRecord
from .trees import XMLTree, MultiLabelTree, from_xml, to_xml
from .xpath import (
    parse_path,
    parse_node,
    to_source,
    to_paper,
    size,
    Fragment,
    fragment_of,
)
from .semantics import evaluate_path, evaluate_nodes, holds_somewhere
from .edtd import EDTD, DTD, book_edtd
from .analysis import satisfiable, contains, equivalent, Verdict
from .parallel import (
    VerdictCache,
    contains_many,
    run_batch,
    satisfiable_many,
)

__version__ = "1.0.0"

__all__ = [
    "XMLTree", "MultiLabelTree", "from_xml", "to_xml",
    "parse_path", "parse_node", "to_source", "to_paper", "size",
    "Fragment", "fragment_of",
    "evaluate_path", "evaluate_nodes", "holds_somewhere",
    "EDTD", "DTD", "book_edtd",
    "satisfiable", "contains", "equivalent", "Verdict",
    "obs", "RunRecord",
    "__version__",
]
