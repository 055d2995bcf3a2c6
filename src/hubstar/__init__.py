"""Declarative hub/star warehouse modeling: a small DSL compiled into a
bronze/silver/gold pipeline over plain files.

Typical use::

    from hubstar import load_model, Warehouse, init_warehouse, load_all

    spec = load_model("retail.hsm").spec
    wh = Warehouse("/tmp/wh")
    init_warehouse(wh, spec)
    ...
"""

# Set before the imports: gold reads it while this package initialises.
__version__ = "0.1.0"

from .bronze import ingest_file
from .dsl import load_model, parse_model, render_model
from .errors import (EvalError, GoldBuildError, HubStarError, IngestError,
                     LoadError, ParseError, StorageError)
from .gold import build_all, build_view
from .model import ModelError, ModelSpec, validate_model
from .oracle import check_against_oracle
from .silver import LoadResult, init_warehouse, load_all, load_hub, load_star
from .storage import TableManifest, Warehouse

__all__ = [
    "EvalError", "GoldBuildError", "HubStarError", "IngestError", "LoadError",
    "LoadResult", "ModelError", "ModelSpec", "ParseError", "StorageError",
    "TableManifest", "Warehouse", "build_all", "build_view",
    "check_against_oracle", "ingest_file", "init_warehouse", "load_all",
    "load_hub", "load_model", "load_star", "parse_model", "render_model",
    "validate_model", "__version__",
]
