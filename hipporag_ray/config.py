"""Engine configuration — the single frozen dataclass analog of the
reference's ``BaseConfig`` (/root/reference/src/hipporag/utils/
config_utils.py:14-231, 40+ fields).

Only the fields with data-processing semantics are carried; LLM/API
fields have no analog.  Defaults mirror the reference where one exists
(cited per field).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class EngineConfig:
    # --- graph construction ---
    min_token_len: int = 3  # synonymy eligibility >2 alnum chars, HippoRAG.py:864
    # fact-edge source: "cooccur" (distinct-token pairs) or "triples"
    # (per-triple accumulation, HippoRAG.py:756-775; stages/triples.py)
    edge_source: str = "cooccur"

    # --- fact linking (HippoRAG.py:1290-1328, 1446-1481) ---
    # facts=True links queries via fact embeddings then maps facts ->
    # entities with per-phrase damping; facts=False links entities
    # directly (round-1 behavior).  fact_score_threshold gates on RAW
    # query-fact similarity (the rerank-filter analog): a query whose
    # every top fact scores below it falls back to DPR-only retrieval
    # (HippoRAG.py:417-419).
    facts: bool = True
    fact_score_threshold: float = 0.0

    # --- PPR / PageRank (SimpleGraph.kt:154-156, config_utils.py:180-183) ---
    damping: float = 0.5
    tol: float = 1e-6
    max_iter: int = 100

    # --- retrieval fan-out (config_utils.py:79-82, 172-179) ---
    link_top_k: int = 5  # linking_top_k
    retrieval_top_k: int = 200
    passage_node_weight: float = 0.05

    # --- synonymy KNN (config_utils.py:148-163) ---
    synonymy: bool = False
    synonymy_threshold: float = 0.8
    synonymy_knn_k: int = 2047
    synonymy_max_accepted: int = 100  # HippoRAG.py:866-880

    # --- embeddings (T1 analog; reference batch 16/64, config_utils.py:128-131) ---
    embedding_dim: int = 64

    def __post_init__(self):
        # enum-valued fields fail loudly, matching from_dict's
        # strictness about field NAMES: consumers branch on
        # edge_source == "cooccur" with a bare else, so a typo would
        # silently build the triples-mode graph
        if self.edge_source not in ("cooccur", "triples"):
            raise ValueError(
                f"edge_source must be 'cooccur' or 'triples', "
                f"got {self.edge_source!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


DEFAULT_CONFIG = EngineConfig()
