"""Prompt rendering (SURVEY.md §2 M13).

:class:`PromptTemplateManager` mirrors the reference's
``prompts/prompt_template_manager.py:105-140`` contract: templates are
either a single ``string.Template`` or a chat history
(``list[{"role", "content"}]``), roles pass through ``role_mapping``,
and ``render(name, **kwargs)`` substitutes placeholders, raising
``ValueError`` on a missing variable.

For column-scale rendering, :func:`render_template_column` compiles a
template ONCE into literal segments + field references and rebuilds
the rendered column with a single Arrow
``binary_join_element_wise`` call — literals broadcast as scalars, so
rendering N rows is one vectorized kernel, not N ``Template.substitute``
calls.  :class:`RenderPrompts` wraps that as a ``map_batches`` stage.
"""

from __future__ import annotations

from string import Template

import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "PromptTemplateManager",
    "render_template_column",
    "RenderPrompts",
    "DEFAULT_TEMPLATES",
    "load_reference_templates",
]


def load_reference_templates() -> dict[str, list]:
    """The reference's few-shot chat template set, ported as DATA
    (``prompts/templates/{ner,ner_query,triple_extraction,
    rag_qa_musique,ircot_hotpotqa,ircot_musique}.py`` -> packaged
    ``prompt_data/*.json``, exact prose including the one-shot NER
    demo and the ircot demos — the few-shot wording materially affects
    extraction quality with a real LLM, so it ships verbatim rather
    than as a stand-in).  Each value is the reference's
    ``prompt_template`` chat list; the final user turn carries the
    ``${passage}`` / ``${query}`` / ``${prompt_user}`` placeholder
    (``triple_extraction``'s carries ``${passage}`` +
    ``${named_entity_json}`` via the reference's
    ``convert_format_to_template``)."""
    import json
    import os

    d = os.path.join(os.path.dirname(__file__), "prompt_data")
    out: dict[str, list] = {}
    for fn in sorted(os.listdir(d)):
        if fn.endswith(".json"):
            with open(os.path.join(d, fn)) as f:
                out[fn[:-5]] = json.load(f)["template"]
    return out


# Built-in templates: the reference's template set (exact prose, data
# files) plus two engine stand-ins — "qa" (plain string shape) and
# "rag_qa" (the deterministic reader's compact system turn; swap in
# "rag_qa_musique" for the reference's full one-shot reader prompt).
# Loaded LAZILY: import of this module must not pay prompt_data disk
# I/O (Ray workers that only render columns never touch chat
# templates), and a corrupt data file should fail at first use, not at
# import of the whole package.
_DEFAULT_TEMPLATES_CACHE: dict[str, object] | None = None


def default_templates() -> dict[str, object]:
    global _DEFAULT_TEMPLATES_CACHE
    if _DEFAULT_TEMPLATES_CACHE is None:
        _DEFAULT_TEMPLATES_CACHE = {
            **load_reference_templates(),
            "qa": Template("Question: ${question}\nContext:\n${context}\nAnswer:"),
            # rag_qa stand-in (reference prompts/rag_qa_* few-shot
            # templates, HippoRAG.py:698-707: the rendered user turn
            # carries the passage block + question and the model is
            # asked for Thought then Answer)
            "rag_qa": [
                {
                    "role": "system",
                    "content": (
                        "Answer the question using the passages. Reply with your "
                        "reasoning, then a final line 'Answer: <short answer>'."
                    ),
                },
                {"role": "user", "content": "${prompt_user}"},
            ],
        }
    return _DEFAULT_TEMPLATES_CACHE


def __getattr__(name: str):
    """``DEFAULT_TEMPLATES`` (the backwards-compatible name) is the
    materialized default_templates() dict, loaded on first attribute
    access (PEP 562) — a real dict, so ``.get``/``len``/``bool`` see
    the templates from the start."""
    if name == "DEFAULT_TEMPLATES":
        return default_templates()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PromptTemplateManager:
    """M13: named templates -> rendered strings / chat histories."""

    def __init__(self, role_mapping: dict[str, str] | None = None,
                 templates: dict | None = None):
        self.role_mapping = dict(role_mapping or {})
        self.templates: dict[str, object] = {}
        for name, t in (templates if templates is not None else default_templates()).items():
            self.register(name, t)

    def register(self, name: str, template) -> None:
        """Accepts a str / Template or a chat list; anything else is a
        TypeError (reference prompt_template_manager.py:95-97)."""
        if isinstance(template, str):
            template = Template(template)
        if isinstance(template, Template):
            self.templates[name] = template
        elif isinstance(template, list):
            compiled = []
            for item in template:
                role = self.role_mapping.get(item["role"], item["role"])
                content = item["content"]
                compiled.append(
                    {
                        "role": role,
                        "content": content
                        if isinstance(content, Template)
                        else Template(content),
                    }
                )
            self.templates[name] = compiled
        else:
            raise TypeError(
                f"Invalid prompt template for '{name}': must be a Template or List[Dict]."
            )

    def get_template(self, name: str):
        if name not in self.templates:
            raise KeyError(f"unknown template '{name}'")
        return self.templates[name]

    def list_template_names(self) -> list[str]:
        return sorted(self.templates)

    def render(self, name: str, **kwargs):
        """Single render — str for string templates, chat list for chat
        templates; missing placeholder -> ValueError (reference
        :116-140)."""
        template = self.get_template(name)
        try:
            if isinstance(template, Template):
                return template.substitute(**kwargs)
            return [
                {"role": item["role"], "content": item["content"].substitute(**kwargs)}
                for item in template
            ]
        except KeyError as e:
            raise ValueError(f"Missing variable for template '{name}': {e}")


def _segments(template: str) -> list[tuple[str, str]]:
    """Compile ``$name`` / ``${name}`` placeholders into an alternating
    ``[("lit", text), ("field", name), ...]`` plan using
    ``string.Template``'s own pattern (so ``$$`` escapes match
    ``Template.substitute`` exactly)."""
    plan: list[tuple[str, str]] = []
    pos = 0
    for m in Template.pattern.finditer(template):
        if m.start() > pos:
            plan.append(("lit", template[pos : m.start()]))
        name = m.group("named") or m.group("braced")
        if name is not None:
            plan.append(("field", name))
        elif m.group("escaped") is not None:
            plan.append(("lit", "$"))
        else:  # lone "$" — Template.substitute raises here too
            raise ValueError(f"Invalid placeholder in template at {m.start()}")
        pos = m.end()
    if pos < len(template):
        plan.append(("lit", template[pos:]))
    return plan


def render_template_column(template: str, batch: pa.Table) -> pa.Array:
    """Render ``template`` once per row of ``batch``, vectorized:
    field references pull the same-named column (cast to string),
    literals broadcast as scalars, and the row values are assembled by
    one ``binary_join_element_wise`` kernel."""
    plan = _segments(template)
    args = []
    for kind, val in plan:
        if kind == "lit":
            args.append(pa.scalar(val, pa.string()))
        else:
            if val not in batch.column_names:
                raise ValueError(f"Missing variable for template: '{val}'")
            col = batch[val]
            if pa.types.is_boolean(col.type):
                # Template.substitute renders str(True) — Arrow's cast
                # would emit 'true'/'false' and the scalar/vector paths
                # would produce different prompt text (and cache keys)
                col = pc.if_else(
                    col, pa.scalar("True", pa.string()), pa.scalar("False", pa.string())
                )
            elif not pa.types.is_string(col.type):
                # large_string included: binary_join_element_wise has no
                # mixed string/large_string kernel, so normalize to the
                # literals' type
                col = pc.cast(col, pa.string())
            # Template.substitute renders a null value as 'None'; the
            # join kernel's default would emit a NULL row instead,
            # silently propagating null prompts downstream
            col = pc.fill_null(col, "None")
            args.append(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    if not args:
        args = [pa.scalar("", pa.string())]
    if all(isinstance(a, pa.Scalar) for a in args):
        # all-literal template: materialize the constant column
        const = "".join(a.as_py() for a in args)
        return pa.array([const] * batch.num_rows, pa.string())
    return pc.binary_join_element_wise(*args, pa.scalar("", pa.string()))


class RenderPrompts:
    """``map_batches`` stage: add a rendered-prompt column.

    The plan is compiled once per actor in ``__init__`` (stateful-stage
    contract); each ``__call__`` is one Arrow kernel per batch.
    """

    def __init__(self, template: str, out_col: str = "prompt"):
        self.template = template
        self.out_col = out_col
        _segments(template)  # validate eagerly

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column(
            self.out_col, render_template_column(self.template, batch)
        )
