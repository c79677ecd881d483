"""Domain types, the transformation-method catalog, and shared configuration.

Everything here is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .errors import ConfigError, UnknownMethod


class Language(Enum):
    """The five supported language modes. C and C++ share one mode.

    The rule engine has rules for Python, Go and C/C++ (transform.RULES).
    Java and Rust are LLM-only: transform.rule_engine_apply raises
    UnsupportedCombination for every method on them, and each method
    reaches them through the LLM engine.
    """

    C_CPP = "c_cpp"
    GO = "go"
    PYTHON = "python"
    RUST_LANG = "rust"
    JAVA = "java"

    @classmethod
    def parse(cls, name: str) -> "Language":
        key = name.strip().lower()
        aliases = {
            "c": cls.C_CPP,
            "cy": cls.C_CPP,
            "cpp": cls.C_CPP,
            "c++": cls.C_CPP,
            "c_cpp": cls.C_CPP,
            "c/c++": cls.C_CPP,
            "go": cls.GO,
            "golang": cls.GO,
            "python": cls.PYTHON,
            "py": cls.PYTHON,
            "rust": cls.RUST_LANG,
            "rust_lang": cls.RUST_LANG,
            "rs": cls.RUST_LANG,
            "java": cls.JAVA,
        }
        if key not in aliases:
            raise ConfigError(f"unknown language: {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class CodeSample:
    """One source unit flowing through the pipeline: an original when its
    lineage is empty, else derived from one by the methods it lists."""

    id: str
    language: Language
    text: str
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.lineage and not self.text:
            raise ConfigError(f"sample {self.id!r}: original text is empty")

    def derive(self, text: str, method_id: str) -> "CodeSample":
        """A child sample with one more lineage entry. Never mutates self."""
        return CodeSample(
            id=self.id,
            language=self.language,
            text=text,
            lineage=self.lineage + (method_id,),
        )


class MethodCategory(Enum):
    """The six method categories, indexed 0..5 in listing order."""

    BASIC = 0
    CONDITION = 1
    LOOP = 2
    LOGIC = 3
    DECOMPOSITION = 4
    ARITHMETIC = 5

    @property
    def index(self) -> int:
        return self.value


class EngineKind(Enum):
    RULE_BASED = "rule"
    LLM = "llm"


@dataclass(frozen=True)
class PerturbationMethod:
    """One catalogued rewrite."""

    id: str
    category: MethodCategory
    description: str


_METHOD_ROWS: list[tuple[str, MethodCategory, str]] = [
    # Basic methods (11)
    ("add_exception", MethodCategory.BASIC,
     "Add exception handling blocks"),
    ("add_arguments", MethodCategory.BASIC,
     "Add arguments to the function"),
    ("change_statement_order", MethodCategory.BASIC,
     "Change the order of two adjacent statements that do not share any variables"),
    ("check_arguments", MethodCategory.BASIC,
     "Check if the arguments are none"),
    ("insert_junk_function", MethodCategory.BASIC,
     "Insert junk functions that won't be called"),
    ("insert_junk_loop", MethodCategory.BASIC,
     "Insert junk loops that won't be executed"),
    ("insert_variables", MethodCategory.BASIC,
     "Insert variables that won't be used"),
    ("move_assignments", MethodCategory.BASIC,
     "Move assignments if a variable is assigned directly"),
    ("statement_wrapping", MethodCategory.BASIC,
     "Wrap the statements with if or for statement"),
    ("function_rename", MethodCategory.BASIC,
     "Change the function name"),
    ("variables_rename", MethodCategory.BASIC,
     "Change the variables name"),
    # Condition methods (6)
    ("add_condition", MethodCategory.CONDITION,
     "Improve condition statements by adding else clauses"),
    ("div_if_else", MethodCategory.CONDITION,
     "Divide the if else-if else into if, else containing if else"),
    ("div_composed_if", MethodCategory.CONDITION,
     "Divide the composed if statement into single"),
    ("if_continue_to_if_else", MethodCategory.CONDITION,
     "Transform if-continue statement to if-else statement"),
    ("if_to_switch_match", MethodCategory.CONDITION,
     "Transform if statement to switch/match statement"),
    ("switch_match_to_if", MethodCategory.CONDITION,
     "Transform switch/match statement to if statement"),
    # Loop methods (2)
    ("div_loop", MethodCategory.LOOP,
     "Divide a loop into several loops"),
    ("for_while_transformation", MethodCategory.LOOP,
     "Transform for/while loop to while/for loop"),
    # Logic methods (2)
    ("equi_boolean_logic", MethodCategory.LOGIC,
     "Transform boolean logic equivalently"),
    ("swap_boolean_expression", MethodCategory.LOGIC,
     "Swap the sides of the boolean expression"),
    # Decomposition methods (2)
    ("extract_if", MethodCategory.DECOMPOSITION,
     "Extract method from if statements"),
    ("extract_arithmetic", MethodCategory.DECOMPOSITION,
     "Extract method from arithmetic statements"),
    # Arithmetic methods (3)
    ("equi_arithmetic_expression", MethodCategory.ARITHMETIC,
     "Change the arithmetic computation or arithmetic assignment equivalently"),
    ("expression_div", MethodCategory.ARITHMETIC,
     "Divide the long expression to several small expressions"),
    ("modify_operations", MethodCategory.ARITHMETIC,
     "Modify the compound assignment operations such as a += b to a = a + b"),
]


@dataclass(frozen=True)
class MethodCatalog:
    methods: tuple[PerturbationMethod, ...]
    by_category: dict[MethodCategory, tuple[PerturbationMethod, ...]] = field(init=False)

    def __post_init__(self):
        grouped: dict[MethodCategory, list[PerturbationMethod]] = {c: [] for c in MethodCategory}
        seen: set[str] = set()
        for m in self.methods:
            if m.id in seen:
                raise ConfigError(f"duplicate method id {m.id!r}")
            seen.add(m.id)
            grouped[m.category].append(m)
        object.__setattr__(
            self, "by_category", {c: tuple(ms) for c, ms in grouped.items()}
        )

    def __len__(self) -> int:
        return len(self.methods)

    def get(self, method_id: str) -> PerturbationMethod:
        for m in self.methods:
            if m.id == method_id:
                return m
        raise UnknownMethod(f"no such perturbation method: {method_id!r}")


def build_catalog() -> MethodCatalog:
    """The canonical 26-method catalog (11/6/2/2/2/3 per category)."""
    return MethodCatalog(
        methods=tuple(
            PerturbationMethod(id=i, category=c, description=d) for i, c, d in _METHOD_ROWS
        )
    )


@dataclass(frozen=True)
class PesoConfig:
    """Weights, temperature, and loop bounds for the optimization loop."""

    mu: float = 0.5
    nu: float = 0.5
    temperature: float = 2.0
    max_iter: int = 15
    ss_threshold: float = 0.2
    min_tile_len: int = 9
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mu <= 1.0 and 0.0 <= self.nu <= 1.0):
            raise ConfigError("mu and nu must lie in [0, 1]")
        if abs(self.mu + self.nu - 1.0) > 1e-9:
            raise ConfigError(f"mu + nu must equal 1 (got {self.mu + self.nu})")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be a positive integer")
        if not (0.0 <= self.ss_threshold <= 1.0):
            raise ConfigError("ss_threshold must lie in [0, 1]")
        if self.min_tile_len < 1:
            raise ConfigError("min_tile_len must be a positive integer")


# PesoConfig field -> the JSON number types its value may have.
_CONFIG_KEYS = {
    f.name: (int, float) if isinstance(f.default, float) else (int,) for f in fields(PesoConfig)
}
_LLM_KEYS = {"base_url": (str,), "model": (str,), "api_key_env": (str,), "timeout": (int, float)}


def _check_type(path, key: str, value, types: tuple[type, ...]) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        kind = "a string" if types == (str,) else "an integer" if types == (int,) else "a number"
        raise ConfigError(f"config {path}: {key} must be {kind} (got {value!r})")


def load_config(path: str | Path) -> tuple[PesoConfig, dict]:
    """Read a JSON config file.

    Returns the PesoConfig plus the remaining keys (engine and toolchain
    settings) for the caller to interpret.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    peso_kwargs = {k: raw[k] for k in _CONFIG_KEYS if k in raw}
    for key, value in peso_kwargs.items():
        _check_type(path, key, value, _CONFIG_KEYS[key])
    rest = {k: v for k, v in raw.items() if k not in _CONFIG_KEYS}
    engine = rest.get("engine")
    if engine is not None and engine not in ("rule", "llm", "hybrid"):
        raise ConfigError(f'engine must be "rule", "llm" or "hybrid" (got {engine!r})')
    llm = rest.get("llm", {})
    if not isinstance(llm, dict):
        raise ConfigError(f"config {path}: llm must be an object (got {llm!r})")
    for key, types in _LLM_KEYS.items():
        if key in llm:
            _check_type(path, f"llm.{key}", llm[key], types)
    return PesoConfig(**peso_kwargs), rest
