import pytest

from codeperturb.core import (
    CodeSample,
    Language,
    MethodCategory,
    PesoConfig,
    build_catalog,
    load_config,
)
from codeperturb.errors import ConfigError, UnknownMethod
from codeperturb.transform import RULES, RuleEngine
from codeperturb.transform.llm import LlmEngine

EXPECTED_COUNTS = {
    MethodCategory.BASIC: 11,
    MethodCategory.CONDITION: 6,
    MethodCategory.LOOP: 2,
    MethodCategory.LOGIC: 2,
    MethodCategory.DECOMPOSITION: 2,
    MethodCategory.ARITHMETIC: 3,
}


def test_language_members():
    assert {lang.name for lang in Language} == {"C_CPP", "GO", "PYTHON", "RUST_LANG", "JAVA"}
    assert Language.parse("c++") is Language.C_CPP
    assert Language.parse("golang") is Language.GO
    with pytest.raises(ConfigError):
        Language.parse("cobol")


def test_catalog_has_26_methods():
    assert len(build_catalog().methods) == 26


@pytest.mark.parametrize("category,count", sorted(EXPECTED_COUNTS.items(), key=lambda kv: kv[0].index))
def test_catalog_category_counts(category, count):
    assert len(build_catalog().by_category[category]) == count


def test_catalog_partitions_methods():
    cat = build_catalog()
    ids = [m.id for m in cat.methods]
    assert len(set(ids)) == len(ids)
    regrouped = [m.id for c in MethodCategory for m in cat.by_category[c]]
    assert sorted(regrouped) == sorted(ids)
    assert sum(EXPECTED_COUNTS.values()) == 26


def test_category_indices_bijective():
    assert sorted(c.index for c in MethodCategory) == [0, 1, 2, 3, 4, 5]


def test_catalog_get():
    cat = build_catalog()
    assert cat.get("function_rename").category is MethodCategory.BASIC
    assert cat.get("extract_if").category is MethodCategory.DECOMPOSITION
    with pytest.raises(UnknownMethod):
        cat.get("no_such_method")


def test_supported_follows_the_rule_table():
    cat = build_catalog()
    rule, llm = RuleEngine(cat), LlmEngine(transport=None)
    rename = cat.get("function_rename")
    assert rule.supported(rename, Language.PYTHON)
    assert not rule.supported(rename, Language.JAVA)
    # All 26 methods reach every language through the LLM engine.
    for m in cat.methods:
        for lang in Language:
            assert llm.supported(m, lang)
            assert rule.supported(m, lang) == (m.id in RULES.get(lang, {}))


def test_rule_subset_covers_each_category_for_python_and_go():
    cat = build_catalog()
    rule = RuleEngine(cat)
    for lang in (Language.PYTHON, Language.GO):
        for category in MethodCategory:
            supported = [m for m in cat.by_category[category] if rule.supported(m, lang)]
            assert supported, f"no rule-based {category.name} method for {lang.value}"


# Methods with a rule in all three languages, written out so that a change
# to RULES must change this test too.
_IN_ALL_THREE = {
    "insert_junk_function", "insert_junk_loop", "insert_variables", "statement_wrapping",
    "function_rename", "variables_rename", "div_if_else", "div_composed_if",
    "if_continue_to_if_else", "for_while_transformation", "equi_boolean_logic",
    "swap_boolean_expression", "equi_arithmetic_expression", "modify_operations",
}


def test_rule_table_is_pinned():
    assert {lang: set(ids) for lang, ids in RULES.items()} == {
        Language.PYTHON: _IN_ALL_THREE | {"add_exception", "extract_if"},
        Language.GO: _IN_ALL_THREE | {"extract_if"},
        Language.C_CPP: _IN_ALL_THREE,
    }
    catalog_ids = {m.id for m in build_catalog().methods}
    for ids in RULES.values():
        assert set(ids) <= catalog_ids


@pytest.mark.parametrize("lang", [Language.JAVA, Language.RUST_LANG])
def test_java_and_rust_are_llm_only(lang):
    cat = build_catalog()
    rule = RuleEngine(cat)
    assert not any(rule.supported(m, lang) for m in cat.methods)


def test_peso_config_defaults():
    cfg = PesoConfig()
    assert (cfg.mu, cfg.nu) == (0.5, 0.5)
    assert cfg.temperature == 2
    assert cfg.max_iter == 15
    assert cfg.ss_threshold == 0.2


@pytest.mark.parametrize("mu,nu", [(0.7, 0.2), (0.5, 0.5000001), (0.0, 0.9)])
def test_peso_config_rejects_bad_weights(mu, nu):
    with pytest.raises(ConfigError):
        PesoConfig(mu=mu, nu=nu)


def test_peso_config_accepts_weights_within_tolerance():
    PesoConfig(mu=0.3, nu=0.7)
    PesoConfig(mu=0.5 + 4e-10, nu=0.5)


def test_code_sample_invariants():
    with pytest.raises(ConfigError):
        CodeSample(id="x", language=Language.PYTHON, text="")
    s = CodeSample(id="x", language=Language.PYTHON, text="x = 1\n")
    child = s.derive("y = 1\n", "variables_rename")
    assert child.lineage == ("variables_rename",)
    assert s.lineage == ()


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"mu": 0.6, "nu": 0.4, "temperature": 1.5, "engine": "rule"}')
    cfg, rest = load_config(path)
    assert cfg.mu == 0.6 and cfg.temperature == 1.5
    assert rest["engine"] == "rule"
    path.write_text('{"engine": "warp"}')
    with pytest.raises(ConfigError):
        load_config(path)
