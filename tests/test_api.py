"""The package's public names: a pinned list, each bound on first use."""

import subprocess
import sys
import types

import pytest

import hyperfa

PUBLIC = [
    "AutomatedTeacher",
    "CompletenessReport",
    "Fa",
    "Fragment",
    "HreAst",
    "Hyperword",
    "IndexSequence",
    "LearnerConfig",
    "Nfh",
    "ObservationTable",
    "PAD",
    "PolicyId",
    "Quantifier",
    "ZipWord",
    "apply_sequence",
    "canon",
    "canonical_equal",
    "check_complete",
    "cli",
    "compile_hre",
    "complement",
    "concat_tracks",
    "contains",
    "equivalent",
    "errors",
    "fa",
    "format_hre",
    "format_hyperword",
    "format_nfh",
    "gen_hamiltonian",
    "hfa",
    "hre",
    "intersect",
    "is_exact_zip",
    "is_legal",
    "learn",
    "learn_nfh",
    "lift",
    "make_nfh",
    "member",
    "nonempty_exists",
    "nonempty_exists_forall",
    "nonempty_forall",
    "parse_hyperword",
    "parse_nfh",
    "permutation_closure",
    "policy",
    "regular_member",
    "sequence_closure",
    "strip_pads",
    "union",
    "unzip",
    "zip_words",
    "zipwords",
]


def test_all_is_the_pinned_public_list():
    assert hyperfa.__all__ == PUBLIC


def test_every_public_name_resolves_once():
    for name in PUBLIC:
        value = getattr(hyperfa, name)
        assert vars(hyperfa)[name] is value  # bound, so __getattr__ runs once


def test_dir_lists_every_public_name_before_any_is_used():
    script = "import hyperfa; print(' '.join(dir(hyperfa)))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert set(PUBLIC) <= set(done.stdout.split())


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hyperfa import *", namespace)
    assert [name for name in PUBLIC if namespace.get(name) is not getattr(hyperfa, name)] == []


def test_learn_is_the_module_and_learn_nfh_its_function():
    assert isinstance(hyperfa.learn, types.ModuleType)
    assert hyperfa.learn_nfh is hyperfa.learn.learn


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperfa.no_such_name
    assert not hasattr(hyperfa, "_search_member")
