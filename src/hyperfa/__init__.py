"""Finite automata over sets of words: decision procedures, hyperregular
expressions, canonical forms, and active learning."""

import importlib

# the public names, by the submodule each is taken from (__all__ is derived
# from it); a name's submodule is imported on the name's first use, so a CLI
# run loads only what it calls
_EXPORTS = {
    "canon": "CompletenessReport canonical_equal check_complete permutation_closure "
             "sequence_closure",
    "cli": "",
    "errors": "",
    "fa": "Fa",
    "hfa": "Fragment Hyperword Nfh Quantifier complement contains equivalent "
           "format_hyperword format_nfh gen_hamiltonian intersect make_nfh member "
           "nonempty_exists nonempty_exists_forall nonempty_forall parse_hyperword "
           "parse_nfh regular_member union",
    "hre": "HreAst PolicyId compile_hre format_hre policy",
    "learn": "AutomatedTeacher LearnerConfig ObservationTable learn_nfh",
    "zipwords": "PAD IndexSequence ZipWord apply_sequence concat_tracks is_exact_zip "
                "is_legal lift strip_pads unzip zip_words",
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names.split())}
__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    """Bind a public name on first use (PEP 562), importing its submodule."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    if name in _EXPORTS:
        value = module
    else:  # "learn" names the submodule, so its learn function is learn_nfh
        value = getattr(module, "learn" if name == "learn_nfh" else name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
