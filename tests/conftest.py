import importlib.util
import pathlib

from hypothesis import strategies as st

# multiplicities in [0, 1] with modest denominators, the exact regime the
# library is used in
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=24)

small_sets = st.frozensets(unit_fractions, min_size=1, max_size=5)


def load_script(name: str):
    """``scripts/<name>.py`` imported as a fresh module; its ``main`` does not run."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
