import importlib
import inspect
import pkgutil

import pytest

import slim

MODULES = ["slim"] + [f"slim.{m.name}" for m in pkgutil.iter_modules(slim.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


# slim.__all__ before it was derived from the module lists; none may leave.
PARENT_NAMES = [
    "AbsHistogram", "ArchConfig", "BadMagic", "CalibrationStats", "ChannelScaling",
    "CompressedLayer", "ConfigInvalid", "CorruptHeader", "E4M3", "E5M2", "EmptyInput",
    "EmptyStats", "EmptyTensor", "ErrorReport", "Fp8Format", "IndivisibleDimension", "IoError",
    "LayerCompressionConfig", "LowRankAdapter", "NonFinite", "NonPositiveAlpha",
    "NonPositiveSaliency", "Provenance", "QuantizedTensor", "RankOutOfRange", "SaliencyVector",
    "SchemaViolation", "SchemeConfig", "ShapeMismatch", "SlimError", "SparsityMask",
    "SparsityPattern", "TruncatedData", "UnsupportedBitwidth", "UnsupportedVersion",
    "absmax_alpha", "activation_aware_scale", "apply_mask", "build_abs_histogram",
    "compress_layer", "compute_calibration", "default_num_bins", "default_rank", "dequantize",
    "deserialize_compressed_layer", "error_report", "estimate_error", "flop_reduction",
    "fp8_fake_quantize", "group_absmax_quantize", "layer_output", "load_arch",
    "load_calibration", "load_preset", "magnitude_scores", "memory_reduction", "naive_lora",
    "preset_names", "quantize_adapter", "quantize_symmetric", "read_container",
    "saliency_vector", "save_calibration", "semistructured_mask", "serialize_compressed_layer",
    "slim_lora", "slimquant_search", "svd_truncated", "unstructured_mask", "wanda_scores",
    "write_container",
]

LIBRARY_MODULES = [m for m in MODULES if m not in ("slim", "slim.cli")]


def test_package_exports_each_module_name_once():
    assert len(slim.__all__) == len(set(slim.__all__))
    union = [n for m in LIBRARY_MODULES for n in importlib.import_module(m).__all__]
    assert sorted(slim.__all__) == sorted(union)


def test_package_keeps_every_earlier_name():
    assert len(PARENT_NAMES) == 71
    assert sorted(set(PARENT_NAMES) - set(slim.__all__)) == []


def test_no_function_takes_a_shape_beside_its_matrix():
    # a matrix read a block at a time travels as one argument, a
    # tensor.BlockSource, which carries its own shape
    functions = [getattr(slim, n) for n in slim.__all__ if inspect.isfunction(getattr(slim, n))]
    functions.append(slim.prune.build_mask)
    assert [f.__name__ for f in functions if "shape" in inspect.signature(f).parameters] == []
