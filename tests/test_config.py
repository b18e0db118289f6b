"""Run-settings layering, model-config derivation, and list parsing."""
import dataclasses
import json

import pytest

from gridcast.config import (
    ConfigError,
    RunSettings,
    load_settings,
    parse_float_list,
    parse_int_list,
)
from gridcast.grid import Channel


def test_defaults_produce_square_filter_config():
    cfg = RunSettings().model_config("thread")
    assert cfg.kind == "thread"
    assert cfg.k_h == cfg.k_w == 3
    assert cfg.channels == (Channel.COUNTS, Channel.RELTIME, Channel.MASK)
    assert cfg.window == (16, 12)


def test_column_filter_shape_keeps_height_only():
    s = RunSettings(filter_shape="Kx1", kernel_size=5)
    cfg = s.model_config("reply")
    assert (cfg.k_h, cfg.k_w) == (5, 1)


def test_channel_subsets_map_to_channel_tuples():
    assert RunSettings(channels="S").model_config("reply").channels == (Channel.COUNTS,)
    assert RunSettings(channels="M").model_config("reply").channels == (
        Channel.COUNTS,
        Channel.RELTIME,
    )


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("channels", "rgb", "channel set"),
        ("filter_shape", "1xK", "filter shape"),
        ("loss_mode", "bogus", "loss mode"),
    ],
)
def test_model_config_rejects_unknown_names(field, value, fragment):
    # the settings refuse the name when built
    with pytest.raises(ValueError, match=fragment):
        RunSettings(**{field: value})


def test_overrides_apply_and_none_is_skipped():
    s = load_settings(None, {"d": 120.0, "epochs": None}, RunSettings())
    assert s.d == 120.0
    assert s.epochs == RunSettings().epochs


def test_unknown_override_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown setting 'dd'"):
        load_settings(None, {"dd": 1.0}, RunSettings())


def test_config_file_must_hold_a_json_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_settings(str(path), {}, RunSettings())


def test_config_file_syntax_error_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="parse failure"):
        load_settings(str(path), {}, RunSettings())


def test_file_then_override_layering(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"d": 60.0, "epochs": 3}), encoding="utf-8")
    s = load_settings(str(path), {"epochs": 9}, RunSettings())
    assert (s.d, s.epochs) == (60.0, 9)


def test_parse_int_list_accepts_spaces_and_trailing_commas():
    assert parse_int_list(" 3, 5 ,7 ,") == [3, 5, 7]


def test_parse_int_list_rejects_non_integers():
    with pytest.raises(ConfigError, match="comma-separated integers"):
        parse_int_list("3,x")


def test_parse_float_list_roundtrip_and_rejection():
    assert parse_float_list("0.5,1") == [0.5, 1.0]
    with pytest.raises(ConfigError, match="comma-separated numbers"):
        parse_float_list("a,b")


@pytest.mark.parametrize("text", ["", " , ", "0", "300,-5", "nan", "300,inf"])
def test_parse_float_list_rejects_empty_and_non_positive(text):
    with pytest.raises(ConfigError, match="each finite and > 0"):
        parse_float_list(text)


@pytest.mark.parametrize("text", ["", ",", "0", "2,-1"])
def test_parse_int_list_rejects_empty_and_below_one(text):
    with pytest.raises(ConfigError, match="each >= 1"):
        parse_int_list(text)


@pytest.mark.parametrize("key", ["search_filters", "search_kernels", "search_blocks"])
@pytest.mark.parametrize("value", ["", "0", "3,x"])
def test_search_lists_are_checked_with_the_settings(key, value):
    with pytest.raises(ValueError, match=f"{key}: expected comma-separated integers"):
        RunSettings(**{key: value})
    with pytest.raises(ConfigError, match=key):
        load_settings(None, {key: value}, RunSettings())


@pytest.mark.parametrize(
    "values, key",
    [
        ({"d": "300"}, "d"),
        ({"epochs": "2", "window_h": 6.5}, "epochs"),
        ({"window_h": 6.5}, "window_h"),
        ({"seed": True}, "seed"),
        ({"d": False}, "d"),
        ({"channels": 3}, "channels"),
    ],
)
def test_config_file_value_of_wrong_type_is_rejected(tmp_path, values, key):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_settings(str(path), {}, RunSettings())


def test_config_file_int_stands_for_float(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"d": 300}), encoding="utf-8")
    assert load_settings(str(path), {}, RunSettings()).d == 300.0


@pytest.mark.parametrize(
    "key, value",
    [
        ("train_frac", -0.5),
        ("train_frac", 0.0),
        ("train_frac", 1.0),
        ("train_frac", 1.5),
        ("d", 0.0),
        ("d", -5.0),
    ],
)
def test_out_of_range_setting_is_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        load_settings(None, {key: value}, RunSettings())


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_filters", 0, "n_filters must be >= 1, got 0"),
        ("kernel_size", 0, "k_h must be >= 1, got 0"),
        ("window_w", 0, "window must be >= 1 in both dims, got (16, 0)"),
        ("n_blocks", 0, "n_blocks must be >= 1, got 0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("loss_mode", "x", "unknown loss mode 'x', not one of ('corner', 'full')"),
        ("lambda_thread", -1.0, "lambda_thread must be positive"),
        ("theta", 0.0, "theta must be positive"),
        ("breakout_fraction", 1.5, "breakout_fraction must lie in [0, 1]"),
    ],
)
def test_library_config_rule_fails_at_settings_load(key, value, message):
    """The settings build the model, training and generator configs they
    describe, so each of their rules fails here, naming its field."""
    with pytest.raises(ConfigError) as info:
        load_settings(None, {key: value}, RunSettings())
    assert str(info.value) == f"bad config values: {message}"


FLOAT_SETTINGS = [f.name for f in dataclasses.fields(RunSettings) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_SETTINGS)
def test_non_finite_float_setting_is_rejected_at_construction(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        RunSettings(**{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_settings(None, {key: value}, RunSettings())


def test_non_finite_config_file_value_is_rejected(tmp_path):
    """Python's json reads NaN and Infinity, so a config file can hold them."""
    path = tmp_path / "s.json"
    path.write_text('{"horizon": Infinity, "d": 300}', encoding="utf-8")
    with pytest.raises(ConfigError, match="horizon must be finite, got inf"):
        load_settings(str(path), {}, RunSettings())
