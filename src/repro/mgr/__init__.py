"""User space: the Router Plugin Library and the pmgr Plugin Manager."""

from .format import (
    TopicSpec,
    get_topic,
    merge_topic,
    register_topic,
    render_topic,
    topic_names,
)
from .library import (
    PLUGIN_REGISTRY,
    RouterPluginLibrary,
    load_plugin,
    parse_config_value,
    split_command,
)
from .pmgr import PluginManager, main, run_script

__all__ = [
    "PLUGIN_REGISTRY",
    "RouterPluginLibrary",
    "TopicSpec",
    "get_topic",
    "load_plugin",
    "merge_topic",
    "parse_config_value",
    "register_topic",
    "render_topic",
    "split_command",
    "topic_names",
    "PluginManager",
    "main",
    "run_script",
]
