"""The four kernel configurations of the paper's Table 3."""

from .altq_kernel import AltqKernel, build_altq_kernel
from .base import KernelResult, run_table3_workload
from .besteffort import BestEffortKernel, build_besteffort_kernel
from .plugin_kernel import (
    EmptyPlugin,
    PluginKernel,
    build_drr_plugin_kernel,
    build_plugin_kernel,
)


def build_all_table3_kernels():
    """The four rows, in the paper's order."""
    return [
        build_besteffort_kernel(),
        build_plugin_kernel(),
        build_altq_kernel(),
        build_drr_plugin_kernel(),
    ]


__all__ = [
    "AltqKernel",
    "build_altq_kernel",
    "KernelResult",
    "run_table3_workload",
    "BestEffortKernel",
    "build_besteffort_kernel",
    "EmptyPlugin",
    "PluginKernel",
    "build_drr_plugin_kernel",
    "build_plugin_kernel",
    "build_all_table3_kernels",
]
