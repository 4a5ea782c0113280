"""Whole-model benchmark of the VS-Quant serving stack (see ``perfbench/run.py``)."""
