"""Deterministic simulator of a software-configurable processor's
extension-instruction fabric, with fixed-point color conversion and
histogram-equalization workloads and a calibrated cycle-cost model."""
