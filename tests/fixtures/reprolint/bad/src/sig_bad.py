"""Fixture: REPRO012 drift (demod); both pairs are untested (REPRO002)."""


def demod(samples, gain):
    return samples


def demod_reference(samples):
    return samples


def filt(samples):
    return samples


def filt_reference(samples):
    return samples
