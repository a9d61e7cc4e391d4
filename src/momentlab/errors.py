"""Errors of the float sampler, defined without numpy so that the cli can
catch them on runs that never load the sampler."""


class SamplerError(ValueError):
    pass
