"""Extended GLMs on double exponential families with dropout regularization.

Modules by concern: ``families`` (DEF densities, normalizers, samplers),
``basis`` (natural/cyclic B-splines), ``model`` (likelihood, scores, Fisher
information), ``dropout`` (noise, MC oracles, closed-form penalties),
``optim`` (SGD/ADADELTA engine), ``pmle`` (difference-penalty baseline),
``tuning`` (random-search CV), ``simlab`` (simulation protocol), ``traffic``
(hourly traffic counts), ``runio`` (CSV, manifest and config files), ``rngs``
(keyed random substreams), ``errors`` (the exit-code exceptions), ``cli``
(command-line surface).
"""

__version__ = "0.1.0"
