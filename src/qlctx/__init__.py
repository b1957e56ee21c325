"""Toolkit for interlinked quantum measurement contexts: Greechie
orthogonality diagrams and their two-valued states, Hilbert-space
realizability, multipartite spin states, and outcome-uniqueness analysis.

The public API is the submodules (``qlctx.logic``, ``qlctx.saturation``,
``qlctx.realizability``, ``qlctx.states``, ``qlctx.uniqueness``,
``qlctx.contexts``, ``qlctx.corpus``); importing the package itself loads
none of them.
"""

__version__ = "0.1.0"
