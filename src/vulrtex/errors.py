"""Exception types shared across the pipeline."""


class VulrtexError(Exception):
    """Base class for all pipeline errors."""


class EmptyCorpus(VulrtexError):
    """An operation that needs documents received none."""


class CycleIntroduced(VulrtexError):
    """Adding an action would close a cycle in the reasoning graph."""


class DanglingEndpoint(VulrtexError):
    """Action references an observation id that is not in the graph."""


class DuplicateId(VulrtexError):
    """Observation or action id already present in the graph."""


class TransportError(VulrtexError):
    """Transient transport failure talking to an LLM backend."""


class RateLimited(TransportError):
    """Backend asked us to slow down; retryable."""


class BackendRejected(VulrtexError):
    """Backend rejected the request (4xx-style); never retried."""


class MalformedReply(VulrtexError):
    """Backend reply breaks the chat-completion protocol; never retried."""


class LogprobsUnavailable(VulrtexError):
    """Backend cannot return per-token logprobs."""


class NoLabelToken(VulrtexError):
    """Neither a Yes nor a No token in the first output position."""


class ToolBackendUnavailable(VulrtexError):
    """Screenshot or code analysis backend could not be reached."""


class DuplicateKey(VulrtexError):
    """Two knowledge records share (source, key)."""


class SingleClass(VulrtexError):
    """AUROC/AUPRC need both a positive and a negative row."""


class NoPositiveRows(VulrtexError):
    """Macro CWE metrics need at least one positive-truth row."""


class IsolatedNonTerminal(VulrtexError):
    """Non-terminal node with zero outgoing sampling mass; adjacency misaligned."""


class EmptyDatabase(VulrtexError):
    """Reasoning database contains no graphs."""


class GatewayExhausted(VulrtexError):
    """LLM gateway gave up after the configured retries."""


class ConfigError(VulrtexError):
    """Invalid or inconsistent pipeline configuration."""
