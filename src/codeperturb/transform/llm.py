"""LLM engine: llm_engine(transport) is an engine function (see the
transform package) that asks a model for each rewrite, over an HTTP
transport for a chat-completions-style endpoint or a replay transport for
offline runs.

The auth token is read from an environment variable, never from flags or
config files. A transport sends one request at a time; a run has at most
--jobs requests in flight, one per worker process.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..core import CodeSample, EngineKind, PerturbationMethod
from ..corpusio import safe_name
from ..errors import ConfigError, EngineFailure
from . import PerturbationOutcome
from .prompts import parse_llm_answer, synthesize_prompt

MAX_RETRIES = 2
TEMPERATURE = 0.7


@dataclass(frozen=True)
class LlmConfig:
    base_url: str
    model: str = "gpt-4o"
    api_key_env: str = "CODEPERTURB_API_KEY"
    timeout: float = 60.0


class HttpTransport:
    """POSTs chat requests to {base_url}/chat/completions."""

    def __init__(self, config: LlmConfig):
        self.config = config

    def complete(self, system: str, user: str, request_id: str, sample_id: str) -> str:
        import requests

        token = os.environ.get(self.config.api_key_env, "")
        if not token:
            raise ConfigError(
                f"LLM engine needs an auth token in ${self.config.api_key_env}"
            )
        payload = {
            "model": self.config.model,
            "temperature": TEMPERATURE,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: Exception | None = None
        for _ in range(MAX_RETRIES + 1):
            try:
                resp = requests.post(
                    url,
                    json=payload,
                    headers={"Authorization": f"Bearer {token}"},
                    timeout=self.config.timeout,
                )
                resp.raise_for_status()
                return resp.json()["choices"][0]["message"]["content"]
            except Exception as exc:  # transport, HTTP, or shape errors
                last_error = exc
        raise EngineFailure(
            f"LLM request {request_id} for {sample_id} failed: {last_error}"
        ) from last_error


class ReplayTransport:
    """Serves canned replies from a directory for offline runs.

    A sample's replies are the m*.json files (sorted, for method id m) in
    the subdirectory named by its safe_name, or, when it has none, in the
    directory itself, which then serves every such sample the same
    replies. The k-th request of one sample for m gets the k-th file, so
    which sample gets which reply does not depend on the order in which
    samples ask. Each file holds either the raw reply string or
    {"content": "..."}.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._cursors: dict[tuple[str, str], int] = {}

    def complete(self, system: str, user: str, request_id: str, sample_id: str) -> str:
        k = self._cursors.get((sample_id, request_id), 0)
        self._cursors[(sample_id, request_id)] = k + 1
        directory = self.directory / safe_name(sample_id)
        if not directory.is_dir():
            directory = self.directory
        paths = sorted(directory.glob(f"{request_id}*.json"))
        if k >= len(paths):
            raise EngineFailure(
                f"no canned reply for {request_id} in {directory}"
                f" (request {k + 1} of {sample_id}, {len(paths)} file(s))"
            )
        raw = paths[k].read_text(encoding="utf-8")
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            return raw
        if isinstance(obj, dict) and "content" in obj:
            return obj["content"]
        return raw


def llm_engine(transport):
    """An engine that perturbs every (method, language) pair through a
    remote model, over `transport` (HttpTransport or ReplayTransport)."""

    def llm(sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
        system, user = synthesize_prompt(sample, method)
        reply = transport.complete(system, user, request_id=method.id, sample_id=sample.id)
        code, entry_point = parse_llm_answer(reply)
        return PerturbationOutcome(
            candidate=sample.derive(code, method.id),
            engine_used=EngineKind.LLM,
            entry_point=entry_point,
        )

    return llm
