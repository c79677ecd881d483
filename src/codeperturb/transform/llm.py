"""LLM engine: HTTP transport for a chat-completions-style endpoint plus a
replay transport for offline tests.

The auth token is read from an environment variable, never from flags or
config files.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..core import CodeSample, EngineKind, Language, Origin, PerturbationMethod
from ..errors import ConfigError, EngineFailure
from .prompts import parse_llm_answer, synthesize_prompt


@dataclass(frozen=True)
class LlmConfig:
    base_url: str
    model: str = "gpt-4o"
    api_key_env: str = "CODEPERTURB_API_KEY"
    timeout: float = 60.0
    max_retries: int = 2
    max_in_flight: int = 4
    temperature: float = 0.7


class HttpTransport:
    """POSTs chat requests to {base_url}/chat/completions."""

    def __init__(self, config: LlmConfig):
        self.config = config
        self._gate = threading.Semaphore(config.max_in_flight)

    def complete(self, system: str, user: str, request_id: str) -> str:
        import requests

        token = os.environ.get(self.config.api_key_env, "")
        if not token:
            raise ConfigError(
                f"LLM engine needs an auth token in ${self.config.api_key_env}"
            )
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: Exception | None = None
        for _ in range(self.config.max_retries + 1):
            try:
                with self._gate:
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
        raise EngineFailure(f"LLM request {request_id} failed: {last_error}") from last_error


class ReplayTransport:
    """Serves canned replies from a directory for offline runs.

    For a request tagged with method id m, the next unconsumed file
    matching m*.json (sorted) is returned. Each file holds either the raw
    reply string or {"content": "..."}.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._consumed: set[Path] = set()
        self._lock = threading.Lock()

    def complete(self, system: str, user: str, request_id: str) -> str:
        with self._lock:
            for path in sorted(self.directory.glob(f"{request_id}*.json")):
                if path in self._consumed:
                    continue
                self._consumed.add(path)
                raw = path.read_text(encoding="utf-8")
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError:
                    return raw
                if isinstance(obj, dict) and "content" in obj:
                    return obj["content"]
                return raw
        raise EngineFailure(f"no canned reply for {request_id} in {self.directory}")


class LlmEngine:
    """Perturbs through a remote model. Supports every (method, language)."""

    kind = EngineKind.LLM

    def __init__(self, transport):
        self.transport = transport

    def supported(self, method: PerturbationMethod, language: Language) -> bool:
        return True

    def apply(self, sample: CodeSample, method: PerturbationMethod, seed: int) -> "PerturbationOutcome":
        from . import PerturbationOutcome

        bundle = synthesize_prompt(sample, method)
        reply = self.transport.complete(bundle.role, bundle.render(), request_id=method.id)
        code, entry_point = parse_llm_answer(reply)
        return PerturbationOutcome(
            candidate=sample.derive(code, method.id, Origin.INTERMEDIATE),
            method=method,
            engine_used=EngineKind.LLM,
            entry_point=entry_point,
        )
