"""The :class:`LogRecord` model.

A :class:`LogRecord` is one HTTP request as seen in an Apache access log,
i.e. exactly the information available to the detectors studied in the
paper.  It deliberately contains *no* ground-truth information -- labels
live in :class:`repro.logs.dataset.GroundTruth` so that detectors can
never accidentally peek at them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Any, Mapping, Sequence
from urllib.parse import parse_qsl, urlsplit


#: File extensions that mark a request as a static-asset fetch; shared
#: with :mod:`repro.columns` so the record and columnar paths can never
#: disagree about what an asset is.
ASSET_SUFFIXES: tuple[str, ...] = (
    ".css",
    ".js",
    ".png",
    ".jpg",
    ".jpeg",
    ".gif",
    ".svg",
    ".ico",
    ".woff",
    ".woff2",
    ".ttf",
    ".map",
)


def split_url_path(path: str) -> str:
    """The path component of a request target, without query or fragment.

    Exactly ``urlsplit(path).path`` -- the single definition behind both
    :attr:`LogRecord.url_path` and (through :func:`split_url_paths`)
    :meth:`repro.columns.frame.RecordFrame.url_paths`.  Origin-form
    targets (a single leading ``/``, the overwhelming majority in access
    logs) take a fast path.  Anything that could carry a scheme or
    netloc, or holds a tab, CR or LF (which ``urlsplit`` strips), falls
    back to ``urlsplit``.
    """
    if (
        path.startswith("/")
        and not path.startswith("//")
        and "\t" not in path
        and "\r" not in path
        and "\n" not in path
    ):
        cut = path.find("?")
        if cut == -1:
            cut = len(path)
        fragment = path.find("#", 0, cut)
        if fragment != -1:
            cut = fragment
        return path[:cut]
    return urlsplit(path).path


def split_url_paths(targets: Sequence[str]) -> list[str]:
    """:func:`split_url_path` of every target in a table, in table order.

    When the whole table is in origin form -- every entry starts with
    ``/`` but not ``//``, and none holds a tab, CR or LF, checked in one
    pass over the joined table -- each path is the text before the
    first ``?`` or ``#``.  Any other table falls back to
    :func:`split_url_path` per entry, which stays the definition.
    """
    joined = "\n".join(targets)
    separators = len(targets) - 1
    if not targets or (
        joined.startswith("/")
        and not joined.startswith("//")
        and joined.count("\n") == separators
        and joined.count("\n/") == separators
        and "\n//" not in joined
        and "\t" not in joined
        and "\r" not in joined
    ):
        return [target.partition("?")[0].partition("#")[0] for target in targets]
    return [split_url_path(target) for target in targets]


class RequestMethod(str, enum.Enum):
    """HTTP request methods that appear in the access logs."""

    GET = "GET"
    POST = "POST"
    HEAD = "HEAD"
    PUT = "PUT"
    DELETE = "DELETE"
    OPTIONS = "OPTIONS"
    PATCH = "PATCH"

    @classmethod
    def from_string(cls, value: str) -> "RequestMethod":
        """Return the enum member for ``value``, defaulting to GET-like lookups.

        Unknown or malformed method tokens (which do occur in real logs,
        e.g. from protocol-confused scanners) raise ``ValueError`` so the
        parser can decide how strict to be.
        """
        try:
            return cls(value.upper())
        except ValueError as exc:
            raise ValueError(f"unknown HTTP method: {value!r}") from exc


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One HTTP request from an Apache *combined log format* access log.

    Parameters
    ----------
    request_id:
        A unique, stable identifier for the request within its data set.
        The paper's analysis joins per-tool alerts on the request, so each
        record must be individually addressable.
    timestamp:
        Request time (timezone-aware).
    client_ip:
        Remote host as logged (``%h``).
    method, path, protocol:
        The parsed request line (``"%r"``).
    status:
        Response status code (``%>s``).
    response_size:
        Response body size in bytes (``%b``); ``0`` when logged as ``-``.
    referrer:
        The ``Referer`` header, empty string when logged as ``-``.
    user_agent:
        The ``User-Agent`` header, empty string when logged as ``-``.
    ident, auth_user:
        The ``%l`` and ``%u`` fields; almost always ``-`` in practice.
    """

    request_id: str
    timestamp: datetime
    client_ip: str
    method: RequestMethod
    path: str
    protocol: str
    status: int
    response_size: int
    referrer: str = ""
    user_agent: str = ""
    ident: str = "-"
    auth_user: str = "-"
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            # Access logs always carry an offset; normalise naive datetimes
            # to UTC rather than letting comparisons blow up later.
            object.__setattr__(self, "timestamp", self.timestamp.replace(tzinfo=timezone.utc))
        if self.status < 100 or self.status > 599:
            raise ValueError(f"invalid HTTP status code: {self.status}")
        if self.response_size < 0:
            raise ValueError(f"negative response size: {self.response_size}")

    # ------------------------------------------------------------------
    # Derived views of the request line
    # ------------------------------------------------------------------
    @property
    def url_path(self) -> str:
        """The path component without the query string."""
        return split_url_path(self.path)

    @property
    def query_string(self) -> str:
        """The raw query string (without the leading ``?``)."""
        return urlsplit(self.path).query

    @property
    def query_params(self) -> dict[str, str]:
        """The query string parsed into a ``dict`` (last value wins)."""
        return dict(parse_qsl(self.query_string, keep_blank_values=True))

    @property
    def day(self) -> str:
        """The request's calendar day in ISO format (``YYYY-MM-DD``)."""
        return self.timestamp.date().isoformat()

    @property
    def status_class(self) -> int:
        """The status class (2 for 2xx, 3 for 3xx, ...)."""
        return self.status // 100

    @property
    def is_error(self) -> bool:
        """True when the response is a client or server error (4xx/5xx)."""
        return self.status >= 400

    @property
    def is_asset_request(self) -> bool:
        """True when the path looks like a static asset (css/js/image/font)."""
        return self.url_path.lower().endswith(ASSET_SUFFIXES)

    @property
    def has_referrer(self) -> bool:
        """True when a non-empty ``Referer`` header was logged."""
        return bool(self.referrer) and self.referrer != "-"

    @property
    def has_user_agent(self) -> bool:
        """True when a non-empty ``User-Agent`` header was logged."""
        return bool(self.user_agent) and self.user_agent != "-"

    def with_status(self, status: int) -> "LogRecord":
        """Return a copy with a different status code (used in tests)."""
        return replace(self, status=status)

    def actor_key(self) -> tuple[str, str]:
        """The (client IP, user agent) pair used to group requests into sessions."""
        return (self.client_ip, self.user_agent)
